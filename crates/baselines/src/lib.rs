//! The comparison systems of the paper's evaluation (§7.1).
//!
//! * [`nf::NfChain`] — **NF**, "a non fault-tolerant baseline system": the
//!   same middleboxes on the same substrate, one server each, no
//!   replication, no piggybacking.
//! * [`ftmb::FtmbChain`] — **FTMB**, "our implementation of \[51\] … a
//!   performance upper bound of the original work that performs the logging
//!   operations described in \[51\] but does not take snapshots": per
//!   middlebox, a *master* (M) server plus a *logger* server hosting the
//!   input logger (IL) and output logger (OL). Packets traverse IL → M →
//!   OL; M emits a packet access log (PAL) to OL for every transaction that
//!   touches shared state, in a separate message; per the paper's prototype
//!   simplifications, PALs are assumed delivered on first attempt, packets
//!   are released immediately afterwards, and the OL retains only the last
//!   PAL.
//! * [`ftmb::SnapshotCfg`] — **FTMB+Snapshot**: FTMB plus the periodic
//!   whole-middlebox stalls of the original system's checkpoints ("we add
//!   an artificial delay (6 ms) periodically (every 50 ms)", §7.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ftmb;
pub mod nf;

pub use ftmb::{FtmbChain, SnapshotCfg};
pub use nf::NfChain;
