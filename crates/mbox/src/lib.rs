//! The middleboxes of the paper's Table 1.
//!
//! The paper implements its middleboxes on Click (\[34\]); this crate
//! implements them directly in Rust:
//!
//! * [`middlebox`] — the [`Middlebox`] trait: packet processing inside an
//!   FTC packet transaction, plus [`MbSpec`], a cloneable description the
//!   orchestrator uses to instantiate fresh middlebox instances during
//!   failure recovery.
//! * [`StateKey`] — the builder every middlebox spells its state keys
//!   with.
//! * [`spec_lang`] — the chain-description language ([`parse_chain`]).
//!   Whether a chain can be deployed is checked once, by
//!   `ChainConfig::validate` in `ftc-core`.
//! * The Table-1 middleboxes:
//!   [`nat::MazuNat`] (the core of a commercial NAT — read-heavy),
//!   [`nat::SimpleNat`] (basic NAT), [`monitor::Monitor`] (read/write-heavy
//!   counters with a *sharing level* knob), [`gen::Gen`] (write-heavy with a
//!   *state size* knob), [`firewall::Firewall`] (stateless), and a bonus
//!   connection-persistent [`lb::LoadBalancer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod firewall;
pub mod gen;
pub mod ids;
mod key;
pub mod lb;
pub mod middlebox;
pub mod monitor;
pub mod nat;
pub mod spec_lang;

pub use firewall::{Firewall, FirewallAction, FirewallRule};
pub use gen::Gen;
pub use ids::Ids;
pub use key::StateKey;
pub use lb::LoadBalancer;
pub use middlebox::{Action, MbSpec, Middlebox, ProcCtx};
pub use monitor::Monitor;
pub use nat::{MazuNat, SimpleNat};
pub use spec_lang::parse_chain;
