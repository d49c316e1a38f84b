//! The Gen middlebox: synthetic write-heavy state generator.
//!
//! "Gen represents a write-heavy middlebox that takes a state size
//! parameter, which allows us to test the impact of a middlebox's state
//! size on performance" (paper §7.1, used by Fig. 5). Gen performs no reads
//! and one write of `state_size` bytes per packet.

use crate::key::StateKey;
use crate::middlebox::{Action, Middlebox, ProcCtx};
use bytes::Bytes;
use ftc_packet::Packet;
use ftc_stm::{StateTxn, TxnError};

/// Write-heavy synthetic middlebox.
#[derive(Debug)]
pub struct Gen {
    state_size: usize,
}

impl Gen {
    /// Creates a Gen writing `state_size` bytes of state per packet.
    pub fn new(state_size: usize) -> Gen {
        assert!(state_size >= 1, "state size must be at least 1 byte");
        Gen { state_size }
    }

    /// The configured per-packet state size.
    pub fn state_size(&self) -> usize {
        self.state_size
    }

    /// The key a given worker writes.
    pub(crate) fn worker_key(worker: usize) -> Bytes {
        StateKey::new("gen:w").dec(worker as u64).build()
    }
}

impl Middlebox for Gen {
    fn name(&self) -> &str {
        "Gen"
    }

    fn process(
        &self,
        pkt: &mut Packet,
        txn: &mut dyn StateTxn,
        ctx: ProcCtx,
    ) -> Result<Action, TxnError> {
        // Derive deterministic state bytes from the packet so replicas can
        // verify content equality in tests.
        let seedling = pkt
            .flow_key()
            .map(|k| k.hash64())
            .unwrap_or(0)
            .wrapping_add(pkt.wire_len() as u64);
        let mut value = Vec::with_capacity(self.state_size);
        let mut x = seedling | 1;
        while value.len() < self.state_size {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            value.extend_from_slice(&x.to_be_bytes());
        }
        value.truncate(self.state_size);
        txn.write(Self::worker_key(ctx.worker), Bytes::from(value))?;
        Ok(Action::Forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_stm::StateStore;

    #[test]
    fn writes_exactly_state_size_bytes() {
        for size in [1usize, 16, 64, 128, 256] {
            let store = StateStore::new(8);
            let gen = Gen::new(size);
            let mut pkt = UdpPacketBuilder::new().build();
            let out = store.transaction(|txn| gen.process(&mut pkt, txn, ProcCtx::single()));
            let log = out.log.expect("gen writes every packet");
            assert_eq!(log.writes.len(), 1);
            assert_eq!(log.writes[0].value.len(), size);
            assert_eq!(store.peek(b"gen:w0").unwrap().len(), size);
        }
    }

    #[test]
    fn no_reads_single_partition_touched() {
        let store = StateStore::new(32);
        let gen = Gen::new(64);
        let mut pkt = UdpPacketBuilder::new().build();
        let out = store.transaction(|txn| gen.process(&mut pkt, txn, ProcCtx::single()));
        let log = out.log.unwrap();
        assert_eq!(log.deps.len(), 1, "write-only txn touches one partition");
    }

    #[test]
    fn value_is_deterministic_per_packet() {
        let store = StateStore::new(8);
        let gen = Gen::new(32);
        let mut a = UdpPacketBuilder::new().build();
        let out1 = store.transaction(|txn| gen.process(&mut a, txn, ProcCtx::single()));
        let mut b = UdpPacketBuilder::new().build();
        let out2 = store.transaction(|txn| gen.process(&mut b, txn, ProcCtx::single()));
        assert_eq!(
            out1.log.unwrap().writes[0].value,
            out2.log.unwrap().writes[0].value,
            "same packet bytes produce the same state"
        );
    }
}
