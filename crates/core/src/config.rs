//! Chain configuration and replication-group ring arithmetic.

use ftc_mbox::MbSpec;
use ftc_net::Endpoint;
use ftc_stm::{EngineKind, DEFAULT_PARTITIONS};
use std::time::Duration;

/// Configuration of an FTC chain deployment.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// The middleboxes in service-function-chain order.
    pub middleboxes: Vec<MbSpec>,
    /// Number of replica failures to tolerate (replication factor − 1).
    pub f: usize,
    /// State partitions per middlebox store (at least 1; any number of
    /// workers may share them, the transaction locks order their updates).
    pub partitions: usize,
    /// Worker threads per replica.
    pub workers: usize,
    /// Depth of each NIC queue in frames.
    pub nic_queue_depth: usize,
    /// Transport endpoint template for inter-server links: backend choice
    /// plus its knobs (impairments for the in-process backend, socket
    /// options for TCP/UDS).
    pub link: Endpoint,
    /// Forwarder idle timeout before emitting a propagating packet (§5.1).
    pub propagate_timeout: Duration,
    /// Buffer resend period for uncommitted wrapped logs (self-healing after
    /// in-flight loss; duplicates are deduplicated by the apply rule).
    pub resend_period: Duration,
    /// State engine every store of this chain runs on (head stores and
    /// replica copies alike).
    pub engine: EngineKind,
}

impl ChainConfig {
    /// Table 1's `Ch-n`: a chain of `n` Monitors with the given sharing
    /// level.
    pub fn ch_n(n: usize, sharing_level: usize) -> ChainConfig {
        ChainConfig::new(vec![MbSpec::Monitor { sharing_level }; n])
    }

    /// Table 1's `Ch-Rec`: `Firewall → Monitor → SimpleNAT` (the recovery
    /// experiment's chain).
    pub fn ch_rec(external_ip: std::net::Ipv4Addr) -> ChainConfig {
        ChainConfig::new(vec![
            MbSpec::Firewall { rules: vec![] },
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::SimpleNat { external_ip },
        ])
    }

    /// A reasonable default configuration for the given middleboxes.
    pub fn new(middleboxes: Vec<MbSpec>) -> ChainConfig {
        ChainConfig {
            middleboxes,
            f: 1,
            partitions: DEFAULT_PARTITIONS,
            workers: 1,
            nic_queue_depth: 4096,
            link: Endpoint::in_proc(),
            propagate_timeout: Duration::from_millis(1),
            resend_period: Duration::from_millis(10),
            engine: EngineKind::default(),
        }
    }

    /// Sets the number of tolerated failures.
    pub fn with_f(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Sets the worker thread count per replica.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the inter-server link endpoint (backend and its knobs).
    pub fn with_link(mut self, link: Endpoint) -> Self {
        self.link = link;
        self
    }

    /// Sets the number of state partitions.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Selects the state engine for every store of this chain.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the per-worker NIC queue depth.
    pub fn with_nic_queue_depth(mut self, depth: usize) -> Self {
        self.nic_queue_depth = depth;
        self
    }

    /// Sets the forwarder's idle timeout before emitting a propagating
    /// packet (§5.1).
    pub fn with_propagate_timeout(mut self, timeout: Duration) -> Self {
        self.propagate_timeout = timeout;
        self
    }

    /// Sets the buffer's resend period for unacknowledged feedback.
    pub fn with_resend_period(mut self, period: Duration) -> Self {
        self.resend_period = period;
        self
    }

    /// The *effective* chain: if the chain is shorter than `f + 1`, it is
    /// extended with passthrough pure-replica stages before the buffer so
    /// every state update can reach `f + 1` distinct servers (§5.1: "if the
    /// chain length is less than f + 1, we extend the chain by adding more
    /// replicas prior to the buffer").
    pub fn effective_middleboxes(&self) -> Vec<MbSpec> {
        let mut mbs = self.middleboxes.clone();
        while mbs.len() < self.f + 1 {
            mbs.push(MbSpec::Passthrough);
        }
        mbs
    }

    /// Ring arithmetic for the effective chain.
    pub fn ring(&self) -> RingMath {
        RingMath {
            n: self.effective_middleboxes().len(),
            f: self.f,
        }
    }

    /// The one check of a chain description, run by every deployment path.
    /// The ring needs no check: [`Self::effective_middleboxes`] pads it to
    /// `f + 1` positions. A message names the `ftc` option that sets its
    /// field, where there is one, so the CLI can return it as it is.
    pub fn validate(&self) -> Result<(), String> {
        if self.middleboxes.is_empty() {
            return Err("chain must have middleboxes".into());
        }
        if self.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
        if self.partitions == 0 {
            return Err("partitions must be at least 1".into());
        }
        Ok(())
    }
}

/// Replication-group arithmetic over the logical ring of `n` replicas with
/// `f` tolerated failures (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingMath {
    /// Number of replicas (= effective middleboxes).
    pub n: usize,
    /// Failures tolerated.
    pub f: usize,
}

impl RingMath {
    /// The replicas in middlebox `m`'s replication group: `r_m` (the head)
    /// and its `f` successors on the ring.
    pub fn group(&self, m: usize) -> Vec<usize> {
        (0..=self.f).map(|k| (m + k) % self.n).collect()
    }

    /// The head replica of middlebox `m` (co-located with it).
    pub fn head_of(&self, m: usize) -> usize {
        m
    }

    /// The tail replica of middlebox `m`'s group.
    pub fn tail_of(&self, m: usize) -> usize {
        (m + self.f) % self.n
    }

    /// The middlebox for which replica `r` is the tail.
    pub fn tail_for(&self, r: usize) -> usize {
        (r + self.n - self.f % self.n) % self.n
    }

    /// The middleboxes replica `r` replicates (its `f` predecessors on the
    /// ring, excluding its own middlebox), ordered from most distant to the
    /// immediate predecessor — i.e. `[r-f, …, r-1] mod n`.
    pub fn replicated_by(&self, r: usize) -> Vec<usize> {
        (1..=self.f)
            .rev()
            .map(|k| (r + self.n - (k % self.n)) % self.n)
            .collect()
    }

    /// True if replica `r` is in middlebox `m`'s replication group.
    pub fn is_member(&self, r: usize, m: usize) -> bool {
        let dist = (r + self.n - m) % self.n;
        dist <= self.f
    }

    /// True if a log of middlebox `m` *wraps*: its tail lies at or before
    /// its head in chain order, so the buffer must hold packets carrying it
    /// until commit vectors come back around (§5.1).
    pub fn wraps(&self, m: usize) -> bool {
        m + self.f >= self.n
    }

    /// The middleboxes whose logs are still attached when a packet exits the
    /// chain (i.e. the wrapped ones: the last `f` middleboxes).
    pub fn wrapped_mboxes(&self) -> Vec<usize> {
        (0..self.n).filter(|&m| self.wraps(m)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_groups() {
        // §5: "if f = 1 then the replica r1 is in the replication groups of
        // middleboxes m1 and mn, and r2 is in the replication groups of m1
        // and m2. The replicas rn and r1 are the head and the tail of mn."
        // (1-based in the paper; 0-based here.)
        let ring = RingMath { n: 5, f: 1 };
        assert_eq!(ring.group(0), vec![0, 1]);
        assert_eq!(ring.group(4), vec![4, 0]);
        assert_eq!(ring.head_of(4), 4);
        assert_eq!(ring.tail_of(4), 0);
        assert!(ring.is_member(0, 4));
        assert!(ring.is_member(0, 0));
        assert!(!ring.is_member(0, 1));
        assert_eq!(ring.replicated_by(0), vec![4]);
        assert_eq!(ring.replicated_by(2), vec![1]);
    }

    #[test]
    fn f2_groups() {
        let ring = RingMath { n: 5, f: 2 };
        assert_eq!(ring.group(3), vec![3, 4, 0]);
        assert_eq!(ring.group(4), vec![4, 0, 1]);
        assert_eq!(ring.tail_of(3), 0);
        assert_eq!(ring.tail_of(4), 1);
        assert_eq!(ring.replicated_by(0), vec![3, 4]);
        assert_eq!(ring.replicated_by(1), vec![4, 0]);
        assert_eq!(ring.tail_for(0), 3);
        assert_eq!(ring.tail_for(1), 4);
        assert_eq!(ring.wrapped_mboxes(), vec![3, 4]);
        assert!(!ring.wraps(2));
    }

    #[test]
    fn tail_for_inverts_tail_of() {
        for n in 2..8 {
            for f in 0..n {
                let ring = RingMath { n, f };
                for m in 0..n {
                    assert_eq!(ring.tail_for(ring.tail_of(m)), m, "n={n} f={f} m={m}");
                }
            }
        }
    }

    #[test]
    fn short_chain_is_padded() {
        let cfg = ChainConfig::new(vec![MbSpec::Monitor { sharing_level: 1 }]).with_f(2);
        let mbs = cfg.effective_middleboxes();
        assert_eq!(mbs.len(), 3);
        assert!(matches!(mbs[1], MbSpec::Passthrough));
        assert!(matches!(mbs[2], MbSpec::Passthrough));
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_names_what_is_wrong() {
        let mon = || vec![MbSpec::Monitor { sharing_level: 1 }];
        assert!(ChainConfig::new(vec![]).validate().is_err());
        let err = ChainConfig::new(mon()).with_workers(0).validate();
        assert!(err.unwrap_err().contains("--workers"));
        let err = ChainConfig::new(mon()).with_partitions(0).validate();
        assert!(err.unwrap_err().contains("partitions"));
    }

    /// Deployment paths that cannot return an error panic with
    /// [`ChainConfig::validate`]'s message.
    #[test]
    #[should_panic(expected = "chain must have middleboxes")]
    fn empty_chain_rejected() {
        crate::testkit::SyncChain::new(ChainConfig::new(vec![]));
    }

    #[test]
    fn fewer_partitions_than_workers_lose_no_update() {
        let specs = vec![MbSpec::Monitor { sharing_level: 4 }; 2];
        let cfg = ChainConfig::new(specs).with_workers(4).with_partitions(2);
        let chain = crate::FtcChain::deploy(cfg);
        let n = 200u16;
        for i in 0..n {
            chain.inject(
                ftc_packet::builder::UdpPacketBuilder::new()
                    .src(std::net::Ipv4Addr::new(10, 0, 0, 1), 1000 + i)
                    .ident(i)
                    .build(),
            );
        }
        let released = chain
            .egress()
            .collect(n.into(), Duration::from_secs(20))
            .len() as u64;
        assert_eq!(released, u64::from(n));
        let key = b"mon:packets:g0";
        for (m, succ) in [(0, 1), (1, 0)] {
            let head = &chain.replicas[m].state.own_store;
            assert_eq!(head.peek_u64(key), Some(released), "m{m}'s head");
            let copy = &chain.replicas[succ].state.replicated[&m].store;
            assert_eq!(copy.peek_u64(key), Some(released), "m{m}'s copy at r{succ}");
        }
    }

    #[test]
    fn fluent_builders_compose() {
        let cfg = ChainConfig::new(vec![MbSpec::Monitor { sharing_level: 1 }; 3])
            .with_f(2)
            .with_workers(4)
            .with_partitions(16)
            .with_nic_queue_depth(128)
            .with_propagate_timeout(Duration::from_millis(2))
            .with_resend_period(Duration::from_millis(20))
            .with_link(Endpoint::in_proc().with_loss(0.01).with_seed(7))
            .with_engine(EngineKind::TwoPl);
        assert_eq!(cfg.engine, EngineKind::TwoPl);
        assert_eq!(cfg.f, 2);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.partitions, 16);
        assert_eq!(cfg.nic_queue_depth, 128);
        assert_eq!(cfg.propagate_timeout, Duration::from_millis(2));
        assert_eq!(cfg.resend_period, Duration::from_millis(20));
        assert_eq!(cfg.link.loss(), 0.01);
        assert_eq!(cfg.link.seed(), 7);
    }

    #[test]
    fn f_zero_has_no_replication() {
        let ring = RingMath { n: 3, f: 0 };
        assert_eq!(ring.group(1), vec![1]);
        assert_eq!(ring.tail_of(1), 1);
        assert!(ring.replicated_by(2).is_empty());
        assert!(ring.wrapped_mboxes().is_empty());
    }
}
