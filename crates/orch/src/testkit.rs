//! The threaded orchestrator as a [`ScenarioChain`].
//!
//! With this impl one failure scenario body runs verbatim on the stepped
//! [`SyncChain`](ftc_core::testkit::SyncChain) and on a real (threaded)
//! [`ftc_core::FtcChain`] driven by the [`Orchestrator`]: the repo-level
//! failure tests (`tests/failover.rs`, `tests/failure_under_load.rs`) and
//! [`CrashSchedule`](ftc_core::testkit::CrashSchedule) run on either.

use crate::orchestrator::Orchestrator;
use ftc_core::replace::{Plan, RecoveryError, ReplaceReport};
use ftc_core::replica::ReplicaState;
use ftc_core::testkit::ScenarioChain;
use ftc_net::topology::RegionId;
use ftc_packet::Packet;
use std::time::Duration;

impl ScenarioChain for Orchestrator {
    fn inject(&mut self, pkt: Packet) {
        self.chain.inject(pkt);
    }

    fn settle(&mut self, grace: Duration) -> usize {
        let egress = self.chain.egress();
        let mut released = 0;
        while egress.recv(grace).is_some() {
            released += 1;
        }
        // Egress silence only proves the packets released; give the ring
        // one more beat to finish replicating the tail group's updates
        // before a crash is allowed to fire.
        std::thread::sleep(Duration::from_millis(100));
        released
    }

    fn kill_and_recover(
        &mut self,
        victims: &[usize],
        region: RegionId,
    ) -> Result<Vec<ReplaceReport>, RecoveryError> {
        for &v in victims {
            self.chain.kill(v);
        }
        victims
            .iter()
            .map(|&v| self.replace(v, region, Plan::Recover))
            .collect()
    }

    fn migrate(&mut self, idx: usize, region: RegionId) -> Result<ReplaceReport, RecoveryError> {
        self.replace(idx, region, Plan::Migrate)
    }

    fn scale(&mut self, idx: usize, workers: usize) -> Result<ReplaceReport, RecoveryError> {
        let region = self.chain.replicas[idx].region;
        self.replace(idx, region, Plan::Scale { workers })
    }

    fn replica(&self, idx: usize) -> &ReplicaState {
        &self.chain.replicas[idx].state
    }
}
