//! Sabotage self-test: with `--features reconfig-sabotage` the replacement
//! procedure carries two faults. The switch resumes the outgoing instance
//! instead of killing it, so two instances serve the position (I5 must
//! fire); and the own group is restored from the outgoing instance's own
//! store, which is ahead of its f + 1 copies when packets are in flight
//! (I6 must fire on an in-flight schedule). Each witness label must replay
//! to the same violation. Run via `check.sh --explore` as a separate cargo
//! invocation — never alongside the default tests (cargo feature
//! unification would poison every other ftc-core replacement test).

#![cfg(feature = "reconfig-sabotage")]

use ftc_audit::{explore, replay, ProtocolCheckConfig};

#[test]
fn sabotage_trips_i5_and_i6_with_replayable_witnesses() {
    let cfg = ProtocolCheckConfig {
        perm_limit: Some(2),
        ..ProtocolCheckConfig::f1_gate()
    };
    let report = explore(&cfg);
    eprintln!("protocol-check reconfig sabotage: {}", report.summary());
    assert!(
        !report.ok(),
        "checker failed to catch the sabotage: {}",
        report.summary()
    );
    for (invariant, names) in [("I5", "alive, unpaused instances"), ("I6", "f+1 copies")] {
        let w = report
            .witnesses
            .iter()
            .find(|w| w.invariant == invariant && w.detail.contains(names))
            .unwrap_or_else(|| {
                panic!(
                    "expected an {invariant} witness, got: {:#?}",
                    report.witnesses
                )
            });
        if invariant == "I6" {
            assert!(
                w.schedule.contains("/in-flight/"),
                "I6 fires on in-flight schedules: {w}"
            );
        }
        // The label replays to the same violation.
        let again = replay(&cfg, &w.schedule);
        assert!(
            again.witnesses.iter().any(|r| r.invariant == invariant),
            "replayed schedule {} lost the {invariant} witness: {:#?}",
            w.schedule,
            again.witnesses
        );
    }
}
