//! The reconfiguration model checker's gate tests: the full PR-gate
//! crash-during-reconfiguration matrix (≥ 1000 schedules) must be
//! violation-free on the shipped replacement procedure, witnesses must be
//! replayable from their labels, and the deep matrix runs nightly
//! (opt-in via `FTC_RECONFIG_DEEP=1`).
//!
//! The `reconfig-sabotage` feature deliberately breaks the switch and the
//! transfer, so these positive gates are compiled out under it — the
//! sabotage expectation lives in `reconfig_sabotage.rs`, run as a separate
//! cargo invocation by `check.sh --reconfig-check`.

#![cfg(not(feature = "reconfig-sabotage"))]

use ftc_audit::{explore_reconfig, replay, ReconfigCheckConfig};

/// The PR gate: migrate and scale at every position × every crash variant
/// × {quiesced, in flight} × all 24 interleavings of the steppable actors,
/// checking I1–I6 on each.
#[test]
fn pr_gate_reconfig_exploration_is_violation_free() {
    let cfg = ReconfigCheckConfig::pr_gate();
    let report = explore_reconfig(&cfg);
    eprintln!("reconfig-check gate: {}", report.summary());
    assert!(
        report.ok(),
        "invariant violations on the current implementation:\n{}",
        report
            .witnesses
            .iter()
            .map(|w| format!("  {w}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.schedules >= 1000,
        "the PR gate must explore at least 1000 distinct schedules: {}",
        report.summary()
    );
    assert_eq!(report.schedules, report.crash_cases * report.interleavings);
    assert_eq!(report.interleavings, 24);
    assert_eq!(report.crash_cases, 120);
    // 108 of the 120 cases arm a crash, and every armed point is reachable
    // (the executor records a "coverage" witness otherwise, failing ok()).
    assert!(
        report.crashes_fired > report.schedules / 2,
        "most schedules must execute their participant crash: {}",
        report.summary()
    );
    assert!(
        report.retries > 0,
        "rolled-back attempts must be exercised and retried: {}",
        report.summary()
    );
    assert!(
        report.ops_completed > 0 && report.ops_completed < report.schedules,
        "both committed and §5.2-recovered outcomes must occur: {}",
        report.summary()
    );
}

/// Witness labels double as replay handles: re-running any schedule from
/// its `case/permN` label must reproduce the same (violation-free) run.
#[test]
fn schedules_replay_from_their_labels() {
    let cfg = ReconfigCheckConfig::pr_gate();
    for label in [
        "migrate@1/quiesced/clean/perm3",
        "scale@1/quiesced/crash[destination@transfer#1]/perm17",
        "migrate@2/in-flight/crash[orchestrator@release#0]/perm0",
        "scale@0/in-flight/crash[source@transfer#0]/perm23",
    ] {
        let report = replay(&cfg, label);
        assert_eq!(report.schedules, 1, "{label}");
        assert!(
            report.ok(),
            "replayed schedule {label} found witnesses: {:#?}",
            report.witnesses
        );
    }
}

/// The deep matrix: the gate's matrix on a 4-monitor chain, under all 120
/// interleavings of its five steppable actors. Heavier than the PR gate,
/// so it only runs when `FTC_RECONFIG_DEEP=1` (the nightly CI job sets
/// it).
#[test]
fn deep_reconfig_exploration_is_violation_free() {
    if std::env::var("FTC_RECONFIG_DEEP")
        .map(|v| v != "1")
        .unwrap_or(true)
    {
        eprintln!("skipping deep reconfig exploration (set FTC_RECONFIG_DEEP=1 to run)");
        return;
    }
    let cfg = ReconfigCheckConfig::nightly_deep();
    let report = explore_reconfig(&cfg);
    eprintln!("reconfig-check deep: {}", report.summary());
    assert!(
        report.ok(),
        "invariant violations in the deep matrix:\n{}",
        report
            .witnesses
            .iter()
            .map(|w| format!("  {w}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.schedules > 2880,
        "deep mode must widen the matrix: {}",
        report.summary()
    );
}
