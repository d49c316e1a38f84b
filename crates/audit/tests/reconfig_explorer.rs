//! The protocol model checker's handover gate, replays and deep run: the
//! `f = 1` handover matrix must be violation-free on the shipped
//! replacement procedure, a schedule of every case family re-runs from its
//! witness label, and the deep matrix — the `f = 1` matrix with handovers
//! on a 4-monitor chain under all 720 interleavings — runs when
//! `FTC_EXPLORE_DEEP=1` (the nightly CI job sets it).
//!
//! The `reconfig-sabotage` feature deliberately breaks the handover, so
//! these tests are compiled out under it.

#![cfg(not(feature = "reconfig-sabotage"))]

use ftc_audit::{explore, replay, ProtocolCheckConfig};

/// The `f = 1` gate's handover family: migrate and scale at every position
/// × {quiesced, in flight} × clean or one of 9 participant crashes × all
/// 120 interleavings of the steppable actors — 14,400 schedules, every
/// check on each. The gate's steady-state cases run in
/// `protocol_explorer.rs`.
#[test]
fn pr_gate_reconfig_exploration_is_violation_free() {
    let report = explore(&ProtocolCheckConfig {
        steady_state: false,
        ..ProtocolCheckConfig::f1_gate()
    });
    eprintln!("protocol-check f=1 handover: {}", report.summary());
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
    let handover = report.family("handover");
    assert_eq!(report.interleavings, 120);
    assert_eq!(report.cases, 120);
    assert_eq!(handover.schedules, 120 * 120);
    assert_eq!(report.total().schedules, handover.schedules);
    // 108 of the 120 cases arm a crash, and every armed point is reachable
    // (the executor records a "coverage" witness otherwise).
    assert_eq!(handover.crashes_fired, 108 * 120);
    assert!(
        handover.retries > 0,
        "rolled-back attempts must be exercised and retried: {}",
        report.summary()
    );
    assert!(
        handover.ops_completed > 0 && handover.ops_completed < handover.schedules,
        "both committed and §5.2-recovered outcomes must occur: {}",
        report.summary()
    );
}

/// Witness labels double as replay handles: re-running a schedule of each
/// family from its `n3f1/case/permN` label must reproduce that one
/// (violation-free) schedule.
#[test]
fn schedules_replay_from_their_labels() {
    let cfg = ProtocolCheckConfig::f1_gate();
    for (label, family) in [
        ("n3f1/no-crash/perm7", "no-crash"),
        ("n3f1/crash[r1@PostApplyPreForward#1]/perm42", "step-phase"),
        ("n3f1/kill[r2@quiesced]/perm119", "quiesced"),
        ("n3f1/crash[r0@recovery-fetch]/perm5", "during-recovery"),
        ("n3f1/kill[r1]+source-death[r2]/perm64", "source-death"),
        ("n3f1/migrate@1/quiesced/clean/perm3", "handover"),
        (
            "n3f1/scale@0/in-flight/crash[source@transfer#0]/perm23",
            "handover",
        ),
        (
            "n3f1/scale@1/quiesced/crash[destination@transfer#1]/perm17",
            "handover",
        ),
        (
            "n3f1/migrate@2/in-flight/crash[orchestrator@release#0]/perm100",
            "handover",
        ),
    ] {
        let report = replay(&cfg, label);
        assert_eq!(report.family(family).schedules, 1, "{label}");
        assert_eq!(report.total().schedules, 1, "{label}");
        assert!(
            report.ok(),
            "replayed schedule {label} found witnesses: {:#?}",
            report.witnesses
        );
    }
}

/// The deep matrix. Heavier than the PR gate, so it only runs when
/// `FTC_EXPLORE_DEEP=1`.
#[test]
fn deep_reconfig_exploration_is_violation_free() {
    if std::env::var("FTC_EXPLORE_DEEP")
        .map(|v| v != "1")
        .unwrap_or(true)
    {
        eprintln!("skipping the deep exploration (set FTC_EXPLORE_DEEP=1 to run)");
        return;
    }
    let report = explore(&ProtocolCheckConfig::deep());
    eprintln!("protocol-check deep: {}", report.summary());
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
    assert_eq!(report.interleavings, 720);
    assert!(
        report.family("handover").schedules >= 19_200,
        "deep mode must cover at least the 4-monitor handover matrix: {}",
        report.summary()
    );
}
