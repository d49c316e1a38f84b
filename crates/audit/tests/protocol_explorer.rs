//! The protocol model checker's gate tests: the exhaustive `f = 1`
//! steady-state matrix and the bounded `f = 2` matrix must be
//! violation-free on the real implementation, and a sabotaged buffer must
//! yield an I1 witness that replays. The `f = 1` handover matrix is gated
//! in `reconfig_explorer.rs`.
//!
//! The `reconfig-sabotage` feature deliberately breaks the handover, so
//! these gates are compiled out under it — its expectation lives in
//! `reconfig_sabotage.rs`, run as a separate cargo invocation by
//! `check.sh --explore`.

#![cfg(not(feature = "reconfig-sabotage"))]

use ftc_audit::{explore, replay, ProtocolCheckConfig, ProtocolReport};

fn assert_clean(report: &ProtocolReport) {
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
}

/// Exhaustively explores the steady-state families of the 3-middlebox
/// `f = 1` chain: all 120 interleavings of the five steppable actors × 28
/// cases (every victim × every step phase × two triggers, quiesced kills,
/// recovery aborts, source-death retries), every check on every schedule.
/// The gate's 120 handover cases run in `reconfig_explorer.rs`.
#[test]
fn f1_exhaustive_exploration_is_violation_free() {
    let report = explore(&ProtocolCheckConfig {
        handover: false,
        ..ProtocolCheckConfig::f1_gate()
    });
    eprintln!("protocol-check f=1: {}", report.summary());
    assert_clean(&report);
    let total = report.total();
    assert_eq!(report.interleavings, 120);
    assert_eq!(report.cases, 28);
    assert_eq!(total.schedules, report.cases * report.interleavings);
    assert_eq!(report.family("handover").schedules, 0);
    assert!(
        total.crashes_fired > total.schedules / 2,
        "most schedules must execute their crash: {}",
        report.summary()
    );
    assert!(total.steps > total.schedules, "{}", report.summary());
    assert!(total.retries > 0, "{}", report.summary());
}

/// The bounded `f = 2` matrix: 4 middleboxes, 48 stride-sampled
/// interleavings, with the double-failure, fallback-fetch and
/// recovery-abort cases.
#[test]
fn f2_exploration_is_violation_free() {
    let report = explore(&ProtocolCheckConfig::f2_gate());
    eprintln!("protocol-check f=2: {}", report.summary());
    assert_clean(&report);
    assert_eq!(report.total().schedules, 14 * 48);
    assert!(report.total().crashes_fired > 0, "{}", report.summary());
    assert_eq!(report.family("double-kill").schedules, 48);
}

/// Negative fixture: a buffer that releases one commit-vector entry early
/// (`max[p] ≥ seq` instead of the strict `max[p] > seq`) frees packets
/// whose wrapped-group update has not yet completed the feedback loop —
/// the checker must produce an I1 witness naming the lagging replica, and
/// its label must replay to the same violation.
#[test]
fn sabotaged_buffer_produces_i1_witness() {
    let cfg = ProtocolCheckConfig {
        sabotage_buffer: true,
        perm_limit: Some(6),
        ..ProtocolCheckConfig::f1_gate()
    };
    let report = explore(&cfg);
    eprintln!("protocol-check sabotage: {}", report.summary());
    assert!(
        !report.ok(),
        "the sabotaged release rule must be caught: {}",
        report.summary()
    );
    let i1 = report
        .witnesses
        .iter()
        .find(|w| w.invariant == "I1")
        .expect("an I1 witness");
    assert!(
        i1.detail.contains("fewer than f+1 live copies"),
        "witness must explain the violation: {i1}"
    );
    let again = replay(&cfg, &i1.schedule);
    assert!(
        again.witnesses.iter().any(|w| w.invariant == "I1"),
        "replayed schedule {} lost the I1 witness: {:#?}",
        i1.schedule,
        again.witnesses
    );
}
