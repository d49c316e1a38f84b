//! Chains the configuration check accepts run clean on the concrete
//! protocol model checker: [`ftc_core::ChainConfig::validate`] admitting a
//! chain means bounded failure schedules on the real protocol code find no
//! invariant violation.

use ftc_audit::{explore, ProtocolCheckConfig};
use ftc_core::ChainConfig;
use ftc_mbox::MbSpec;

/// Accepted, buildable chains also run clean on the *concrete* model
/// checker, every case family included (a small schedule matrix keeps
/// this fast).
#[test]
fn accepted_chains_survive_concrete_exploration() {
    let chains: [Vec<MbSpec>; 2] = [
        vec![MbSpec::Monitor { sharing_level: 1 }; 2],
        vec![
            MbSpec::Gen { state_size: 32 },
            MbSpec::Monitor { sharing_level: 1 },
        ],
    ];
    for specs in chains {
        let chain = ChainConfig {
            f: 1,
            ..ChainConfig::new(specs.clone())
        };
        assert!(chain.validate().is_ok(), "{specs:?} must be accepted");
        let cfg = ProtocolCheckConfig {
            specs,
            perm_limit: Some(6),
            ..ProtocolCheckConfig::f1_gate()
        };
        let report = explore(&cfg);
        assert!(
            report.ok(),
            "accepted chain violated invariants: {}\n{:#?}",
            report.summary(),
            report.witnesses
        );
    }
}
