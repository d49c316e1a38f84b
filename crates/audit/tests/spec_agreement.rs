//! Static/dynamic agreement: a randomly generated chain deployment either
//! passes the static verifier ([`ftc_mbox::verify_deploy_spec`]) or the
//! dynamic checker finds a violation on at least one schedule — and never
//! both. Structurally infeasible topologies cannot be built as real chains
//! (the constructor pads and asserts), so the dynamic side explores them on
//! [`ftc_audit::check_abstract_deploy`]'s bounded abstract ring model;
//! feasible ones additionally run clean on the concrete model checker.

use ftc_audit::{check_abstract_deploy, explore, ProtocolCheckConfig};
use ftc_mbox::{verify_deploy_spec, DeploySpec, MbSpec};
use proptest::prelude::*;

fn arb_mbspec() -> impl Strategy<Value = MbSpec> {
    prop_oneof![
        (1usize..4).prop_map(|sharing_level| MbSpec::Monitor { sharing_level }),
        (8usize..128).prop_map(|state_size| MbSpec::Gen { state_size }),
        Just(MbSpec::Passthrough),
        Just(MbSpec::Firewall { rules: vec![] }),
    ]
}

fn arb_raw_spec() -> impl Strategy<Value = DeploySpec> {
    (
        proptest::collection::vec(arb_mbspec(), 0..4),
        0usize..3,
        0usize..6,
        0usize..6,
        1usize..5,
        1usize..5,
    )
        .prop_map(
            |(middleboxes, f, ring_len, buffer_pos, partitions, workers)| DeploySpec {
                middleboxes,
                f,
                ring_len,
                buffer_pos,
                partitions,
                workers,
            },
        )
}

proptest! {
    /// The agreement property, in both directions: statically rejected
    /// specs have a concrete dynamic counterexample schedule; statically
    /// accepted specs survive the bounded dynamic exploration.
    #[test]
    fn static_and_dynamic_verdicts_agree(spec in arb_raw_spec()) {
        let statically_ok = verify_deploy_spec(&spec).is_ok();
        let witnesses = check_abstract_deploy(&spec);
        prop_assert_eq!(
            statically_ok,
            witnesses.is_empty(),
            "disagreement on {:?}: static ok = {}, dynamic found {:?}",
            spec, statically_ok, witnesses
        );
    }

    /// `DeploySpec::feasible` always constructs deployments both checkers
    /// accept.
    #[test]
    fn feasible_constructor_satisfies_both_checkers(
        mbs in proptest::collection::vec(arb_mbspec(), 1..4),
        f in 0usize..3,
    ) {
        let spec = DeploySpec::feasible(mbs, f);
        prop_assert!(verify_deploy_spec(&spec).is_ok(), "{spec:?}");
        prop_assert!(check_abstract_deploy(&spec).is_empty(), "{spec:?}");
    }
}

/// Every canonical infeasible shape maps to the documented dynamic failure
/// class, with a concrete schedule in the witness.
#[test]
fn infeasible_shapes_map_to_expected_dynamic_failures() {
    let mon = || MbSpec::Monitor { sharing_level: 1 };
    let cases: [(DeploySpec, &str); 3] = [
        (
            // Ring shorter than f + 1.
            DeploySpec {
                middleboxes: vec![mon()],
                f: 2,
                ring_len: 1,
                buffer_pos: 0,
                partitions: 8,
                workers: 1,
            },
            "under-replication",
        ),
        (
            // More middleboxes than ring positions.
            DeploySpec {
                middleboxes: vec![mon(); 4],
                f: 1,
                ring_len: 2,
                buffer_pos: 1,
                partitions: 8,
                workers: 1,
            },
            "no-replica-slot",
        ),
        (
            // Buffer attached before the last tail.
            DeploySpec {
                middleboxes: vec![mon(); 3],
                f: 1,
                ring_len: 3,
                buffer_pos: 1,
                partitions: 8,
                workers: 1,
            },
            "processing-gap",
        ),
    ];
    for (spec, code) in &cases {
        assert!(
            verify_deploy_spec(spec).is_err(),
            "fixture must be statically infeasible: {spec:?}"
        );
        let witnesses = check_abstract_deploy(spec);
        assert!(
            witnesses.iter().any(|w| w.code == *code),
            "expected a `{code}` witness for {spec:?}, got {witnesses:?}"
        );
    }
}

/// Statically accepted, buildable chains also run clean on the *concrete*
/// model checker (a small schedule matrix keeps this fast).
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
        let spec = DeploySpec::feasible(specs.clone(), 1);
        assert!(verify_deploy_spec(&spec).is_ok());
        let cfg = ProtocolCheckConfig {
            specs,
            f: 1,
            warm: 2,
            post: 1,
            triggers: 1,
            perm_limit: Some(4),
            max_steps: 4000,
            sabotage_buffer: false,
        };
        let report = explore(&cfg);
        assert!(
            report.ok(),
            "statically accepted chain violated invariants: {}\n{:#?}",
            report.summary(),
            report.witnesses
        );
    }
}
