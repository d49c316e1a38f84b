//! Failure-injection integration tests: the paper's core guarantee is that
//! a chain tolerates `f` fail-stop replica failures with correct recovery —
//! "the middlebox behavior after a failure recovery is consistent with the
//! behavior prior to the failure" (§3.1).
//!
//! The scenarios are written against [`ScenarioChain`], which the threaded
//! orchestrator and the stepped `SyncChain` both implement, and both
//! replace instances through the one procedure in `ftc_core::replace`.
//! The lifecycle scenario runs verbatim on both.

use ftc::core::testkit::{scenario_packet, CrashSchedule, ScenarioChain, SyncChain, SETTLE_GRACE};
use ftc::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

fn pkt(src_port: u16, ident: u16) -> Packet {
    UdpPacketBuilder::new()
        .src(Ipv4Addr::new(10, 3, 0, 1), src_port)
        .dst(Ipv4Addr::new(10, 88, 0, 1), 443)
        .ident(ident)
        .build()
}

fn monitors(n: usize) -> Vec<MbSpec> {
    vec![MbSpec::Monitor { sharing_level: 1 }; n]
}

fn orch(n: usize, f: usize) -> Orchestrator {
    Orchestrator::new(
        FtcChain::deploy(ChainConfig::new(monitors(n)).with_f(f)),
        OrchestratorConfig::default(),
    )
}

/// Injects `range`'s scenario packets.
fn inject(chain: &mut dyn ScenarioChain, range: std::ops::Range<u32>) {
    for i in range {
        chain.inject(scenario_packet(i));
    }
}

/// Drives traffic, kills `victim`, recovers, then verifies that every
/// *released* packet's state update survived — the strong-consistency
/// guarantee (§3.1). The whole scenario is one [`CrashSchedule`].
fn kill_and_verify(mut o: Orchestrator, victim: usize) {
    let outcome = CrashSchedule::new()
        .label(format!("kill r{victim} quiesced"))
        .warm(60)
        .kill(victim)
        .post(40)
        .run(&mut o);
    assert_eq!(outcome.released_before, 60);
    assert_eq!(
        outcome.released_after, 40,
        "post-recovery traffic must flow"
    );
    assert!(outcome.reports[0].bytes_transferred > 0 || victim_padded(&o, victim));
    // Every released update survived the failure: the counter resumes
    // exactly (60 pre-crash updates recovered + 40 post-crash).
    assert_eq!(
        o.counted(victim),
        100,
        "r{victim}: released updates must survive the failure"
    );
}

fn victim_padded(o: &Orchestrator, victim: usize) -> bool {
    matches!(
        o.chain.cfg.effective_middleboxes()[victim],
        MbSpec::Passthrough
    )
}

#[test]
fn head_position_failure_recovers() {
    kill_and_verify(orch(3, 1), 0);
}

#[test]
fn middle_position_failure_recovers() {
    kill_and_verify(orch(3, 1), 1);
}

#[test]
fn tail_position_failure_recovers() {
    kill_and_verify(orch(3, 1), 2);
}

#[test]
fn every_position_of_a_5_chain_recovers() {
    for victim in 0..5 {
        kill_and_verify(orch(5, 1), victim);
    }
}

#[test]
fn f2_survives_two_simultaneous_failures() {
    let mut o = orch(4, 2);
    inject(&mut o, 0..50);
    assert_eq!(o.settle(SETTLE_GRACE), 50);

    // Kill two adjacent replicas at once: both die before either recovery
    // starts.
    o.kill_and_recover(&[1, 2], RegionId(0))
        .expect("recovery after simultaneous failures");

    for victim in [1usize, 2] {
        assert_eq!(
            o.counted(victim),
            50,
            "r{victim} state after double failure"
        );
    }
    inject(&mut o, 50..80);
    assert_eq!(o.settle(SETTLE_GRACE), 30);
}

#[test]
fn sequential_failures_of_every_position() {
    // Kill r0, recover; then r1; then r2 — state accumulates correctly
    // through repeated recoveries. One schedule per round, same chain.
    let mut o = orch(3, 1);
    let mut expected = 0u64;
    for round in 0..3usize {
        let outcome = CrashSchedule::new()
            .label(format!("round {round}: kill r{round}"))
            .warm(20)
            .kill(round)
            .run(&mut o);
        expected += 20;
        assert_eq!(outcome.released_before, 20, "round {round}");
        assert_eq!(o.counted(round), expected, "after recovering r{round}");
    }
}

#[test]
fn detector_driven_recovery_loop() {
    let mut o = orch(3, 1);
    inject(&mut o, 0..30);
    assert_eq!(o.settle(SETTLE_GRACE), 30);
    o.chain.kill(1);
    // Let the monitor loop find and repair it (no explicit recover call —
    // this path exercises the detector, not the scenario driver).
    let mut recovered = false;
    for _ in 0..10 {
        let results = o.monitor_round();
        if results.iter().any(|(idx, r)| *idx == 1 && r.is_ok()) {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "monitor loop must detect and repair the failure");
    assert_eq!(o.counted(1), 30);
}

#[test]
fn recovery_across_wan_regions_is_rtt_dominated() {
    // Deploy across regions; recovery of the remote replica must cost at
    // least the WAN round trip, like Fig. 13.
    let topo = Topology::savi_like().scaled(0.2);
    let regions = vec![RegionId(0), RegionId(2), RegionId(1)];
    let chain = FtcChain::deploy_in(
        ChainConfig::new(monitors(3)).with_f(1),
        topo.clone(),
        regions.clone(),
    );
    let mut o = Orchestrator::new(chain, OrchestratorConfig::default());
    inject(&mut o, 0..20);
    assert_eq!(o.settle(SETTLE_GRACE), 20);

    // Kill the replica in the remote region and recover it there.
    let reports = o.kill_and_recover(&[1], RegionId(2)).expect("recovery");
    let report = &reports[0];
    // Initialization pays at least orchestrator→remote RTT.
    assert!(report.prepare >= topo.rtt(RegionId(0), RegionId(2)));
    // State recovery pays at least one neighbor RTT (parallel fetches).
    let min_fetch = topo
        .rtt(RegionId(2), RegionId(1))
        .min(topo.rtt(RegionId(2), RegionId(0)));
    assert!(
        report.transfer >= min_fetch,
        "state recovery {:?} must be WAN-dominated (≥ {:?})",
        report.transfer,
        min_fetch
    );
}

#[test]
fn nf_baseline_loses_everything_ftc_does_not() {
    use ftc::baselines::NfChain;
    // The motivating comparison: same failure, NF loses state forever.
    let mut nf = NfChain::deploy(ChainConfig::new(monitors(2)));
    for i in 0..10 {
        nf.inject(pkt(8000 + i, i));
    }
    assert_eq!(nf.egress().collect(10, Duration::from_secs(10)).len(), 10);
    nf.kill(0);
    nf.inject(pkt(9000, 0));
    assert!(nf.egress().recv(Duration::from_millis(200)).is_none());

    let mut o = orch(2, 1);
    let outcome = CrashSchedule::new()
        .label("nf comparison: kill r0")
        .warm(10)
        .kill(0)
        .run(&mut o);
    assert_eq!(outcome.released_before, 10);
    assert_eq!(o.counted(0), 10, "FTC keeps the state NF lost");
}

/// The lifecycle scenario: traffic, migrate(1), traffic, kill + recover(1),
/// traffic, scale(1), traffic — migrate → update → evacuate with
/// forwarding checked between the steps. Every step must deliver its
/// traffic exactly, and every Monitor must have counted exactly the
/// packets released. The body runs verbatim on both drivers.
fn lifecycle(chain: &mut dyn ScenarioChain) {
    let mut released = 0u64;
    let mut traffic = |chain: &mut dyn ScenarioChain, after: &str| {
        inject(chain, released as u32..released as u32 + 20);
        assert_eq!(chain.settle(SETTLE_GRACE), 20, "delivery after {after}");
        released += 20;
        for i in 0..3 {
            assert_eq!(chain.counted(i), released, "r{i}'s counter after {after}");
        }
    };
    traffic(chain, "warm-up");
    chain.migrate(1, RegionId(0)).expect("migrate");
    traffic(chain, "migrate");
    chain
        .kill_and_recover(&[1], RegionId(0))
        .expect("kill + recover");
    traffic(chain, "kill + recover");
    chain.scale(1, 2).expect("scale");
    traffic(chain, "scale");
}

#[test]
fn lifecycle_on_the_stepped_chain() {
    lifecycle(&mut SyncChain::new(ChainConfig::new(monitors(3)).with_f(1)));
}

#[test]
fn lifecycle_on_the_threaded_chain() {
    lifecycle(&mut orch(3, 1));
}

/// The `i`-th packet of the per-kind test: eight sources on 64 ports
/// each, five destination ports (port 81 is firewalled, a source seen on
/// all five is an IDS scanner), every ninth payload an IDS signature.
fn mixed_packet(i: u32) -> Packet {
    UdpPacketBuilder::new()
        .src(
            Ipv4Addr::new(10, 5, 0, (i % 8) as u8),
            1000 + (i % 64) as u16,
        )
        .dst(Ipv4Addr::new(10, 88, 0, 1), 80 + (i % 5) as u16)
        .payload_fill(if i.is_multiple_of(9) { 0xEE } else { 0 })
        .ident(i as u16)
        .build()
}

/// Every middlebox kind's state survives replacement, checked by running
/// it: at position 0 of a two-position f = 1 chain, traffic → kill +
/// recover → traffic → migrate → traffic. Each replacement installs a
/// new instance whose own store equals the outgoing one's, and every
/// phase releases the same bytes as a twin chain that is never replaced.
#[test]
fn every_middlebox_kinds_state_survives_replacement() {
    // Not a multiple of the balancer's three backends: a round-robin
    // cursor that restarted on the new instance would pick other backends.
    const PHASE: u32 = 25;
    let ext = Ipv4Addr::new(198, 51, 100, 1);
    let kinds = [
        MbSpec::Monitor { sharing_level: 1 },
        MbSpec::Gen { state_size: 32 },
        MbSpec::MazuNat { external_ip: ext },
        MbSpec::SimpleNat { external_ip: ext },
        MbSpec::Ids {
            scan_threshold: 4,
            signatures: vec![vec![0xEE; 4]],
        },
        MbSpec::LoadBalancer {
            backends: (1..=3).map(|h| Ipv4Addr::new(10, 1, 0, h)).collect(),
        },
        MbSpec::Firewall {
            rules: vec![ftc::mbox::FirewallRule::deny_dst_ports(81..=81)],
        },
        MbSpec::Passthrough,
    ];
    for spec in kinds {
        let name = spec.name();
        let cfg = || ChainConfig::new(vec![spec.clone(), MbSpec::Passthrough]).with_f(1);
        let mut chain = SyncChain::new(cfg());
        let twin = SyncChain::new(cfg());
        let mut next = 0u32;
        let mut traffic = |chain: &SyncChain, after: &str| {
            let run = |c: &SyncChain| {
                (next..next + PHASE).for_each(|i| c.inject(mixed_packet(i)));
                c.run_to_quiescence(10_000);
                c.egress()
                    .drain()
                    .iter()
                    .map(|p| p.bytes().to_vec())
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(chain), run(&twin), "{name}: egress after {after}");
            next += PHASE;
        };
        traffic(&chain, "warm-up");
        for what in ["kill + recover", "migrate"] {
            let before = chain.replicas[0].own_store.snapshot();
            let has_state = before.maps.iter().any(|m| !m.is_empty());
            assert_eq!(has_state, spec.build().is_stateful(), "{name}");
            let outgoing = Arc::clone(&chain.replicas[0]);
            if what == "migrate" {
                chain.migrate(0, RegionId(0)).expect(what);
            } else {
                chain.kill_and_recover(&[0], RegionId(0)).expect(what);
            }
            assert!(!Arc::ptr_eq(&outgoing, &chain.replicas[0]), "{name}");
            let after = chain.replicas[0].own_store.snapshot();
            assert_eq!(after, before, "{name}: own store after {what}");
            traffic(&chain, what);
        }
    }
}
