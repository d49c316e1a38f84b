//! Failure injection *while traffic is flowing* — the hardest recovery
//! scenario: in-flight packets are lost at the dead server, but every
//! packet that was already **released** must have its updates recovered,
//! and the chain must resume afterwards.
//!
//! Kill/recover execution goes through the orchestrator's
//! [`ScenarioChain`] impl, as in `tests/failover.rs`; the continuous
//! generator and time-based draining stay local to these tests.

use ftc::core::testkit::{scenario_packet, ScenarioChain, SETTLE_GRACE};
use ftc::prelude::*;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn pkt(i: u32) -> Packet {
    UdpPacketBuilder::new()
        .src(Ipv4Addr::new(10, 8, 0, 1), 1000 + (i % 32) as u16)
        .dst(Ipv4Addr::new(10, 90, 0, 1), 80)
        .ident(i as u16)
        .build()
}

#[test]
fn kill_and_recover_under_continuous_load() {
    for victim in 0..3usize {
        let chain = FtcChain::deploy(ChainConfig::ch_n(3, 1).with_f(1));
        let mut o = Orchestrator::new(chain, OrchestratorConfig::default());

        // A generator thread keeps injecting throughout the failure.
        let stop = Arc::new(AtomicBool::new(false));
        let ingress = Arc::clone(&o.chain.ingress);
        let gen_stop = Arc::clone(&stop);
        let generator = std::thread::spawn(move || {
            let mut sent = 0u32;
            while !gen_stop.load(Ordering::Relaxed) {
                let _ = ingress.lock().send(pkt(sent).into_bytes());
                sent += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
            sent
        });

        // Let traffic flow, then fail-stop the victim mid-stream. The
        // drain is time-based (traffic never quiesces under the
        // generator), so ScenarioChain::settle does not apply here.
        let t_warm = std::time::Instant::now();
        let mut released_before_kill = 0u64;
        while t_warm.elapsed() < Duration::from_millis(300) {
            if o.chain.egress().recv(Duration::from_millis(2)).is_some() {
                released_before_kill += 1;
            }
        }
        assert!(
            released_before_kill > 0,
            "warm traffic must flow (victim {victim})"
        );

        // Fail-stop + recovery (packets in flight during the outage are
        // allowed to be lost — fail-stop semantics).
        let reports = o
            .kill_and_recover(&[victim], RegionId(0))
            .expect("recovery");
        assert!(reports[0].total() > Duration::ZERO);

        // Post-recovery: traffic must flow again.
        let t_post = std::time::Instant::now();
        let mut post = 0u64;
        while t_post.elapsed() < Duration::from_secs(10) && post < 50 {
            if o.chain.egress().recv(Duration::from_millis(5)).is_some() {
                post += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let sent = generator.join().unwrap();
        assert!(
            post >= 50,
            "victim {victim}: traffic must resume after recovery ({post} released post-kill, {sent} sent)"
        );

        // The recovered replica's own store must cover at least everything
        // released before the kill (strong consistency for released
        // packets; in-flight ones may exceed this).
        let own = o.counted(victim);
        assert!(
            own >= released_before_kill,
            "victim {victim}: recovered count {own} must cover the {released_before_kill} released"
        );
    }
}

#[test]
fn double_failure_under_load_with_f2() {
    let chain = FtcChain::deploy(ChainConfig::ch_n(4, 1).with_f(2));
    let mut o = Orchestrator::new(chain, OrchestratorConfig::default());
    let inject = |o: &mut Orchestrator, range: std::ops::Range<u32>| {
        for i in range {
            o.inject(scenario_packet(i));
        }
    };

    inject(&mut o, 0..100);
    assert_eq!(o.settle(SETTLE_GRACE), 100);

    // Two adjacent failures while more traffic is in flight: inject, then
    // kill both before either recovery starts.
    inject(&mut o, 100..140);
    o.kill_and_recover(&[1, 2], RegionId(0))
        .expect("recovery after simultaneous failures");

    inject(&mut o, 140..180);
    let post = o.settle(SETTLE_GRACE);
    assert!(
        post >= 40,
        "chain must survive a double failure under load ({post})"
    );
    for victim in [1usize, 2] {
        let own = o.counted(victim);
        assert!(
            own >= 100,
            "r{victim} must retain at least the quiesced prefix: {own}"
        );
    }
}

/// Shutdown latency: the failure mode that times a benchmark run out. One
/// `benchmark/run.sh` run joins every chain thread 37 times (7 set-ups, 30
/// kill/recover cycles); a loop that blocks without re-checking its
/// liveness token turns each of those into a stall. Every position is
/// killed under 10 kpps of load, once with the rest of the chain running
/// and once with it quiesced (loops parked in their pause wait, frames
/// backing up behind them).
#[test]
fn kill_and_drop_return_promptly_under_load() {
    /// One attempt: `(kill, drop)` durations.
    fn attempt(victim: usize, quiesce_others: bool) -> (Duration, Duration) {
        let mut chain = FtcChain::deploy(ChainConfig::ch_n(3, 1).with_f(1));
        let stop = Arc::new(AtomicBool::new(false));
        let ingress = Arc::clone(&chain.ingress);
        let gen_stop = Arc::clone(&stop);
        let generator = std::thread::spawn(move || {
            // Open loop at 10 kpps: a packet is due every 100 µs and late
            // ones are sent at once.
            let start = std::time::Instant::now();
            let mut sent = 0u32;
            while !gen_stop.load(Ordering::Relaxed) {
                let due = (start.elapsed().as_micros() / 100) as u32;
                while sent < due {
                    let _ = ingress.lock().send(pkt(sent).into_bytes());
                    sent += 1;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        assert!(
            chain.egress().recv(Duration::from_secs(10)).is_some(),
            "traffic must flow before the kill"
        );
        std::thread::sleep(Duration::from_millis(50));
        if quiesce_others {
            for i in (0..3).filter(|&i| i != victim) {
                chain.replicas[i].state.pause();
            }
        }
        let t = std::time::Instant::now();
        chain.kill(victim);
        let kill = t.elapsed();
        let t = std::time::Instant::now();
        drop(chain);
        let dropped = t.elapsed();
        stop.store(true, Ordering::Relaxed);
        generator.join().unwrap();
        (kill, dropped)
    }

    for victim in 0..3usize {
        for quiesce_others in [false, true] {
            // A loop that is slow to die is slow every time; a machine
            // hiccup is not. The best of three attempts must meet the bound.
            let best = (0..3)
                .map(|_| attempt(victim, quiesce_others))
                .find(|&(kill, dropped)| {
                    kill < Duration::from_millis(50) && dropped < Duration::from_millis(100)
                });
            assert!(
                best.is_some(),
                "victim {victim}, others quiesced: {quiesce_others}: kill must return \
                 within 50 ms and drop within 100 ms"
            );
        }
    }
}
