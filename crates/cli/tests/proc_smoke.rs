//! Multi-process smoke test: the Table-2 reference chain deployed as OS
//! processes (one `ftc node` per replica, Unix sockets in between), driven
//! end to end, then subjected to a replica kill and the three-step
//! recovery. This is the tier-1 proof that the socket transport carries
//! the full FTC protocol — data plane, piggyback replication, control
//! plane and failover — across real process boundaries.

use ftc::orch::{ProcChain, ProcConfig};
use ftc::prelude::*;
use ftc::traffic::WorkloadConfig;
use std::net::Ipv4Addr;
use std::time::Duration;

fn pkt(src_port: u16, ident: u16) -> Packet {
    UdpPacketBuilder::new()
        .src(Ipv4Addr::new(10, 0, 0, 5), src_port)
        .dst(Ipv4Addr::new(10, 77, 0, 1), 80)
        .ident(ident)
        .build()
}

/// Injects `idents` packets of flow `src_port` and returns the egressed
/// packets' (src_ip, src_port) after both NATs.
fn drive(chain: &ProcChain, src_port: u16, idents: std::ops::Range<u16>) -> Vec<(Ipv4Addr, u16)> {
    let n = idents.len();
    for i in idents {
        chain.inject(pkt(src_port, i));
    }
    let got = chain.egress().collect(n, Duration::from_secs(60));
    got.iter()
        .map(|p| {
            let k = p.flow_key().unwrap();
            (k.src_ip, k.src_port)
        })
        .collect()
}

#[test]
fn table2_chain_as_processes_survives_replica_kill() {
    let dir = std::env::temp_dir().join(format!("ftc-proc-smoke-{}", std::process::id()));
    let chain = ProcChain::deploy(ProcConfig {
        chain: "mazu_nat(ext=203.0.113.2) -> mazu_nat(ext=203.0.113.3)".to_string(),
        f: 1,
        workers: 1,
        dir,
        exe: std::path::PathBuf::from(env!("CARGO_BIN_EXE_ftc")),
    })
    .expect("multi-process deploy");
    assert_eq!(chain.len(), 2, "f = 1 over two middleboxes: two processes");
    assert!(chain.is_alive(0) && chain.is_alive(1));

    // Warm traffic: one flow through both NATs. The egress source must be
    // the second NAT's external IP, with a stable allocated port.
    let before = drive(&chain, 4321, 0..30);
    assert_eq!(before.len(), 30, "all warm packets must egress");
    let ext = Ipv4Addr::new(203, 0, 113, 3);
    assert!(
        before.iter().all(|(ip, _)| *ip == ext),
        "NAT must rewrite the source: {before:?}"
    );
    let mapping = before[0];
    assert!(
        before.iter().all(|m| *m == mapping),
        "one flow, one mapping: {before:?}"
    );
    // Let the piggyback replication of the NAT state settle before the
    // kill, so the survivor holds the mappings the replacement will fetch.
    std::thread::sleep(Duration::from_millis(300));

    // Fail-stop the head replica's process and run three-step recovery.
    chain.kill(0);
    assert!(!chain.is_alive(0));
    chain.recover(0).expect("three-step recovery");
    assert!(chain.is_alive(0));

    // The same flow must keep the same NAT mapping: the replacement
    // process fetched the first NAT's flow table from the survivor, so
    // packet 31 translates exactly like packet 1 did.
    let after = drive(&chain, 4321, 100..130);
    assert_eq!(after.len(), 30, "all post-recovery packets must egress");
    assert!(
        after.iter().all(|m| *m == mapping),
        "NAT mapping must survive the failover: {mapping:?} vs {after:?}"
    );

    // A fresh flow still works end to end (the allocator state recovered
    // too, handing out a new port rather than a colliding one).
    let fresh = drive(&chain, 9876, 200..210);
    assert_eq!(fresh.len(), 10);
    assert!(fresh.iter().all(|(ip, _)| *ip == ext));
    assert!(
        fresh.iter().all(|m| *m != mapping),
        "distinct flows must not share a mapping"
    );

    let snap = chain.merged_snapshot();
    assert!(
        snap.logs_applied > 0,
        "piggyback logs must flow across the process boundary"
    );
}

/// A replacement whose every source is dead cannot recover and exits; the
/// parent must report that exit promptly instead of pinging the exited
/// process until its 30 s readiness deadline.
#[test]
fn recovery_with_every_source_dead_reports_the_exit_promptly() {
    let dir = std::env::temp_dir().join(format!("ftc-proc-dead-{}", std::process::id()));
    let chain = ProcChain::deploy(ProcConfig {
        chain: "monitor -> monitor".to_string(),
        f: 1,
        workers: 1,
        dir,
        exe: std::path::PathBuf::from(env!("CARGO_BIN_EXE_ftc")),
    })
    .expect("multi-process deploy");
    chain.kill(0);
    chain.kill(1);
    let t0 = std::time::Instant::now();
    let err = chain.recover(0).expect_err("no source can serve");
    let took = t0.elapsed();
    assert!(err.contains("exited"), "the error names the exit: {err}");
    assert!(took < Duration::from_secs(5), "reported after {took:?}");
}

/// Two concurrent closed-loop clients share one multi-process chain: both
/// see their packets egress, and the merged per-node snapshot carries the
/// transaction and buffer stage samples from across the process boundary.
#[test]
fn two_closed_loop_clients_drive_the_process_chain() {
    let dir = std::env::temp_dir().join(format!("ftc-proc-clients-{}", std::process::id()));
    let chain = ProcChain::deploy(ProcConfig {
        chain: "mazu_nat(ext=203.0.113.2) -> mazu_nat(ext=203.0.113.3)".to_string(),
        f: 1,
        workers: 1,
        dir,
        exe: std::path::PathBuf::from(env!("CARGO_BIN_EXE_ftc")),
    })
    .expect("multi-process deploy");

    let received: Vec<u64> = std::thread::scope(|s| {
        let chain = &chain;
        let clients: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let runner = TrafficRunner::new(WorkloadConfig {
                        flows: 64,
                        frame_len: 256,
                        ..Default::default()
                    });
                    runner.closed_loop(chain, 32, Duration::from_millis(200))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client panicked").received)
            .collect()
    });
    assert!(
        received.iter().all(|&r| r > 0),
        "every client must receive packets: {received:?}"
    );

    std::thread::sleep(Duration::from_millis(50));
    let snap = chain.merged_snapshot();
    assert!(snap.transaction.samples > 0, "no transaction samples");
    assert!(snap.buffer.samples > 0, "no buffer samples");
}
