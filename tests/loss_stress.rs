use ftc::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Multi-seed stress of the loss/reorder path that once exposed a
/// parking livelock (a packet parked on its first blocked log even when a
/// later log in the same message was the missing dependency).
#[test]
fn lossy_links_multi_seed_stress() {
    for seed in [2024u64, 1, 7, 99] {
        let cfg = ChainConfig::new(vec![
            MbSpec::Monitor { sharing_level: 2 },
            MbSpec::Monitor { sharing_level: 2 },
            MbSpec::Monitor { sharing_level: 2 },
        ])
        .with_f(1)
        .with_workers(2)
        .with_link(
            Endpoint::in_proc()
                .with_latency(Duration::from_micros(5))
                .with_jitter(Duration::from_micros(20))
                .with_loss(0.08)
                .with_reorder(0.1)
                .with_seed(seed),
        );
        let chain = FtcChain::deploy(cfg);
        let n = 150u16;
        for i in 0..n {
            chain.inject(
                UdpPacketBuilder::new()
                    .src(Ipv4Addr::new(10, 0, 0, 5), 4000 + (i % 16))
                    .dst(Ipv4Addr::new(10, 77, 0, 1), 80)
                    .ident(i)
                    .build(),
            );
        }
        let got = chain.egress().collect(n as usize, Duration::from_secs(30));
        assert_eq!(got.len(), n as usize, "seed {seed} stalled");
    }
}
