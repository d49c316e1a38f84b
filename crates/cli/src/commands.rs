//! Subcommand implementations.

use crate::args::{Command, ParsedArgs, USAGE};
use ftc::baselines::{FtmbChain, NfChain};
use ftc::mbox::parse_chain;
use ftc::prelude::*;
use ftc::sim::{simulate, MbKind, SimConfig, SystemKind};
use ftc::traffic::WorkloadConfig;
use std::time::{Duration, Instant};

/// Runs the selected subcommand.
pub fn dispatch(args: &ParsedArgs) -> Result<(), String> {
    match args.command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Run => cmd_run(args),
        Command::Stats => cmd_stats(args),
        Command::Trace => cmd_trace(args),
        Command::Compare => cmd_compare(args),
        Command::Sim => cmd_sim(args),
        Command::Drill => cmd_drill(args),
        Command::Reconfig => cmd_reconfig(args),
        Command::Node => cmd_node(args),
    }
}

/// Runs one replica as this process — the receiving end of the `ftc node`
/// processes a multi-process deployment spawns. Blocks until the parent
/// sends a shutdown request.
fn cmd_node(args: &ParsedArgs) -> Result<(), String> {
    let dir = args
        .get("dir")
        .ok_or_else(|| "--dir DIR is required".to_string())?;
    let idx = args.get_usize("idx", usize::MAX)?;
    if idx == usize::MAX {
        return Err("--idx N is required".to_string());
    }
    ftc::orch::proc::run_node(&ftc::orch::proc::NodeOpts {
        chain: args.chain()?.to_string(),
        f: args.get_usize("f", 1)?,
        workers: args.get_usize("workers", 1)?,
        idx,
        dir: std::path::PathBuf::from(dir),
        recover: args.flag("recover"),
    })
}

/// The chain `--chain`, `--f` (default 1) and `--workers` describe,
/// checked before anything is deployed or simulated.
fn config_of(args: &ParsedArgs, default_workers: usize) -> Result<ChainConfig, String> {
    let specs = parse_chain(args.chain()?).map_err(|e| e.to_string())?;
    let cfg = ChainConfig::new(specs)
        .with_f(args.get_usize("f", 1)?)
        .with_workers(args.get_usize("workers", default_workers)?);
    cfg.validate()?;
    Ok(cfg)
}

fn cmd_run(args: &ParsedArgs) -> Result<(), String> {
    let mut cfg = config_of(args, 1)?;
    let packets = args.get_usize("packets", 1000)?;
    let loss = args.get_f64("loss", 0.0)?;
    if loss > 0.0 {
        cfg = cfg.with_link(Endpoint::lossy(loss, loss / 2.0, 42));
    }
    let names: Vec<&str> = cfg
        .effective_middleboxes()
        .iter()
        .map(|s| s.name())
        .collect();
    println!(
        "deploying FTC chain: {} (f = {}, workers = {})",
        names.join(" -> "),
        cfg.f,
        cfg.workers
    );
    let chain = FtcChain::deploy(cfg);

    let mut wl = Workload::new(WorkloadConfig {
        flows: 64,
        frame_len: 256,
        ..Default::default()
    });
    for _ in 0..packets {
        chain.inject(wl.next_packet());
    }
    let got = chain.egress().collect(packets, Duration::from_secs(60));
    std::thread::sleep(Duration::from_millis(50));
    let snap = chain.metrics.snapshot();
    println!("released {}/{packets} packets", got.len());
    println!(
        "protocol: logs applied {}, parked {}, stale {}, propagating {}, filtered {}",
        snap.logs_applied, snap.logs_parked, snap.logs_stale, snap.propagating, snap.filtered,
    );
    if snap.piggyback_count > 0 {
        println!(
            "mean piggyback log: {:.1} B/writing packet",
            snap.mean_piggyback_bytes
        );
    }
    for slot in &chain.replicas {
        println!(
            "  r{} [{}]: own keys {}, replicates {:?}",
            slot.state.idx,
            slot.state.mbox.name(),
            slot.state.own_store.len(),
            slot.state.replicated.keys().collect::<Vec<_>>(),
        );
    }
    Ok(())
}

fn cmd_stats(args: &ParsedArgs) -> Result<(), String> {
    let cfg = config_of(args, 1)?;
    let packets = args.get_usize("packets", 1000)?;

    let chain = FtcChain::deploy(cfg);
    let mut wl = Workload::new(WorkloadConfig {
        flows: 64,
        frame_len: 256,
        ..Default::default()
    });
    for _ in 0..packets {
        chain.inject(wl.next_packet());
    }
    chain.egress().collect(packets, Duration::from_secs(60));
    std::thread::sleep(Duration::from_millis(50));
    let snap = chain.metrics.snapshot();

    if args.flag("json") {
        // The metrics object, with one engine-counter entry per replica.
        let stm: Vec<String> = chain
            .replicas
            .iter()
            .map(|slot| {
                let s = &slot.state;
                format!("{{\"replica\":{},{}}}", s.idx, s.stm_counts().json_fields())
            })
            .collect();
        let json = snap.to_json();
        let body = json.strip_suffix('}').expect("a JSON object");
        println!("{body},\"stm\":[{}]}}", stm.join(","));
        return Ok(());
    }
    println!(
        "packets: injected {}, released {}, filtered {}, propagating {}",
        snap.injected, snap.released, snap.filtered, snap.propagating,
    );
    println!(
        "logs: applied {}, parked {}, stale {}; piggyback {:.1} B mean over {} packets",
        snap.logs_applied,
        snap.logs_parked,
        snap.logs_stale,
        snap.mean_piggyback_bytes,
        snap.piggyback_count,
    );
    println!(
        "buffer: held {}, uncommitted {}, resent {}",
        snap.held, snap.buffer_uncommitted, snap.logs_resent,
    );
    println!(
        "data plane: {} loop threads, {} frames handled in {} bursts ({:.2} frames/burst), \
         {} idle polls ({:.2} per released packet)",
        snap.dataplane_threads,
        snap.loop_frames,
        snap.loop_bursts,
        snap.loop_frames as f64 / snap.loop_bursts.max(1) as f64,
        snap.loop_idle_polls,
        snap.loop_idle_polls as f64 / snap.released.max(1) as f64,
    );
    for slot in &chain.replicas {
        let s = &slot.state;
        println!("stm: r{} [{}]: {}", s.idx, s.mbox.name(), s.stm_counts());
    }
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "stage", "samples", "mean", "p50", "p99", "p999"
    );
    for (name, s) in [
        ("transaction", snap.transaction),
        ("piggyback", snap.piggyback),
        ("apply", snap.apply),
        ("forwarder", snap.forwarder),
        ("buffer", snap.buffer),
    ] {
        println!(
            "{name:<12} {:>9} {:>12.1?} {:>12.1?} {:>12.1?} {:>12.1?}",
            s.samples,
            Duration::from_nanos(s.mean_ns),
            Duration::from_nanos(s.p50_ns),
            Duration::from_nanos(s.p99_ns),
            Duration::from_nanos(s.p999_ns),
        );
    }
    Ok(())
}

fn cmd_trace(args: &ParsedArgs) -> Result<(), String> {
    let cfg = config_of(args, 1)?;
    let packets = args.get_usize("packets", 200)?;

    let chain = FtcChain::deploy(cfg);
    let n = chain.len();
    let mut orch = Orchestrator::new(chain, OrchestratorConfig::default());
    let mut wl = Workload::new(WorkloadConfig::default());
    for _ in 0..packets {
        orch.chain.inject(wl.next_packet());
    }
    orch.chain
        .egress()
        .collect(packets, Duration::from_secs(30));

    if let Some(kill) = args.get("kill") {
        let idx: usize = kill
            .parse()
            .map_err(|_| format!("--kill expects a replica index, got `{kill}`"))?;
        if idx >= n {
            return Err(format!(
                "--kill {idx} out of range (chain has {n} replicas)"
            ));
        }
        orch.chain.kill(idx);
        for _ in 0..200 {
            if let Some((i, r)) = orch.monitor_round().into_iter().next() {
                r.map_err(|e| format!("recovery of r{i} failed: {e}"))?;
                break;
            }
        }
        for _ in 0..50 {
            orch.chain.inject(wl.next_packet());
        }
        orch.chain.egress().collect(50, Duration::from_secs(30));
    }
    std::thread::sleep(Duration::from_millis(50));

    let trace = orch.chain.metrics.journal.trace();
    let timelines = ftc::core::journal::recovery_timelines(&trace);
    if args.flag("json") {
        let recoveries: Vec<String> = timelines.iter().map(|t| t.to_json()).collect();
        println!(
            "{{\"events\":{},\"recoveries\":[{}]}}",
            ftc::core::journal::trace_to_json(&trace),
            recoveries.join(","),
        );
        return Ok(());
    }
    for ev in &trace {
        println!("{}", ev.to_json());
    }
    for t in &timelines {
        println!(
            "recovery of r{}: total {:.1?} (detection {:.1?}, init {:.1?}, \
             state fetch {:.1?}, resume {:.1?})",
            t.replica,
            t.total(),
            t.detection,
            t.initialization,
            t.state_fetch,
            t.resume,
        );
    }
    Ok(())
}

fn cmd_compare(args: &ParsedArgs) -> Result<(), String> {
    let cfg = config_of(args, 1)?;
    let seconds = args.get_f64("seconds", 2.0)?;
    let runner = TrafficRunner::new(WorkloadConfig {
        flows: 128,
        frame_len: 256,
        ..Default::default()
    });
    let dur = Duration::from_secs_f64(seconds);

    println!(
        "{:<6} {:>12} {:>14} {:>14}",
        "system", "pps", "mean lat", "p99 lat"
    );
    let measure = |name: &str, sys: &dyn ChainSystem| {
        let tput = runner.closed_loop(sys, 64, dur);
        let lat = runner.open_loop(sys, 2_000.0, dur);
        println!(
            "{name:<6} {:>12.0} {:>14.1?} {:>14.1?}",
            tput.pps,
            lat.latency.mean().unwrap_or_default(),
            lat.latency.quantile(0.99).unwrap_or_default(),
        );
    };
    let nf = NfChain::deploy(cfg.clone());
    measure("NF", &nf);
    let ftc = FtcChain::deploy(cfg.clone());
    measure("FTC", &ftc);
    let ftmb = FtmbChain::deploy(cfg, None);
    measure("FTMB", &ftmb);
    println!("(threaded runtime on this machine; paper-scale numbers: `cargo bench`)");
    Ok(())
}

/// Maps runtime middlebox specs onto simulator kinds; the simulator models
/// the Table-1 middleboxes, so the richer ones approximate to the nearest
/// workload shape.
fn sim_kind(spec: &MbSpec, workers: usize) -> MbKind {
    match spec {
        MbSpec::Monitor { sharing_level } => MbKind::Monitor {
            sharing: (*sharing_level).min(workers.max(1)),
        },
        MbSpec::Gen { state_size } => MbKind::Gen { state: *state_size },
        MbSpec::MazuNat { .. } => MbKind::MazuNat,
        MbSpec::SimpleNat { .. } | MbSpec::LoadBalancer { .. } => MbKind::SimpleNat,
        MbSpec::Ids { .. } => MbKind::Monitor {
            sharing: workers.max(1),
        },
        MbSpec::Firewall { .. } => MbKind::Firewall,
        MbSpec::Passthrough => MbKind::Passthrough,
    }
}

fn cmd_sim(args: &ParsedArgs) -> Result<(), String> {
    let ChainConfig {
        middleboxes: specs,
        f,
        workers,
        ..
    } = config_of(args, 8)?;
    let packet_bytes = args.get_usize("packet-bytes", 256)?;
    let system = match args.get("system").unwrap_or("ftc") {
        "ftc" => SystemKind::Ftc { f },
        "nf" => SystemKind::Nf,
        "ftmb" => SystemKind::Ftmb { snapshot: None },
        "ftmb-snap" => SystemKind::Ftmb {
            snapshot: Some((50e6, 6e6)),
        },
        other => return Err(format!("unknown --system `{other}`")),
    };
    let mut chain: Vec<MbKind> = specs.iter().map(|s| sim_kind(s, workers)).collect();
    if matches!(system, SystemKind::Ftc { .. }) {
        while chain.len() < f + 1 {
            chain.push(MbKind::Passthrough);
        }
    }

    let cfg = match args.get("rate").unwrap_or("max") {
        "max" => SimConfig::saturated(system, chain),
        r => {
            let mpps: f64 = r
                .parse()
                .map_err(|_| format!("--rate expects Mpps or `max`, got `{r}`"))?;
            SimConfig::at_rate(system, chain, mpps * 1e6)
        }
    }
    .with_workers(workers)
    .with_packet_bytes(packet_bytes);

    let report = simulate(&cfg);
    println!("system: {}", report.system);
    println!(
        "offered: {:.2} Mpps, achieved: {:.2} Mpps",
        report.offered_pps / 1e6,
        report.mpps()
    );
    if let Some(mean) = report.mean_latency() {
        println!(
            "latency: mean {:.1?}, median {:.1?}, p99 {:.1?} ({} samples)",
            mean,
            report.median_latency().unwrap_or_default(),
            report.p99_latency().unwrap_or_default(),
            report.latency.len(),
        );
    }
    if report.trailer_bytes > 0.0 {
        println!("mean piggyback trailer: {:.0} B/hop", report.trailer_bytes);
    }
    Ok(())
}

fn cmd_drill(args: &ParsedArgs) -> Result<(), String> {
    let chain = FtcChain::deploy(config_of(args, 1)?);
    let n = chain.len();
    let mut orch = Orchestrator::new(chain, OrchestratorConfig::default());

    let mut wl = Workload::new(WorkloadConfig::default());
    for _ in 0..200 {
        orch.chain.inject(wl.next_packet());
    }
    let warmed = orch
        .chain
        .egress()
        .collect(200, Duration::from_secs(30))
        .len();
    println!("warmed up with {warmed}/200 packets");
    std::thread::sleep(Duration::from_millis(100));

    for idx in 0..n {
        print!("killing r{idx}… ");
        let t_kill = Instant::now();
        orch.chain.kill(idx);
        let killed = t_kill.elapsed();
        match orch.recover(idx, ftc::net::RegionId(0)) {
            Ok(r) => println!(
                "recovered in {:.1?} (init {:.1?}, state {:.1?} / {} B \
                 [fetch {:.1?}, restore {:.1?}], reroute {:.1?})",
                r.total(),
                r.initialization,
                r.state_recovery,
                r.bytes_transferred,
                r.fetch,
                r.restore,
                r.rerouting
            ),
            Err(e) => return Err(format!("recovery of r{idx} failed: {e}")),
        }
        // The outage beyond the three steps: the kill (its threads' join)
        // before them and the first release after them.
        let t_recovered = Instant::now();
        for _ in 0..50 {
            orch.chain.inject(wl.next_packet());
        }
        let egress = orch.chain.egress();
        let first = egress.recv(Duration::from_secs(30));
        let first_release = t_recovered.elapsed();
        let got = usize::from(first.is_some()) + egress.collect(49, Duration::from_secs(30)).len();
        println!("  kill and join {killed:.1?}, first release {first_release:.1?} after recovery");
        println!("  post-recovery traffic: {got}/50 released");
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("drill complete: all {n} positions failed and recovered");
    Ok(())
}

/// `ftc reconfig`: one planned four-phase handover on a live chain —
/// `--scale W` replaces the replica with a W-worker instance, `--migrate R`
/// moves it to region R. State carries over; traffic resumes afterwards.
fn cmd_reconfig(args: &ParsedArgs) -> Result<(), String> {
    let cfg = config_of(args, 1)?;
    let packets = args.get_usize("packets", 200)?;
    let idx = args.get_usize("idx", usize::MAX)?;
    if idx == usize::MAX {
        return Err("--idx N is required".to_string());
    }

    let chain = FtcChain::deploy(cfg);
    let n = chain.len();
    if idx >= n {
        return Err(format!("--idx {idx} out of range (chain has {n} replicas)"));
    }
    let mut orch = Orchestrator::new(chain, OrchestratorConfig::default());

    let mut wl = Workload::new(WorkloadConfig::default());
    for _ in 0..packets {
        orch.chain.inject(wl.next_packet());
    }
    let warmed = orch
        .chain
        .egress()
        .collect(packets, Duration::from_secs(30))
        .len();
    println!("warmed up with {warmed}/{packets} packets");
    std::thread::sleep(Duration::from_millis(100));

    let report = match (args.get("scale"), args.get("migrate")) {
        (Some(w), None) => {
            let w: usize = w
                .parse()
                .map_err(|_| format!("--scale expects a worker count, got `{w}`"))?;
            if w == 0 {
                return Err("--scale needs at least 1 worker".to_string());
            }
            println!("scaling r{idx} to {w} worker(s)…");
            orch.scale_instance(idx, w)
                .map_err(|e| format!("scale of r{idx} failed: {e}"))?
        }
        (None, Some(r)) => {
            let r: usize = r
                .parse()
                .map_err(|_| format!("--migrate expects a region index, got `{r}`"))?;
            let regions = orch.chain.topology.regions();
            if r >= regions {
                return Err(format!(
                    "--migrate {r} out of range (topology has {regions} region(s))"
                ));
            }
            println!("migrating r{idx} to region {r}…");
            orch.migrate_instance(idx, ftc::net::RegionId(r))
                .map_err(|e| format!("migration of r{idx} failed: {e}"))?
        }
        _ => return Err("reconfig needs exactly one of --scale W or --migrate R".to_string()),
    };
    println!(
        "{} of r{} complete in {:.1?}: prepare {:.1?}, transfer {:.1?} / {} B, \
         switch {:.1?}, release {:.1?}",
        report.op.label(),
        report.position,
        report.total(),
        report.prepare,
        report.transfer,
        report.bytes_transferred,
        report.switch,
        report.release,
    );

    for _ in 0..50 {
        orch.chain.inject(wl.next_packet());
    }
    let got = orch
        .chain
        .egress()
        .collect(50, Duration::from_secs(30))
        .len();
    println!("post-reconfiguration traffic: {got}/50 released");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run_cmd(s: &str) -> Result<(), String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        dispatch(&parse_args(&argv).unwrap())
    }

    #[test]
    fn sim_command_works_end_to_end() {
        run_cmd("sim --chain monitor(sharing=2) --system ftc --rate 1").unwrap();
        run_cmd("sim --chain monitor --system nf --rate max").unwrap();
    }

    #[test]
    fn sim_rejects_bad_system() {
        let err = run_cmd("sim --chain monitor --system warp").unwrap_err();
        assert!(err.contains("unknown --system"));
    }

    #[test]
    fn run_command_small_chain() {
        run_cmd("run --chain monitor->monitor --packets 50").unwrap();
    }

    #[test]
    fn stats_command_works() {
        run_cmd("stats --chain monitor->monitor --packets 50").unwrap();
        run_cmd("stats --chain monitor->monitor --packets 50 --json").unwrap();
    }

    #[test]
    fn trace_command_with_kill() {
        run_cmd("trace --chain monitor->monitor --packets 30 --kill 1 --json").unwrap();
    }

    #[test]
    fn trace_rejects_out_of_range_kill() {
        let err = run_cmd("trace --chain monitor --packets 5 --kill 9").unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn reconfig_scale_command_works() {
        run_cmd("reconfig --chain monitor->monitor --idx 1 --scale 2 --packets 40").unwrap();
    }

    #[test]
    fn reconfig_needs_exactly_one_operation() {
        let err = run_cmd("reconfig --chain monitor->monitor --idx 1 --packets 5").unwrap_err();
        assert!(err.contains("--scale"));
    }

    #[test]
    fn reconfig_rejects_unknown_region_and_bad_idx() {
        let err = run_cmd("reconfig --chain monitor->monitor --idx 0 --migrate 9 --packets 5")
            .unwrap_err();
        assert!(err.contains("out of range"));
        let err = run_cmd("reconfig --chain monitor --idx 7 --scale 2").unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn zero_workers_is_an_error_not_a_panic() {
        for cmd in [
            "run",
            "stats",
            "compare",
            "sim",
            "reconfig --idx 0 --scale 1",
            "node --idx 0 --dir unused",
        ] {
            let err = run_cmd(&format!("{cmd} --chain monitor --workers 0")).unwrap_err();
            assert!(err.contains("--workers"), "{cmd}: {err}");
        }
        let argv: Vec<String> = "run --chain monitor --workers 0"
            .split_whitespace()
            .map(String::from)
            .collect();
        assert_eq!(crate::run(&argv), 1);
    }

    #[test]
    fn bad_chain_spec_reported() {
        let err = run_cmd("run --chain warpdrive").unwrap_err();
        assert!(err.contains("unknown middlebox"));
    }

    #[test]
    fn kind_mapping_covers_all_specs() {
        let specs = parse_chain(
            "monitor -> gen -> mazu_nat(ext=1.1.1.1) -> simple_nat(ext=1.1.1.2) \
             -> ids -> lb(backends=1.1.1.3) -> firewall -> passthrough",
        )
        .unwrap();
        for s in &specs {
            let _ = sim_kind(s, 8);
        }
    }
}
