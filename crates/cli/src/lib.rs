//! Implementation of the `ftc` command-line tool.
//!
//! Subcommands:
//!
//! * `ftc run` — deploy an FTC chain from a chain-spec string, push
//!   synthetic traffic through it, and print protocol counters.
//! * `ftc compare` — run the same chain under FTC, NF and FTMB on the
//!   threaded runtime and print throughput/latency side by side.
//! * `ftc sim` — run a calibrated-simulator experiment.
//! * `ftc drill` — kill and recover every replica position in turn.
//! * `ftc stats` / `ftc trace` — drive a chain and print its per-stage
//!   metrics or its event journal (optionally across a replica kill).
//! * `ftc reconfig` — scale or migrate one replica by live handover.
//! * `ftc node` — run one replica as an OS process of a multi-process
//!   chain.
//!
//! Each subcommand accepts only the options it reads. Performance is
//! measured by the standing benchmark (`benchmark/run.sh`), not by this
//! tool.
//!
//! Chains are written in the Click-flavoured spec language of
//! [`ftc::mbox::spec_lang`], e.g.
//! `"firewall(deny_ports=23) -> monitor(sharing=2) -> mazu_nat(ext=203.0.113.1)"`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{parse_args, Command, ParsedArgs};

/// Entry point shared by the binary and tests. Returns the process exit
/// code.
pub fn run(argv: &[String]) -> i32 {
    match parse_args(argv) {
        Ok(parsed) => match commands::dispatch(&parsed) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            2
        }
    }
}
