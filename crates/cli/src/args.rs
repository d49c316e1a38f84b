//! Hand-rolled argument parsing (the offline dependency set has no CLI
//! crate; the grammar is small enough that explicitness beats a framework).

use std::collections::HashMap;

/// Usage text printed on parse errors and `ftc help`.
pub const USAGE: &str = "\
ftc — fault tolerant service function chaining

USAGE:
  ftc run     --chain \"<spec>\" [--f N] [--workers N] [--packets N] [--loss P]
  ftc stats   --chain \"<spec>\" [--f N] [--workers N] [--packets N] [--json]
  ftc trace   --chain \"<spec>\" [--f N] [--packets N] [--kill R] [--json]
  ftc compare --chain \"<spec>\" [--workers N] [--seconds S]
  ftc sim     --chain \"<spec>\" --system <ftc|nf|ftmb|ftmb-snap>
              [--f N] [--workers N] [--rate <Mpps|max>] [--packet-bytes B]
  ftc drill   --chain \"<spec>\" [--f N]
  ftc reconfig --chain \"<spec>\" --idx N (--scale W | --migrate R)
              [--f N] [--workers N] [--packets N]
  ftc node    --chain \"<spec>\" --idx N --dir DIR [--f N] [--workers N] [--recover]
  ftc help

CHAIN SPECS (Click-flavoured):
  monitor(sharing=N) | gen(state=BYTES) | mazu_nat(ext=IP) | simple_nat(ext=IP)
  ids(scan_threshold=N, signatures=A|B) | lb(backends=IP|IP) |
  firewall(deny_src=CIDR, deny_ports=LO-HI, allow_src=CIDR) | passthrough
  joined with `->`, e.g.:
    \"firewall(deny_ports=23) -> monitor(sharing=2) -> mazu_nat(ext=203.0.113.1)\"

EXAMPLES:
  ftc run --chain \"monitor -> monitor\" --packets 1000
  ftc stats --chain \"monitor -> monitor\" --packets 1000 --json
  ftc trace --chain \"firewall -> monitor\" --kill 1
  ftc compare --chain \"firewall -> monitor -> simple_nat(ext=198.51.100.1)\"
  ftc sim --chain \"monitor(sharing=8)\" --system ftc --rate max
  ftc drill --chain \"firewall -> monitor -> simple_nat(ext=198.51.100.1)\"
  ftc reconfig --chain \"monitor -> monitor\" --idx 1 --scale 2

`ftc reconfig` performs a live four-phase handover (prepare, transfer,
switch, release): `--scale W` rescales replica N to W workers, `--migrate R`
moves it to region R.

`ftc node` runs one replica as an OS process (normally spawned by the
programmatic ProcChain deployer).

Performance is measured by the standing benchmark: `bash benchmark/run.sh`.";

/// The selected subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Deploy and drive one FTC chain.
    Run,
    /// Drive a chain and report the metrics snapshot (Table-2 stages).
    Stats,
    /// Drive a chain (optionally kill a replica) and dump the journal.
    Trace,
    /// Compare FTC/NF/FTMB on the threaded runtime.
    Compare,
    /// Run a simulator experiment.
    Sim,
    /// Failover drill.
    Drill,
    /// Live reconfiguration: scale or migrate one replica via handover.
    Reconfig,
    /// Run one replica as an OS process (spawned by a multi-process parent).
    Node,
    /// Print usage.
    Help,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: Command,
    /// `--key value` options.
    pub options: HashMap<String, String>,
}

impl ParsedArgs {
    /// Fetches a string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Fetches a numeric option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    /// Fetches a float option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    /// True if the boolean flag (e.g. `--json`) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Fetches the mandatory `--chain` spec.
    pub fn chain(&self) -> Result<&str, String> {
        self.get("chain")
            .ok_or_else(|| "--chain \"<spec>\" is required".into())
    }
}

/// Flags that take no value; everything else is `--key value`.
const BOOL_FLAGS: &[&str] = &["json", "recover"];

/// Every subcommand with the options it reads. Any other option is an
/// error, so a misspelled or stale one cannot be silently ignored.
const COMMANDS: &[(&str, Command, &[&str])] = &[
    (
        "run",
        Command::Run,
        &["chain", "f", "workers", "packets", "loss"],
    ),
    (
        "stats",
        Command::Stats,
        &["chain", "f", "workers", "packets", "json"],
    ),
    (
        "trace",
        Command::Trace,
        &["chain", "f", "packets", "kill", "json"],
    ),
    (
        "compare",
        Command::Compare,
        &["chain", "workers", "seconds"],
    ),
    (
        "sim",
        Command::Sim,
        &["chain", "system", "f", "workers", "rate", "packet-bytes"],
    ),
    ("drill", Command::Drill, &["chain", "f"]),
    (
        "reconfig",
        Command::Reconfig,
        &[
            "chain", "idx", "scale", "migrate", "f", "workers", "packets",
        ],
    ),
    (
        "node",
        Command::Node,
        &["chain", "idx", "dir", "f", "workers", "recover"],
    ),
];

/// Parses `argv` (excluding the program name).
pub fn parse_args(argv: &[String]) -> Result<ParsedArgs, String> {
    let mut it = argv.iter();
    let (name, command, accepted): (&str, Command, &[&str]) = match it.next().map(|s| s.as_str()) {
        Some("help") | Some("--help") | Some("-h") | None => ("help", Command::Help, &[]),
        Some(other) => *COMMANDS
            .iter()
            .find(|(name, _, _)| *name == other)
            .ok_or_else(|| format!("unknown subcommand `{other}`"))?,
    };
    let mut options = HashMap::new();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected `--option`, got `{flag}`"));
        };
        if !accepted.contains(&key) {
            let known: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
            return Err(format!(
                "`ftc {name}` has no option `--{key}` (it takes: {})",
                if known.is_empty() {
                    "none".to_string()
                } else {
                    known.join(" ")
                }
            ));
        }
        let value = if BOOL_FLAGS.contains(&key) {
            "true".to_string()
        } else {
            let Some(value) = it.next() else {
                return Err(format!("--{key} needs a value"));
            };
            value.clone()
        };
        if options.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(ParsedArgs { command, options })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_with_options() {
        let p = parse_args(&argv("run --chain monitor --packets 500")).unwrap();
        assert_eq!(p.command, Command::Run);
        assert_eq!(p.chain().unwrap(), "monitor");
        assert_eq!(p.get_usize("packets", 100).unwrap(), 500);
        assert_eq!(p.get_usize("f", 1).unwrap(), 1, "default applies");
    }

    #[test]
    fn bool_flags_consume_no_value() {
        let p = parse_args(&argv("stats --chain monitor --json --packets 50")).unwrap();
        assert_eq!(p.command, Command::Stats);
        assert!(p.flag("json"));
        assert_eq!(p.get_usize("packets", 100).unwrap(), 50);
        let p = parse_args(&argv("trace --chain monitor --kill 1")).unwrap();
        assert_eq!(p.command, Command::Trace);
        assert!(!p.flag("json"));
        assert_eq!(p.get("kill"), Some("1"));
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn errors() {
        assert!(parse_args(&argv("explode")).is_err());
        assert!(parse_args(&argv("run --chain")).is_err());
        assert!(parse_args(&argv("run chain monitor")).is_err());
        assert!(parse_args(&argv("run --f 1 --f 2")).is_err());
        let p = parse_args(&argv("run --packets abc")).unwrap();
        assert!(p.get_usize("packets", 1).is_err());
        assert!(p.chain().is_err());
    }

    #[test]
    fn options_a_subcommand_does_not_read_are_rejected() {
        let err = parse_args(&argv("run --chain monitor --packts 5")).unwrap_err();
        assert!(err.contains("--packts") && err.contains("ftc run"), "{err}");
        // `--json` is a flag of `stats`, not of `run`.
        let err = parse_args(&argv("run --chain monitor --json")).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        let err = parse_args(&argv("help --chain monitor")).unwrap_err();
        assert!(err.contains("none"), "{err}");
        let err = parse_args(&argv("bench --quick")).unwrap_err();
        assert_eq!(err, "unknown subcommand `bench`");
    }

    /// Splits a usage line like a shell would for the quoting USAGE uses.
    fn shell_words(line: &str) -> Vec<String> {
        let mut words = Vec::new();
        for (i, part) in line.split('"').enumerate() {
            if i % 2 == 1 {
                words.push(part.to_string());
            } else {
                words.extend(part.split_whitespace().map(String::from));
            }
        }
        words
    }

    #[test]
    fn every_usage_example_parses() {
        let examples: Vec<&str> = USAGE
            .split("EXAMPLES:\n")
            .nth(1)
            .expect("USAGE has an EXAMPLES block")
            .lines()
            .take_while(|l| !l.trim().is_empty())
            .collect();
        assert!(examples.len() >= 5, "{examples:?}");
        for line in examples {
            let words = shell_words(line);
            assert_eq!(words[0], "ftc", "{line}");
            parse_args(&words[1..]).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
    }

    #[test]
    fn every_option_in_the_synopsis_is_accepted() {
        let synopsis = USAGE
            .split("USAGE:\n")
            .nth(1)
            .and_then(|s| s.split("\n\n").next())
            .expect("USAGE has a synopsis block");
        let mut accepted: &[&str] = &[];
        for line in synopsis.lines() {
            let words = shell_words(line);
            if words[0] == "ftc" {
                accepted = COMMANDS
                    .iter()
                    .find(|(name, _, _)| *name == words[1])
                    .map_or(&[], |(_, _, opts)| opts);
            }
            for word in &words {
                let opt = word.trim_matches(['[', ']', '(', ')']);
                if let Some(key) = opt.strip_prefix("--") {
                    assert!(accepted.contains(&key), "`{line}`: --{key} not accepted");
                }
            }
        }
    }
}
