//! A tiny chain-description language, in the spirit of Click configs.
//!
//! Chains are written as `->`-separated middlebox invocations:
//!
//! ```text
//! firewall(deny_src=10.66.0.0/16, deny_ports=137-139)
//!   -> ids(scan_threshold=16)
//!   -> monitor(sharing=2)
//!   -> lb(backends=10.1.0.1|10.1.0.2)
//!   -> mazu_nat(ext=203.0.113.1)
//! ```
//!
//! Used by the `ftc` CLI and handy in tests; [`parse_chain`] returns the
//! [`MbSpec`] list ready for `ChainConfig::new`.

use crate::firewall::{Cidr, FirewallAction, FirewallRule};
use crate::middlebox::MbSpec;
use std::net::Ipv4Addr;

/// A human-readable parse error with the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "chain spec error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

/// Parses a chain description into middlebox specs.
///
/// ```
/// let specs = ftc_mbox::parse_chain(
///     "firewall(deny_ports=23) -> monitor(sharing=2) -> mazu_nat(ext=203.0.113.1)",
/// ).unwrap();
/// assert_eq!(specs.len(), 3);
/// assert_eq!(specs[2].name(), "MazuNAT");
/// ```
pub fn parse_chain(input: &str) -> Result<Vec<MbSpec>, ParseError> {
    let mut specs = Vec::new();
    for stage in input.split("->") {
        let stage = stage.trim();
        if stage.is_empty() {
            return err("empty stage (dangling '->'?)");
        }
        specs.push(parse_stage(stage)?);
    }
    Ok(specs)
}

fn parse_stage(stage: &str) -> Result<MbSpec, ParseError> {
    let (name, args) = match stage.find('(') {
        Some(open) => {
            let Some(close) = stage.rfind(')') else {
                return err(format!("missing ')' in `{stage}`"));
            };
            if close != stage.len() - 1 {
                return err(format!("trailing characters after ')' in `{stage}`"));
            }
            (stage[..open].trim(), parse_args(&stage[open + 1..close])?)
        }
        None => (stage, Vec::new()),
    };
    build_spec(name, &args)
}

fn parse_args(s: &str) -> Result<Vec<(String, String)>, ParseError> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((k, v)) = part.split_once('=') else {
            return err(format!("argument `{part}` must be key=value"));
        };
        out.push((k.trim().to_string(), v.trim().to_string()));
    }
    Ok(out)
}

fn get<'a>(args: &'a [(String, String)], key: &str) -> Option<&'a str> {
    args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn require<'a>(args: &'a [(String, String)], key: &str, mb: &str) -> Result<&'a str, ParseError> {
    get(args, key).ok_or_else(|| ParseError {
        message: format!("{mb} requires `{key}=…`"),
    })
}

fn parse_ip(v: &str) -> Result<Ipv4Addr, ParseError> {
    v.parse().map_err(|_| ParseError {
        message: format!("`{v}` is not an IPv4 address"),
    })
}

fn parse_usize(v: &str) -> Result<usize, ParseError> {
    v.parse().map_err(|_| ParseError {
        message: format!("`{v}` is not a number"),
    })
}

fn parse_port(v: &str) -> Result<u16, ParseError> {
    v.parse().map_err(|_| ParseError {
        message: format!("`{v}` is not a port (0-65535)"),
    })
}

fn parse_cidr(v: &str) -> Result<Cidr, ParseError> {
    let Some((addr, len)) = v.split_once('/') else {
        return Ok(Cidr::new(parse_ip(v)?, 32));
    };
    let len: u8 = len.parse().map_err(|_| ParseError {
        message: format!("bad prefix length in `{v}`"),
    })?;
    if len > 32 {
        return err(format!("prefix length {len} > 32 in `{v}`"));
    }
    Ok(Cidr::new(parse_ip(addr)?, len))
}

fn build_spec(name: &str, args: &[(String, String)]) -> Result<MbSpec, ParseError> {
    match name {
        "monitor" => Ok(MbSpec::Monitor {
            sharing_level: get(args, "sharing")
                .map(parse_usize)
                .transpose()?
                .unwrap_or(1),
        }),
        "gen" => Ok(MbSpec::Gen {
            state_size: get(args, "state")
                .map(parse_usize)
                .transpose()?
                .unwrap_or(32),
        }),
        "mazu_nat" => Ok(MbSpec::MazuNat {
            external_ip: parse_ip(require(args, "ext", "mazu_nat")?)?,
        }),
        "simple_nat" => Ok(MbSpec::SimpleNat {
            external_ip: parse_ip(require(args, "ext", "simple_nat")?)?,
        }),
        "ids" => Ok(MbSpec::Ids {
            scan_threshold: get(args, "scan_threshold")
                .map(parse_usize)
                .transpose()?
                .unwrap_or(16),
            signatures: get(args, "signatures")
                .map(|v| v.split('|').map(|s| s.as_bytes().to_vec()).collect())
                .unwrap_or_default(),
        }),
        "lb" => {
            let backends = require(args, "backends", "lb")?
                .split('|')
                .map(parse_ip)
                .collect::<Result<Vec<_>, _>>()?;
            if backends.is_empty() {
                return err("lb needs at least one backend");
            }
            Ok(MbSpec::LoadBalancer { backends })
        }
        "firewall" => {
            let mut rules = Vec::new();
            for (k, v) in args {
                match k.as_str() {
                    "deny_src" => rules.push(FirewallRule::deny_src(parse_cidr(v)?)),
                    "deny_ports" => {
                        let (lo, hi) = match v.split_once('-') {
                            Some((a, b)) => (parse_port(a)?, parse_port(b)?),
                            None => {
                                let p = parse_port(v)?;
                                (p, p)
                            }
                        };
                        if lo > hi {
                            return err(format!("empty port range `{v}`"));
                        }
                        rules.push(FirewallRule::deny_dst_ports(lo..=hi));
                    }
                    "allow_src" => rules.push(FirewallRule {
                        src: parse_cidr(v)?,
                        dst: Cidr::any(),
                        protocol: None,
                        dst_ports: None,
                        action: FirewallAction::Permit,
                    }),
                    other => return err(format!("firewall: unknown argument `{other}`")),
                }
            }
            Ok(MbSpec::Firewall { rules })
        }
        "passthrough" => Ok(MbSpec::Passthrough),
        other => err(format!(
            "unknown middlebox `{other}` (expected monitor, gen, mazu_nat, \
             simple_nat, ids, lb, firewall, passthrough)"
        )),
    }
}

// ---------------------------------------------------------------------------
// Static chain-spec verification
// ---------------------------------------------------------------------------

/// Declared state-key prefixes per middlebox kind: the partition-ownership
/// contract of the chain. Checked two ways: `scripts/analyze_state_access.py`
/// parses the middlebox sources and rejects any state write whose key prefix
/// is not declared here, and [`verify_deploy_spec`] uses it to decide which
/// stages are stateful (stateless stages place no replication demands on the
/// ring). Keep the table in sync with the `name => prefixes` pairs the
/// analyzer expects.
pub const DECLARED_STATE_PREFIXES: &[(&str, &[&str])] = &[
    ("monitor", &["mon:"]),
    ("gen", &["gen:"]),
    ("ids", &["ids:"]),
    ("lb", &["lb:"]),
    ("mazu_nat", &["mazu:"]),
    ("simple_nat", &["snat:"]),
    ("firewall", &[]),
    ("passthrough", &[]),
];

/// The spec-language name of a middlebox kind (the key used by
/// [`DECLARED_STATE_PREFIXES`], [`MIGRATION_MANIFEST`], and the static
/// analyzers in `scripts/`).
pub fn spec_kind_name(spec: &MbSpec) -> &'static str {
    match spec {
        MbSpec::Monitor { .. } => "monitor",
        MbSpec::Gen { .. } => "gen",
        MbSpec::Ids { .. } => "ids",
        MbSpec::LoadBalancer { .. } => "lb",
        MbSpec::MazuNat { .. } => "mazu_nat",
        MbSpec::SimpleNat { .. } => "simple_nat",
        MbSpec::Firewall { .. } => "firewall",
        MbSpec::Passthrough => "passthrough",
    }
}

/// The declared state-key prefixes for one spec (see
/// [`DECLARED_STATE_PREFIXES`]). Empty means stateless.
pub fn declared_state_prefixes(spec: &MbSpec) -> &'static [&'static str] {
    let name = spec_kind_name(spec);
    DECLARED_STATE_PREFIXES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| *p)
        .unwrap_or(&[])
}

/// Per-middlebox *migration manifests*: the state-key prefixes a planned
/// reconfiguration (an `ftc_core::reconfig`-style handover) transfers to
/// the destination instance. A migration is **complete** only when the
/// manifest covers every declared state prefix — any declared prefix
/// missing here is state the handover would silently leave behind on the
/// retired source, which is exactly the bug class the
/// migration-completeness lint (`scripts/analyze_migration.py` statically,
/// [`verify_migration_spec`] at deploy time) exists to reject.
pub const MIGRATION_MANIFEST: &[(&str, &[&str])] = &[
    ("monitor", &["mon:"]),
    ("gen", &["gen:"]),
    ("ids", &["ids:"]),
    ("lb", &["lb:"]),
    ("mazu_nat", &["mazu:"]),
    ("simple_nat", &["snat:"]),
    ("firewall", &[]),
    ("passthrough", &[]),
];

/// The migration manifest for one spec (see [`MIGRATION_MANIFEST`]).
/// Empty means the kind migrates no state (stateless stages).
pub fn migration_manifest(spec: &MbSpec) -> &'static [&'static str] {
    let name = spec_kind_name(spec);
    MIGRATION_MANIFEST
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| *p)
        .unwrap_or(&[])
}

/// Checks one middlebox kind's migration manifest against its declared
/// state prefixes. Violations:
///
/// * `migration-missing-prefix` — a declared prefix the manifest omits:
///   migrating this kind would strand that state on the retired source
///   (the destination starts serving with a partial committed prefix,
///   violating I6).
/// * `migration-unknown-prefix` — a manifested prefix nobody declares:
///   either the manifest is stale or the state escaped the
///   [`DECLARED_STATE_PREFIXES`] contract.
///
/// The table-backed wrapper is [`verify_migration_spec`]; this function
/// takes the sets explicitly so tests (and the static/dynamic agreement
/// property) can feed deliberately incomplete fixtures.
pub fn check_migration_manifest(
    name: &str,
    declared: &[&str],
    manifest: &[&str],
) -> Vec<SpecViolation> {
    let mut violations = Vec::new();
    for p in declared {
        if !manifest.contains(p) {
            violations.push(SpecViolation {
                code: "migration-missing-prefix",
                message: format!(
                    "`{name}` declares state under `{p}` but its migration \
                     manifest omits it: a handover would transfer a partial \
                     committed prefix and strand `{p}` state on the retired \
                     source (I6 violation); add `{p}` to `{name}` in \
                     MIGRATION_MANIFEST"
                ),
            });
        }
    }
    for p in manifest {
        if !declared.contains(p) {
            violations.push(SpecViolation {
                code: "migration-unknown-prefix",
                message: format!(
                    "`{name}` manifests `{p}` for migration but declares no \
                     such state prefix: remove the stale manifest entry or \
                     declare `{p}` in DECLARED_STATE_PREFIXES"
                ),
            });
        }
    }
    violations
}

/// Statically verifies that every middlebox in `specs` has a *complete*
/// migration manifest: each declared state prefix is covered, no unknown
/// prefixes are manifested. Run before accepting a chain for deployment —
/// a chain passing [`verify_deploy_spec`] can still be unsafe to
/// reconfigure if a stage's manifest lags its declared state.
pub fn verify_migration_spec(specs: &[MbSpec]) -> Result<(), Vec<SpecViolation>> {
    let mut violations = Vec::new();
    for spec in specs {
        violations.extend(check_migration_manifest(
            spec_kind_name(spec),
            declared_state_prefixes(spec),
            migration_manifest(spec),
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// A full deployment description: the chain plus the replication topology
/// it is asked to run on. Unlike `ChainConfig` (which pads and asserts its
/// way to a *valid* ring), this is the raw, possibly-infeasible input that
/// [`verify_deploy_spec`] vets before anything is built.
#[derive(Debug, Clone)]
pub struct DeploySpec {
    /// The middlebox stages, in chain order.
    pub middleboxes: Vec<MbSpec>,
    /// Failures to tolerate.
    pub f: usize,
    /// Number of replicas on the logical ring.
    pub ring_len: usize,
    /// Ring position whose output feeds the buffer. The protocol requires
    /// the *last* position (`ring_len - 1`): the buffer's release rule only
    /// sees commit vectors that have traversed every tail.
    pub buffer_pos: usize,
    /// State partitions per store.
    pub partitions: usize,
    /// Worker threads per replica.
    pub workers: usize,
}

impl DeploySpec {
    /// A feasible deployment for `middleboxes` with failure budget `f`:
    /// ring padded to `max(len, f+1)`, buffer after the last replica.
    pub fn feasible(middleboxes: Vec<MbSpec>, f: usize) -> DeploySpec {
        let ring_len = middleboxes.len().max(f + 1);
        DeploySpec {
            middleboxes,
            f,
            ring_len,
            buffer_pos: ring_len.saturating_sub(1),
            partitions: ftc_stm::DEFAULT_PARTITIONS,
            workers: 1,
        }
    }
}

/// One reason a [`DeploySpec`] cannot satisfy the protocol invariants, with
/// a stable machine-checkable `code` and an actionable human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecViolation {
    /// Stable identifier (e.g. `ring-too-short`).
    pub code: &'static str,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl core::fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

/// Statically verifies that `spec`'s topology can satisfy the paper's
/// invariants *before anything runs*: every replication group needs `f+1`
/// distinct ring positions (I1), every middlebox needs a ring slot, the
/// buffer must sit after the final tail (I1/I4 — a commit vector that skips
/// a tail proves nothing), and per-partition sequencing needs at least as
/// many partitions as workers (intra-node serializability, §4.3). Returns
/// all violations, not just the first.
pub fn verify_deploy_spec(spec: &DeploySpec) -> Result<(), Vec<SpecViolation>> {
    let mut violations = Vec::new();
    let stateful: Vec<&MbSpec> = spec
        .middleboxes
        .iter()
        .filter(|m| !declared_state_prefixes(m).is_empty())
        .collect();

    if spec.middleboxes.is_empty() {
        violations.push(SpecViolation {
            code: "empty-chain",
            message: "the chain has no middleboxes; declare at least one stage".into(),
        });
    }
    if spec.ring_len < spec.f + 1 {
        violations.push(SpecViolation {
            code: "ring-too-short",
            message: format!(
                "ring of {} replica(s) cannot hold f+1 = {} copies of a state \
                 update: a single failure wipes {}; extend the ring to at \
                 least {} replicas (pad with passthrough) or lower f",
                spec.ring_len,
                spec.f + 1,
                if stateful.is_empty() {
                    "the group".to_string()
                } else {
                    format!("{}'s only copy", stateful[0].name())
                },
                spec.f + 1,
            ),
        });
    }
    if spec.ring_len < spec.middleboxes.len() {
        violations.push(SpecViolation {
            code: "ring-shorter-than-chain",
            message: format!(
                "{} middleboxes declared but only {} ring position(s): every \
                 middlebox heads its own replication group, so the ring must \
                 be at least as long as the chain",
                spec.middleboxes.len(),
                spec.ring_len,
            ),
        });
    }
    if spec.ring_len > 0 && spec.buffer_pos != spec.ring_len - 1 {
        violations.push(SpecViolation {
            code: "buffer-before-tail",
            message: format!(
                "buffer attached after ring position {} but the ring ends at \
                 {}: packets would egress without traversing the tails of \
                 positions {}..{}, so their commit vectors never prove f+1 \
                 replication; attach the buffer after position {}",
                spec.buffer_pos,
                spec.ring_len - 1,
                spec.buffer_pos + 1,
                spec.ring_len - 1,
                spec.ring_len - 1,
            ),
        });
    }
    if spec.partitions < spec.workers {
        violations.push(SpecViolation {
            code: "partitions-lt-workers",
            message: format!(
                "{} worker(s) share {} state partition(s): per-partition \
                 sequence numbers cannot keep concurrent workers' updates \
                 ordered (§4.3); raise partitions to at least {}",
                spec.workers, spec.partitions, spec.workers,
            ),
        });
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_gateway_parses() {
        let specs = parse_chain(
            "firewall(deny_src=10.66.0.0/16, deny_ports=137-139) \
             -> ids(scan_threshold=8, signatures=EVIL|X-ATTACK) \
             -> monitor(sharing=2) \
             -> lb(backends=10.1.0.1|10.1.0.2) \
             -> mazu_nat(ext=203.0.113.1)",
        )
        .unwrap();
        assert_eq!(specs.len(), 5);
        assert!(matches!(specs[0], MbSpec::Firewall { ref rules } if rules.len() == 2));
        assert!(
            matches!(specs[1], MbSpec::Ids { scan_threshold: 8, ref signatures } if signatures.len() == 2)
        );
        assert!(matches!(specs[2], MbSpec::Monitor { sharing_level: 2 }));
        assert!(matches!(specs[3], MbSpec::LoadBalancer { ref backends } if backends.len() == 2));
        assert!(matches!(specs[4], MbSpec::MazuNat { .. }));
    }

    #[test]
    fn defaults_apply() {
        let specs = parse_chain("monitor -> gen -> passthrough").unwrap();
        assert!(matches!(specs[0], MbSpec::Monitor { sharing_level: 1 }));
        assert!(matches!(specs[1], MbSpec::Gen { state_size: 32 }));
        assert!(matches!(specs[2], MbSpec::Passthrough));
    }

    #[test]
    fn single_port_deny() {
        let specs = parse_chain("firewall(deny_ports=80)").unwrap();
        let MbSpec::Firewall { rules } = &specs[0] else {
            panic!()
        };
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn host_cidr_without_prefix() {
        let specs = parse_chain("firewall(deny_src=9.9.9.9)").unwrap();
        let MbSpec::Firewall { rules } = &specs[0] else {
            panic!()
        };
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_chain("monitor ->")
            .unwrap_err()
            .message
            .contains("empty stage"));
        assert!(parse_chain("nope")
            .unwrap_err()
            .message
            .contains("unknown middlebox"));
        assert!(parse_chain("mazu_nat")
            .unwrap_err()
            .message
            .contains("requires `ext"));
        assert!(parse_chain("monitor(sharing=abc)")
            .unwrap_err()
            .message
            .contains("not a number"));
        assert!(parse_chain("lb(backends=1.2.3)")
            .unwrap_err()
            .message
            .contains("IPv4"));
        assert!(parse_chain("firewall(deny_src=10.0.0.0/64)")
            .unwrap_err()
            .message
            .contains("prefix length"));
        assert!(parse_chain("firewall(deny_ports=70000)")
            .unwrap_err()
            .message
            .contains("not a port"));
        assert!(parse_chain("monitor(sharing)")
            .unwrap_err()
            .message
            .contains("key=value"));
        assert!(parse_chain("monitor(sharing=1")
            .unwrap_err()
            .message
            .contains("missing ')'"));
    }

    fn codes(violations: &[SpecViolation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.code).collect()
    }

    #[test]
    fn feasible_spec_passes_verification() {
        let specs = parse_chain("monitor -> ids(scan_threshold=4) -> gen").unwrap();
        verify_deploy_spec(&DeploySpec::feasible(specs, 1)).unwrap();
        let specs = parse_chain("monitor").unwrap();
        verify_deploy_spec(&DeploySpec::feasible(specs, 2)).unwrap();
    }

    #[test]
    fn ring_shorter_than_f_plus_one_is_rejected() {
        let mut spec = DeploySpec::feasible(parse_chain("monitor -> gen").unwrap(), 1);
        spec.f = 2; // 2-ring cannot hold 3 copies
        let violations = verify_deploy_spec(&spec).unwrap_err();
        assert!(codes(&violations).contains(&"ring-too-short"));
        let msg = &violations[0].message;
        assert!(msg.contains("f+1 = 3"), "actionable: {msg}");
        assert!(msg.contains("passthrough"), "suggests the fix: {msg}");
    }

    #[test]
    fn buffer_before_tail_is_rejected() {
        let mut spec = DeploySpec::feasible(parse_chain("monitor -> ids -> gen").unwrap(), 1);
        spec.buffer_pos = 1; // buffer between r1 and r2
        let violations = verify_deploy_spec(&spec).unwrap_err();
        assert_eq!(codes(&violations), vec!["buffer-before-tail"]);
        assert!(
            violations[0]
                .message
                .contains("attach the buffer after position 2"),
            "actionable: {}",
            violations[0].message
        );
    }

    #[test]
    fn ring_shorter_than_chain_is_rejected() {
        let mut spec = DeploySpec::feasible(parse_chain("monitor -> ids -> gen").unwrap(), 1);
        spec.ring_len = 2;
        spec.buffer_pos = 1;
        let violations = verify_deploy_spec(&spec).unwrap_err();
        assert!(codes(&violations).contains(&"ring-shorter-than-chain"));
    }

    #[test]
    fn partitions_fewer_than_workers_is_rejected() {
        let mut spec = DeploySpec::feasible(parse_chain("monitor").unwrap(), 1);
        spec.workers = 8;
        spec.partitions = 4;
        let violations = verify_deploy_spec(&spec).unwrap_err();
        assert_eq!(codes(&violations), vec!["partitions-lt-workers"]);
    }

    #[test]
    fn all_violations_are_reported_at_once() {
        let spec = DeploySpec {
            middleboxes: parse_chain("monitor -> gen").unwrap(),
            f: 3,
            ring_len: 1,
            buffer_pos: 5,
            partitions: 1,
            workers: 4,
        };
        let violations = verify_deploy_spec(&spec).unwrap_err();
        let cs = codes(&violations);
        assert!(cs.contains(&"ring-too-short"));
        assert!(cs.contains(&"ring-shorter-than-chain"));
        assert!(cs.contains(&"buffer-before-tail"));
        assert!(cs.contains(&"partitions-lt-workers"));
    }

    #[test]
    fn every_spec_kind_has_a_declared_prefix_entry() {
        let all = parse_chain(
            "monitor -> gen -> mazu_nat(ext=1.2.3.4) -> simple_nat(ext=1.2.3.4) \
             -> ids -> lb(backends=10.0.0.1) -> firewall -> passthrough",
        )
        .unwrap();
        assert_eq!(all.len(), DECLARED_STATE_PREFIXES.len());
        for spec in &all {
            // Stateless kinds declare an (empty) entry too — a missing row
            // would silently exempt a middlebox from the analyzer.
            let name_known = DECLARED_STATE_PREFIXES
                .iter()
                .any(|(_, p)| *p == declared_state_prefixes(spec));
            assert!(name_known, "{} missing from the table", spec.name());
        }
        assert_eq!(
            declared_state_prefixes(&MbSpec::Passthrough),
            &[] as &[&str]
        );
        assert_eq!(
            declared_state_prefixes(&MbSpec::Monitor { sharing_level: 1 }),
            &["mon:"]
        );
    }

    #[test]
    fn every_declared_prefix_is_in_the_migration_manifest() {
        let all = parse_chain(
            "monitor -> gen -> mazu_nat(ext=1.2.3.4) -> simple_nat(ext=1.2.3.4) \
             -> ids -> lb(backends=10.0.0.1) -> firewall -> passthrough",
        )
        .unwrap();
        assert_eq!(all.len(), MIGRATION_MANIFEST.len());
        verify_migration_spec(&all).unwrap();
    }

    #[test]
    fn incomplete_manifest_fixture_is_rejected() {
        // The fixture middlebox: declares two state prefixes, manifests
        // only one — the skipped `conn:` prefix is exactly the stranded
        // -state bug the lint exists for.
        let violations = check_migration_manifest("leaky_nat", &["conn:", "ports:"], &["ports:"]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].code, "migration-missing-prefix");
        assert!(
            violations[0].message.contains("strand `conn:` state"),
            "actionable: {}",
            violations[0].message
        );
    }

    #[test]
    fn unknown_manifest_prefix_is_rejected() {
        let violations = check_migration_manifest("monitor", &["mon:"], &["mon:", "ghost:"]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].code, "migration-unknown-prefix");
    }

    #[test]
    fn parsed_chain_actually_runs() {
        use crate::middlebox::ProcCtx;
        use ftc_packet::builder::UdpPacketBuilder;
        use ftc_stm::StateStore;
        let specs = parse_chain("monitor(sharing=1) -> firewall(deny_ports=23)").unwrap();
        let store = StateStore::new(8);
        let mb = specs[0].build();
        let mut pkt = UdpPacketBuilder::new().build();
        let out = store.transaction(|txn| mb.process(&mut pkt, txn, ProcCtx::single()));
        assert_eq!(out.value, crate::Action::Forward);
    }
}
