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
