//! Iterative resolution: walking NS delegations from the root.
//!
//! The AWS vantage points in the paper performed "full recursive DNS
//! resolution" — not stub queries against a shared cache but an iterative
//! walk from the root through each zone's NS delegation. This module
//! implements that walk over the simulated namespace: a [`RootHints`]-style
//! delegation tree is derived from the installed zones, and
//! [`IterativeResolver`] descends it referral by referral, recording every
//! zone visited. The result must agree with the shortcut resolver (a test
//! pins that), but the *path* is observable — which is how one can tell an
//! Akamai-operated zone answered a step of Apple's chain.

use crate::context::QueryContext;
use crate::resolver::MAX_CHAIN;
use crate::zone::{Namespace, ZoneAnswer};
use mcdn_dnswire::{Name, RData, RecordType};
use std::net::Ipv4Addr;

/// One step of the iterative walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationStep {
    /// The name being resolved at this step.
    pub qname: Name,
    /// The zone that was consulted.
    pub zone: Name,
    /// Whether the zone referred us onward (CNAME) or answered terminally.
    pub referred: bool,
}

/// Outcome of an iterative resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterativeOutcome {
    /// Zones consulted, in order.
    pub steps: Vec<IterationStep>,
    /// Terminal addresses.
    pub addrs: Vec<Ipv4Addr>,
}

/// Errors of the iterative walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IterativeError {
    /// No installed zone is authoritative for the name.
    NoAuthority(Name),
    /// The name does not exist.
    NxDomain(Name),
    /// Referral chain exceeded the hop budget.
    TooManyReferrals,
}

/// A resolver that walks delegations explicitly instead of asking the
/// namespace as an oracle.
#[derive(Debug, Default)]
pub struct IterativeResolver;

impl IterativeResolver {
    /// A fresh iterative resolver (stateless; full walks never cache, like
    /// the paper's VM measurements).
    pub fn new() -> IterativeResolver {
        IterativeResolver
    }

    /// Resolves `qname`/`qtype`, descending through each authoritative zone
    /// and following CNAME referrals across operators.
    pub fn resolve(
        &self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
    ) -> Result<IterativeOutcome, IterativeError> {
        let mut steps = Vec::new();
        let mut addrs = Vec::new();
        let mut current = qname.clone();
        for _ in 0..MAX_CHAIN {
            // Find the authoritative zone — the "descend the delegation
            // tree" part. We model the tree implicitly: the most specific
            // installed zone is what a root-down walk would reach, and the
            // walk records it.
            let zone = ns
                .authority_for(&current)
                .ok_or_else(|| IterativeError::NoAuthority(current.clone()))?;
            match zone.answer(&current, qtype, ctx) {
                ZoneAnswer::Records(mut rrs) => {
                    // The iterative walk is always strict about bailiwick:
                    // a zone can only answer for names it is authoritative
                    // over, exactly as a validating root-down walk behaves.
                    rrs.retain(|rr| rr.name.is_within(zone.origin()));
                    let mut next = None;
                    for rr in &rrs {
                        match &rr.rdata {
                            RData::A(a) if qtype == RecordType::A => addrs.push(*a),
                            RData::Cname(target) if qtype != RecordType::Cname => {
                                next = Some(target.clone());
                            }
                            _ => {}
                        }
                    }
                    let terminal = rrs.iter().any(|rr| rr.rtype() == qtype);
                    steps.push(IterationStep {
                        qname: current.clone(),
                        zone: zone.origin().clone(),
                        referred: next.is_some() && !terminal,
                    });
                    match next {
                        Some(target) if !terminal => current = target,
                        _ => return Ok(IterativeOutcome { steps, addrs }),
                    }
                }
                ZoneAnswer::NoData => {
                    steps.push(IterationStep {
                        qname: current.clone(),
                        zone: zone.origin().clone(),
                        referred: false,
                    });
                    return Ok(IterativeOutcome { steps, addrs });
                }
                ZoneAnswer::NxDomain => return Err(IterativeError::NxDomain(current)),
            }
        }
        Err(IterativeError::TooManyReferrals)
    }

    /// The distinct zone operators consulted during a walk — the paper's
    /// observation that Apple's chain crosses Apple- and Akamai-run zones.
    pub fn operators_visited(outcome: &IterativeOutcome) -> Vec<Name> {
        let mut zones: Vec<Name> = outcome.steps.iter().map(|s| s.zone.clone()).collect();
        zones.dedup();
        zones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use mcdn_geo::{Continent, Coord, Locode, SimTime};

    fn ctx() -> QueryContext {
        QueryContext {
            client_ip: Ipv4Addr::new(84, 17, 0, 1),
            locode: Locode::parse("defra").unwrap(),
            coord: Coord::new(50.1, 8.7),
            continent: Continent::Europe,
            now: SimTime::from_ymd(2017, 9, 15),
        }
    }

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn three_operator_ns() -> Namespace {
        let mut ns = Namespace::new();
        let mut apple = Zone::new(n("apple.com"));
        apple.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        ns.add_zone(apple);
        let mut akadns = Zone::new(n("akadns.net"));
        akadns.add_cname("appldnld.apple.com.akadns.net", "appldnld.g.applimg.com", 120);
        ns.add_zone(akadns);
        let mut applimg = Zone::new(n("applimg.com"));
        applimg.add_a("appldnld.g.applimg.com", Ipv4Addr::new(17, 253, 5, 1), 15);
        ns.add_zone(applimg);
        ns
    }

    #[test]
    fn walk_crosses_three_operators() {
        let ns = three_operator_ns();
        let r = IterativeResolver::new();
        let out = r.resolve(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx()).unwrap();
        assert_eq!(out.addrs, vec![Ipv4Addr::new(17, 253, 5, 1)]);
        let ops = IterativeResolver::operators_visited(&out);
        assert_eq!(ops, vec![n("apple.com"), n("akadns.net"), n("applimg.com")]);
        assert!(out.steps[0].referred && out.steps[1].referred && !out.steps[2].referred);
    }

    #[test]
    fn agrees_with_shortcut_resolver() {
        let ns = three_operator_ns();
        let iterative = IterativeResolver::new()
            .resolve(&ns, &n("appldnld.apple.com"), RecordType::A, &ctx())
            .unwrap();
        let mut recursive = crate::resolver::RecursiveResolver::new(&ns);
        let (trace, res) = recursive.resolve(&n("appldnld.apple.com"), RecordType::A, &ctx());
        res.unwrap();
        assert_eq!(iterative.addrs, trace.addresses());
    }

    #[test]
    fn nxdomain_and_no_authority() {
        let ns = three_operator_ns();
        let r = IterativeResolver::new();
        assert_eq!(
            r.resolve(&ns, &n("missing.apple.com"), RecordType::A, &ctx()).unwrap_err(),
            IterativeError::NxDomain(n("missing.apple.com"))
        );
        assert_eq!(
            r.resolve(&ns, &n("example.invalid"), RecordType::A, &ctx()).unwrap_err(),
            IterativeError::NoAuthority(n("example.invalid"))
        );
    }

    #[test]
    fn referral_loop_bounded() {
        let mut ns = Namespace::new();
        let mut z = Zone::new(n("loop.test"));
        z.add_cname("a.loop.test", "b.loop.test", 60);
        z.add_cname("b.loop.test", "a.loop.test", 60);
        ns.add_zone(z);
        let r = IterativeResolver::new();
        assert_eq!(
            r.resolve(&ns, &n("a.loop.test"), RecordType::A, &ctx()).unwrap_err(),
            IterativeError::TooManyReferrals
        );
    }

    #[test]
    fn nodata_walk_terminates_cleanly() {
        let ns = three_operator_ns();
        let r = IterativeResolver::new();
        let out = r.resolve(&ns, &n("appldnld.apple.com"), RecordType::Aaaa, &ctx()).unwrap();
        assert!(out.addrs.is_empty());
        // The walk still crossed the CNAME chain before finding no AAAA.
        assert!(out.steps.len() >= 2);
    }
}
