//! Both materializations of every mapping policy agree.
//!
//! A mapping policy answers once, into a `PolicyAnswer`. The name-keyed
//! edge (`Zone::answer`: overlay names, the Fig. 2 crawl) and the interned
//! engine (`CompiledNamespace`, behind every campaign and the
//! `RecursiveResolver` adapter) turn that one answer into records
//! separately. Over every policy of the paper world and a grid of clients
//! and instants around the release, both must yield the same owner, TTL
//! and rdata sequence.

use metacdn_suite::dnssim::{QueryContext, RecursiveResolver, ZoneAnswer};
use metacdn_suite::dnswire::{Name, RData, RecordType};
use metacdn_suite::geo::Duration;
use metacdn_suite::scenario::{loads, params, ScenarioConfig, World};
use std::collections::HashSet;
use std::net::Ipv4Addr;

#[test]
fn zone_answer_and_compiled_query_agree_for_every_policy() {
    let cfg = ScenarioConfig::paper();
    let world = World::build(&cfg);
    let policies: Vec<(Name, usize)> = world
        .ns
        .zones()
        .iter()
        .enumerate()
        .flat_map(|(zi, z)| z.policy_names().into_iter().map(move |n| (n.clone(), zi)))
        .collect();
    assert!(
        policies.len() >= 12,
        "the paper world has the whole mapping chain"
    );
    // Every city hosting a global or ISP probe, with that probe's address.
    let mut seen = HashSet::new();
    let sites: Vec<_> = world
        .global_probe_specs
        .iter()
        .chain(&world.isp_probe_specs)
        .filter(|spec| seen.insert(spec.city.locode))
        .collect();
    let release = params::release();
    // Before the release, during the flash crowd, while the a1015 event
    // map serves, and after.
    let instants = [
        release - Duration::days(1),
        release + Duration::hours(1),
        release + Duration::hours(7),
        release + Duration::days(2),
    ];
    let mut resolver = RecursiveResolver::new(&world.ns);
    let (mut compared, mut cnames, mut addrs) = (0u64, 0u64, 0u64);
    let mut answered = HashSet::new();
    // Walk the controller as the campaigns do, so its load history (and
    // the a1015 activation) is the campaign's.
    let mut t = release - Duration::days(2);
    for at in instants {
        while t <= at {
            loads::update_loads(&world, t);
            t += Duration::mins(30);
        }
        for spec in &sites {
            let base = u32::from(spec.ip);
            for client_ip in [base, base ^ 1, base.wrapping_add(0x100), base ^ 0xff] {
                let ctx = QueryContext {
                    client_ip: Ipv4Addr::from(client_ip),
                    locode: spec.city.locode,
                    coord: spec.city.coord,
                    continent: spec.city.continent,
                    now: at,
                };
                for (owner, zi) in &policies {
                    let zone = &world.ns.zones()[*zi];
                    for qtype in [RecordType::A, RecordType::Aaaa] {
                        let ZoneAnswer::Records(named) = zone.answer(owner, qtype, &ctx) else {
                            panic!("a policy always answers with records at {owner}");
                        };
                        resolver.flush();
                        let (trace, _) = resolver.resolve(owner, qtype, &ctx);
                        let step = &trace.steps[0];
                        assert!(!step.from_cache);
                        assert_eq!(step.zone.as_ref(), Some(zone.origin()));
                        assert_eq!(
                            step.records, named,
                            "{owner} {qtype:?} for {} at {at}",
                            ctx.client_ip
                        );
                        for rr in &named {
                            assert_eq!(&rr.name, owner, "a policy's records are owned by its name");
                            match rr.rdata {
                                RData::Cname(_) => cnames += 1,
                                RData::A(_) => addrs += 1,
                                _ => panic!("policies answer CNAME or A only"),
                            }
                        }
                        if !named.is_empty() {
                            answered.insert(owner.clone());
                        }
                        if qtype == RecordType::Aaaa {
                            assert!(named.is_empty(), "no AAAA from {owner}");
                        }
                        compared += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        answered.len(),
        policies.len(),
        "every policy answered at least once"
    );
    assert!(cnames > 0 && addrs > 0);
    assert_eq!(
        compared,
        (sites.len() * 4 * instants.len() * policies.len() * 2) as u64
    );
}
