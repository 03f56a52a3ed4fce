//! The traceroute campaign: "we perform traceroutes to all server IPs
//! identified via DNS every hour" (§3.2).
//!
//! Traceroutes serve two purposes in the paper: confirming the AS-level
//! location of cache addresses and supporting the geographic placement of
//! Apple's sites. The campaign here runs from the probe fleet to a target
//! set (normally the DNS-observed addresses) and records full paths with
//! RTTs.

use crate::world::World;
use mcdn_atlas::ProbeSpec;
use mcdn_netsim::{traceroute, Router, Traceroute};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Result of one traceroute sweep.
pub struct TracerouteCampaignResult {
    /// One entry per (probe index, target): the measured path.
    pub traces: Vec<(usize, Ipv4Addr, Traceroute)>,
    /// Targets that no probe could reach (should be empty).
    pub unreachable: Vec<Ipv4Addr>,
}

/// The physical coordinate of a cache address, when derivable: Apple
/// addresses carry their site in the rDNS naming scheme.
fn target_coord(world: &World, ip: Ipv4Addr) -> Option<mcdn_geo::Coord> {
    let name = world.apple.ptr_lookup(ip)?;
    let canonical = mcdn_geo::Registry::canonicalize(name.locode);
    mcdn_geo::Registry::by_locode(canonical).map(|c| c.coord)
}

/// Traceroutes every `target` from every probe in `specs`.
pub fn run_traceroutes(
    world: &World,
    specs: &[ProbeSpec],
    targets: &[Ipv4Addr],
) -> TracerouteCampaignResult {
    let mut router = Router::new();
    let mut traces = Vec::with_capacity(specs.len() * targets.len());
    let mut reached: HashMap<Ipv4Addr, bool> = targets.iter().map(|t| (*t, false)).collect();
    for (i, spec) in specs.iter().enumerate() {
        for target in targets {
            let tr = traceroute::trace_between(
                &world.topo,
                &mut router,
                spec.as_id,
                *target,
                Some(spec.city.coord),
                target_coord(world, *target),
            );
            if tr.reached {
                reached.insert(*target, true);
            }
            traces.push((i, *target, tr));
        }
    }
    let unreachable = reached
        .into_iter()
        .filter(|(_, ok)| !ok)
        .map(|(ip, _)| ip)
        .collect();
    TracerouteCampaignResult {
        traces,
        unreachable,
    }
}

/// For each target, the minimum observed RTT across probes — the signal
/// used to argue a cache is near a given population.
pub fn min_rtt_per_target(result: &TracerouteCampaignResult) -> HashMap<Ipv4Addr, f64> {
    let mut out: HashMap<Ipv4Addr, f64> = HashMap::new();
    for (_, target, tr) in &result.traces {
        if let Some(last) = tr.hops.last() {
            let e = out.entry(*target).or_insert(f64::INFINITY);
            *e = e.min(last.rtt_ms);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::params;

    #[test]
    fn all_cdn_targets_are_reachable() {
        let world = World::build(&ScenarioConfig::fast());
        let targets: Vec<Ipv4Addr> = vec![
            "17.253.1.1".parse().unwrap(), // Apple vip
            "23.0.0.1".parse().unwrap(),   // Akamai on-net
            "68.232.0.1".parse().unwrap(), // Limelight on-net
            "69.28.64.2".parse().unwrap(), // LL surge cache behind AS D
            "96.6.0.2".parse().unwrap(),   // Akamai off-net
        ];
        let specs: Vec<_> = world.isp_probe_specs.iter().take(5).cloned().collect();
        let result = run_traceroutes(&world, &specs, &targets);
        assert!(result.unreachable.is_empty(), "{:?}", result.unreachable);
        assert_eq!(result.traces.len(), 25);
    }

    #[test]
    fn paths_end_in_the_expected_as() {
        let world = World::build(&ScenarioConfig::fast());
        let specs: Vec<_> = world.isp_probe_specs.iter().take(2).cloned().collect();
        let target: Ipv4Addr = "69.28.64.2".parse().unwrap();
        let result = run_traceroutes(&world, &specs, &[target]);
        for (_, _, tr) in &result.traces {
            assert_eq!(tr.hops.last().unwrap().asn, params::LL_SURGE_D_AS);
            // The hop before last must be AS D (the handover).
            let hop_ases: Vec<_> = tr.hops.iter().map(|h| h.asn).collect();
            assert!(hop_ases.contains(&params::TRANSIT_D), "{hop_ases:?}");
        }
    }

    #[test]
    fn min_rtt_reflects_distance() {
        let world = World::build(&ScenarioConfig::fast());
        // ISP probes (Germany) vs targets in Frankfurt (Apple site block 16,
        // defra) and in a US block: nearer target has lower min RTT.
        let defra_vip = world.apple_isp_vips[0];
        let us_vip = world
            .apple
            .sites()
            .iter()
            .find(|s| s.locode.as_str() == "ussjc")
            .unwrap()
            .vip_addrs()[0];
        let specs: Vec<_> = world.isp_probe_specs.iter().take(10).cloned().collect();
        let result = run_traceroutes(&world, &specs, &[defra_vip, us_vip]);
        let rtts = min_rtt_per_target(&result);
        assert!(
            rtts[&defra_vip] < rtts[&us_vip],
            "Frankfurt cache must be closer: {:.1} vs {:.1} ms",
            rtts[&defra_vip],
            rtts[&us_vip]
        );
    }
}
