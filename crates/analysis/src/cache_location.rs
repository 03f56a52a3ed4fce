//! Cache-location inference from traceroute RTTs.
//!
//! The paper's Figure 3 places caches geographically using the naming
//! scheme, "consistent with the UN/LOCODE scheme". Traceroute RTTs provide
//! the independent confirmation: a cache should be closest (RTT-wise) to
//! probes in its own city. This module runs that cross-check — infer each
//! cache's location as the city of the minimum-RTT probe, then compare
//! against the naming-scheme ground truth.

use crate::table::Table;
use mcdn_atlas::ProbeSpec;
use mcdn_geo::Registry;
use mcdn_scenario::tracecampaign::run_traceroutes;
use mcdn_scenario::World;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Result of locating one cache address.
#[derive(Debug, Clone, PartialEq)]
pub struct LocatedCache {
    /// The cache address.
    pub ip: Ipv4Addr,
    /// City inferred from the minimum-RTT probe.
    pub inferred_city: String,
    /// City from the naming scheme (ground truth), if the address has one.
    pub named_city: Option<String>,
    /// The minimum RTT observed, ms.
    pub min_rtt_ms: f64,
}

/// Locates each target by minimum RTT across a geographically diverse
/// probe set.
pub fn locate_caches(
    world: &World,
    probes: &[ProbeSpec],
    targets: &[Ipv4Addr],
) -> Vec<LocatedCache> {
    let campaign = run_traceroutes(world, probes, targets);
    // Per target: the probe with the lowest final-hop RTT.
    let mut best: HashMap<Ipv4Addr, (usize, f64)> = HashMap::new();
    for (probe_i, target, tr) in &campaign.traces {
        if let Some(last) = tr.hops.last() {
            let e = best.entry(*target).or_insert((*probe_i, f64::INFINITY));
            if last.rtt_ms < e.1 {
                *e = (*probe_i, last.rtt_ms);
            }
        }
    }
    targets
        .iter()
        .filter_map(|ip| {
            let (probe_i, rtt) = best.get(ip)?;
            let named_city = world.apple.ptr_lookup(*ip).and_then(|n| {
                Registry::by_locode(Registry::canonicalize(n.locode)).map(|c| c.name.to_string())
            });
            Some(LocatedCache {
                ip: *ip,
                inferred_city: probes[*probe_i].city.name.to_string(),
                named_city,
                min_rtt_ms: *rtt,
            })
        })
        .collect()
}

/// How often the RTT inference agrees with the naming scheme, over one
/// Apple vip per site, probed from one probe per distinct probe city.
pub fn naming_vs_rtt_agreement(world: &World, probes: &[ProbeSpec]) -> (usize, usize) {
    // One representative probe per city.
    let mut by_city: HashMap<&str, ProbeSpec> = HashMap::new();
    for p in probes {
        by_city.entry(p.city.name).or_insert(*p);
    }
    let probe_set: Vec<ProbeSpec> = by_city.into_values().collect();
    let probe_cities: std::collections::HashSet<&str> =
        probe_set.iter().map(|p| p.city.name).collect();

    // One vip per site whose city hosts a probe (the inference can only
    // name cities it has a vantage point in).
    let targets: Vec<Ipv4Addr> = world
        .apple
        .sites()
        .iter()
        .filter(|s| {
            Registry::by_locode(Registry::canonicalize(s.locode))
                .map(|c| probe_cities.contains(c.name))
                .unwrap_or(false)
        })
        .filter_map(|s| s.vip_addrs().first().copied())
        .collect();

    let located = locate_caches(world, &probe_set, &targets);
    let agree = located
        .iter()
        .filter(|l| l.named_city.as_deref() == Some(l.inferred_city.as_str()))
        .count();
    (agree, located.len())
}

/// The cross-check as a table.
pub fn location_table(world: &World, probes: &[ProbeSpec], targets: &[Ipv4Addr]) -> Table {
    let mut t = Table::new(
        "Cache location: naming scheme vs minimum-RTT inference",
        &[
            "cache",
            "named city",
            "RTT-inferred city",
            "min RTT (ms)",
            "agree",
        ],
    );
    for l in locate_caches(world, probes, targets) {
        let named = l.named_city.clone().unwrap_or_else(|| "—".into());
        let agree = l.named_city.as_deref() == Some(l.inferred_city.as_str());
        t.push(vec![
            l.ip.to_string(),
            named,
            l.inferred_city.clone(),
            format!("{:.1}", l.min_rtt_ms),
            agree.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_scenario::ScenarioConfig;

    #[test]
    fn rtt_inference_agrees_with_naming_scheme() {
        let world = World::build(&ScenarioConfig::fast());
        let (agree, total) = naming_vs_rtt_agreement(&world, &world.global_probe_specs);
        assert!(total >= 10, "enough co-located sites to test ({total})");
        assert!(
            agree * 10 >= total * 8,
            "≥80% agreement expected, got {agree}/{total}"
        );
    }

    #[test]
    fn table_renders_with_rtts() {
        let world = World::build(&ScenarioConfig::fast());
        let probes: Vec<_> = world.global_probe_specs.iter().take(20).cloned().collect();
        let targets = vec![world.apple_isp_vips[0]];
        let t = location_table(&world, &probes, &targets);
        assert_eq!(t.rows.len(), 1);
        let rtt: f64 = t.rows[0][3].parse().unwrap();
        assert!(rtt > 0.0 && rtt < 500.0);
    }
}
