//! Figure 3: Apple delivery-site locations, rediscovered by scanning.
//!
//! Method as in the paper (§3.3): sweep Apple's address space for hosts
//! serving iOS images, enumerate their reverse-DNS names, parse the naming
//! scheme, and group by location — yielding the site map with
//! `<# sites>/<# edge-bx servers>` labels.

use crate::table::Table;
use mcdn_atlas::scan_prefix;
use mcdn_cdn::naming::{Function, ServerName, SubFunction};
use mcdn_cdn::AppleCdn;
use mcdn_geo::{Locode, Registry};
use mcdn_scenario::World;
use std::collections::BTreeMap;

/// One rediscovered location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRow {
    /// Location code as Apple spells it (e.g. `uklon`).
    pub locode: String,
    /// Resolved city name, if the LOCODE is known.
    pub city: String,
    /// Continent name.
    pub continent: String,
    /// Distinct site ids at the location.
    pub sites: usize,
    /// Total `edge-bx` servers across those sites.
    pub edge_bx: usize,
}

/// Runs the discovery scan over the delivery prefix and aggregates by
/// location. (The paper scanned all of 17.0.0.0/8; the delivery servers
/// live in 17.253.0.0/16, which we sweep exhaustively — a strided /8 sweep
/// finds the same hosts, as the integration tests verify.)
pub fn discover_sites(world: &World) -> Vec<SiteRow> {
    let hits = scan_prefix(
        AppleCdn::delivery_prefix(),
        1,
        |ip| world.apple.serves_ios_images(ip),
        |ip| world.apple.ptr_lookup(ip).map(|n| n.fqdn()),
    );
    let mut by_loc: BTreeMap<String, (std::collections::BTreeSet<u8>, usize)> = BTreeMap::new();
    for hit in hits {
        let Some(ptr) = hit.ptr else { continue };
        let Some(name) = ServerName::parse(&ptr) else {
            continue;
        };
        let entry = by_loc.entry(name.locode.to_string()).or_default();
        entry.0.insert(name.site_id);
        // Count edge-bx servers only, as the paper's labels do.
        if name.function == Function::Edge && name.subfunction == SubFunction::Bx {
            entry.1 += 1;
        }
    }
    by_loc
        .into_iter()
        .map(|(loc, (sites, edge_bx))| {
            let city = Locode::parse(&loc).and_then(Registry::by_locode);
            SiteRow {
                locode: loc,
                city: city
                    .map(|c| c.name.to_string())
                    .unwrap_or_else(|| "?".into()),
                continent: city
                    .map(|c| c.continent.name().to_string())
                    .unwrap_or_default(),
                sites: sites.len(),
                edge_bx,
            }
        })
        .collect()
}

/// Regenerates Figure 3 as a table, one row per discovered location with
/// the paper's `sites/servers` label.
pub fn fig3(world: &World) -> Table {
    let mut t = Table::new(
        "Figure 3 — Apple delivery server locations (discovered by scan)",
        &["locode", "city", "continent", "sites", "edge-bx", "label"],
    );
    for row in discover_sites(world) {
        t.push(vec![
            row.locode.clone(),
            row.city.clone(),
            row.continent.clone(),
            row.sites.to_string(),
            row.edge_bx.to_string(),
            format!("{}/{}", row.sites, row.edge_bx),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_scenario::ScenarioConfig;

    #[test]
    fn rediscovers_34_locations() {
        let world = World::build(&ScenarioConfig::fast());
        let rows = discover_sites(&world);
        assert_eq!(rows.len(), 34, "the paper found 34 site locations");
        // The scan must reproduce the ground truth exactly.
        let total_bx: usize = rows.iter().map(|r| r.edge_bx).sum();
        assert_eq!(total_bx, world.apple.total_bx());
        // London appears under Apple's uklon alias but resolves to London.
        let london = rows
            .iter()
            .find(|r| r.locode == "uklon")
            .expect("uklon row");
        assert_eq!(london.city, "London");
        assert_eq!(london.sites, 2);
        // No South American or African locations.
        assert!(rows
            .iter()
            .all(|r| r.continent != "South America" && r.continent != "Africa"));
    }

    #[test]
    fn labels_match_site_structure() {
        let world = World::build(&ScenarioConfig::fast());
        let t = fig3(&world);
        let frankfurt = t.find_row(0, "defra").expect("defra row");
        assert_eq!(frankfurt[5], "2/80", "Frankfurt hosts two 40-bx sites");
    }
}
