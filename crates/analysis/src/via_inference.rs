//! Cache-hierarchy inference from HTTP headers (§3.3).
//!
//! The paper infers the internal structure of Apple's edge sites purely
//! from download response headers: `Via` chains show `edge-bx` caches in
//! front of `edge-lx` parents in front of an origin shield, and the
//! `vip`/`edge` naming plus observed fan-in implies each advertised vip
//! address fronts four `edge-bx` servers. This module re-runs that
//! inference over a corpus of simulated downloads.

use crate::table::Table;
use mcdn_cdn::naming::{Function, ServerName, SubFunction};
use mcdn_cdn::{HttpRequest, HttpResponse};
use mcdn_scenario::World;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// What a header corpus reveals about one site's internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyReport {
    /// Distinct client-facing `edge-bx` hosts seen.
    pub bx_hosts: usize,
    /// Distinct `edge-lx` parents seen.
    pub lx_hosts: usize,
    /// Distinct vips observed fronting requests.
    pub vips: usize,
    /// Inferred edge-bx per vip (the paper concludes 4).
    pub bx_per_vip: usize,
    /// Whether any chain showed an origin-shield (CloudFront) hop.
    pub origin_shield_seen: bool,
    /// Whether every host name in every `Via` chain parses under the
    /// Table 1 scheme.
    pub all_names_parse: bool,
}

/// Downloads `n_clients` distinct objects/clients through the site at
/// `site_index` and infers the hierarchy from the response headers alone
/// (the outcome struct is used only to learn the fronting vip, which in
/// reality is the IP the client connected to).
pub fn infer_hierarchy(world: &mut World, site_index: usize, n_clients: u32) -> HierarchyReport {
    let site = &mut world.apple.sites_mut()[site_index];
    let mut bx: BTreeSet<String> = BTreeSet::new();
    let mut lx: BTreeSet<String> = BTreeSet::new();
    let mut vip_to_bx: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut origin_shield_seen = false;
    let mut all_names_parse = true;
    for i in 0..n_clients {
        let client = Ipv4Addr::from(0x5411_0000u32 + i * 97);
        let req = HttpRequest {
            host: "appldnld.apple.com".into(),
            path: format!("/ios/obj-{}.ipsw", i % 7),
            client,
        };
        let object = req.path.clone();
        let (resp, outcome) = site.serve(&req, &object, 1_000_000);
        // Re-parse the rendered headers, exactly as a measurement would.
        let via = HttpResponse::parse_via(&resp.via_header()).expect("rendered Via parses");
        for hop in via {
            if hop.host.ends_with("cloudfront.net") {
                origin_shield_seen = true;
                continue;
            }
            match ServerName::parse(&hop.host) {
                Some(name) => match (name.function, name.subfunction) {
                    (Function::Edge, SubFunction::Bx) => {
                        bx.insert(hop.host.clone());
                        vip_to_bx
                            .entry(outcome.vip.fqdn())
                            .or_default()
                            .insert(hop.host.clone());
                    }
                    (Function::Edge, SubFunction::Lx) => {
                        lx.insert(hop.host.clone());
                    }
                    _ => {}
                },
                None => all_names_parse = false,
            }
        }
    }
    let vips = vip_to_bx.len();
    let bx_per_vip = if vips > 0 {
        vip_to_bx.values().map(BTreeSet::len).max().unwrap_or(0)
    } else {
        0
    };
    HierarchyReport {
        bx_hosts: bx.len(),
        lx_hosts: lx.len(),
        vips,
        bx_per_vip,
        origin_shield_seen,
        all_names_parse,
    }
}

/// The report as a printable table.
pub fn hierarchy_table(report: &HierarchyReport) -> Table {
    let mut t = Table::new(
        "§3.3 — cache hierarchy inferred from Via/X-Cache headers",
        &["observable", "value"],
    );
    t.push(vec![
        "distinct edge-bx hosts in Via".into(),
        report.bx_hosts.to_string(),
    ]);
    t.push(vec![
        "distinct edge-lx parents in Via".into(),
        report.lx_hosts.to_string(),
    ]);
    t.push(vec![
        "distinct fronting vips".into(),
        report.vips.to_string(),
    ]);
    t.push(vec![
        "max edge-bx per vip".into(),
        report.bx_per_vip.to_string(),
    ]);
    t.push(vec![
        "origin shield (CloudFront) seen".into(),
        report.origin_shield_seen.to_string(),
    ]);
    t.push(vec![
        "all Via names follow Table 1 scheme".into(),
        report.all_names_parse.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_scenario::ScenarioConfig;

    #[test]
    fn infers_the_papers_conclusions() {
        let mut world = World::build(&ScenarioConfig::fast());
        let report = infer_hierarchy(&mut world, 0, 600);
        // Paper conclusions: bx fronted by vips in groups of four, an lx
        // parent tier, an origin shield, and scheme-conformant names.
        assert_eq!(report.bx_per_vip, 4, "one vip fronts four edge-bx");
        assert!(report.lx_hosts >= 1 && report.lx_hosts <= 2);
        assert!(report.origin_shield_seen);
        assert!(report.all_names_parse);
        assert!(
            report.bx_hosts > report.lx_hosts,
            "bx tier is wider than lx"
        );
    }

    #[test]
    fn table_renders() {
        let mut world = World::build(&ScenarioConfig::fast());
        let report = infer_hierarchy(&mut world, 2, 100);
        let t = hierarchy_table(&report);
        assert_eq!(t.rows.len(), 6);
    }
}
