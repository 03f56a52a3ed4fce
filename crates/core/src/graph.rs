//! The expected request-mapping graph (Figure 2) as data.
//!
//! [`mapping_graph`] returns the CNAME edges the paper draws, with operators
//! and TTLs. The analysis crate crawls the *live* namespace from vantage
//! points and diffs the observed edges against this expectation — the same
//! way the paper assembled Figure 2 from many resolutions.

use crate::names;
use mcdn_geo::Region;

/// Who operates the zone a node lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// Apple-operated zone (`apple.com`, `applimg.com`).
    Apple,
    /// Akamai-operated zone (`akadns.net`, `edgesuite.net`, `akamai.net`).
    Akamai,
    /// Limelight-operated zone (`llnwi.net`, `llnwd.net`).
    Limelight,
}

/// One CNAME edge of the mapping graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// Owner name.
    pub from: String,
    /// Target name.
    pub to: String,
    /// TTL on the edge, seconds.
    pub ttl: u32,
    /// Operator of the zone serving the edge.
    pub operator: Operator,
    /// Whether this edge only exists during the flash-crowd event (the
    /// orange checker pattern in Figure 2).
    pub event_only: bool,
}

/// The full expected mapping graph. With `include_event_path` the
/// `a1015.gi3.akamai.net` edge added during the iOS 11 rollout is included.
pub fn mapping_graph(include_event_path: bool) -> Vec<GraphEdge> {
    let e = |from: &dyn std::fmt::Display, to: &dyn std::fmt::Display, ttl, operator| GraphEdge {
        from: from.to_string(),
        to: to.to_string(),
        ttl,
        operator,
        event_only: false,
    };
    let mut edges = vec![
        e(
            &names::entry(),
            &names::geo_split(),
            names::TTL_ENTRY,
            Operator::Apple,
        ),
        e(
            &names::geo_split(),
            &names::special_lb("china"),
            names::TTL_GEO,
            Operator::Akamai,
        ),
        e(
            &names::geo_split(),
            &names::special_lb("india"),
            names::TTL_GEO,
            Operator::Akamai,
        ),
        e(
            &names::geo_split(),
            &names::selector(),
            names::TTL_GEO,
            Operator::Akamai,
        ),
        e(
            &names::selector(),
            &names::gslb('a'),
            names::TTL_SELECTOR,
            Operator::Apple,
        ),
        e(
            &names::selector(),
            &names::gslb('b'),
            names::TTL_SELECTOR,
            Operator::Apple,
        ),
    ];
    for region in Region::ALL {
        edges.push(e(
            &names::selector(),
            &names::region_lb(region),
            names::TTL_SELECTOR,
            Operator::Apple,
        ));
        edges.push(e(
            &names::region_lb(region),
            &names::akamai_edgesuite(),
            names::TTL_REGION_LB,
            Operator::Akamai,
        ));
        edges.push(e(
            &names::region_lb(region),
            &names::limelight_lb(region),
            names::TTL_REGION_LB,
            Operator::Akamai,
        ));
    }
    edges.dedup();
    edges.push(e(
        &names::akamai_edgesuite(),
        &names::akamai_map_baseline(),
        names::TTL_EDGESUITE,
        Operator::Akamai,
    ));
    if include_event_path {
        edges.push(GraphEdge {
            from: names::akamai_edgesuite().to_string(),
            to: names::akamai_map_event().to_string(),
            ttl: names::TTL_EDGESUITE,
            operator: Operator::Akamai,
            event_only: true,
        });
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_graph_has_no_event_edges() {
        let g = mapping_graph(false);
        assert!(g.iter().all(|e| !e.event_only));
        assert!(g.iter().any(|e| e.to == "a1271.gi3.akamai.net"));
        assert!(!g.iter().any(|e| e.to == "a1015.gi3.akamai.net"));
    }

    #[test]
    fn event_graph_adds_a1015() {
        let g = mapping_graph(true);
        let ev: Vec<_> = g.iter().filter(|e| e.event_only).collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].to, "a1015.gi3.akamai.net");
    }

    #[test]
    fn entry_edge_matches_paper() {
        let g = mapping_graph(false);
        let entry = g.iter().find(|e| e.from == "appldnld.apple.com").unwrap();
        assert_eq!(entry.to, "appldnld.apple.com.akadns.net");
        assert_eq!(entry.ttl, 21600);
        assert_eq!(entry.operator, Operator::Apple);
    }

    #[test]
    fn three_region_lbs_present() {
        let g = mapping_graph(false);
        for r in ["us", "eu", "apac"] {
            let name = format!("ios8-{r}-lb.apple.com.akadns.net");
            assert!(g.iter().any(|e| e.from == name), "missing {name}");
        }
    }

    #[test]
    fn limelight_split_us_vs_apac() {
        let g = mapping_graph(false);
        assert!(g
            .iter()
            .any(|e| e.from.contains("ios8-us-lb") && e.to == "apple.vo.llnwi.net"));
        assert!(g
            .iter()
            .any(|e| e.from.contains("ios8-apac-lb") && e.to == "apple-dnld.vo.llnwd.net"));
    }
}
