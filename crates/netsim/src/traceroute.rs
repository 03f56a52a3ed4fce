//! Traceroute simulation: AS-path expansion into hops with RTT estimates.
//!
//! The paper issues hourly traceroutes from every RIPE Atlas probe to every
//! server IP seen in DNS answers (§3.2) to support cache-location inference.
//! The simulated equivalent expands the valley-free AS path into one hop per
//! AS border router, with cumulative RTTs derived from great-circle
//! propagation between AS locations plus a per-hop processing cost.

use crate::routing::Router;
use crate::topology::{AsId, Topology};
use std::net::Ipv4Addr;

/// Per-hop processing/queueing delay added on top of propagation, in ms.
const HOP_COST_MS: f64 = 0.5;

/// One traceroute hop.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// The AS this hop's router belongs to.
    pub asn: AsId,
    /// The responding router address (an address from the AS's first
    /// announced prefix, or 0.0.0.0 if the AS announces none).
    pub addr: Ipv4Addr,
    /// Round-trip time from the probe to this hop, milliseconds.
    pub rtt_ms: f64,
}

/// A completed traceroute measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Traceroute {
    /// Source AS of the probe.
    pub src: AsId,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Hops, in order; empty when the destination was unroutable.
    pub hops: Vec<Hop>,
    /// Whether the destination was reached.
    pub reached: bool,
}

/// Runs a simulated traceroute from `src` to `dst_ip`.
///
/// The destination AS is resolved from the topology RIB; each AS on the path
/// contributes one hop. Deterministic: no jitter is modelled (the analysis
/// uses traceroutes only for AS-level location, not latency statistics).
pub fn trace(topo: &Topology, router: &mut Router, src: AsId, dst_ip: Ipv4Addr) -> Traceroute {
    trace_to_coord(topo, router, src, dst_ip, None)
}

/// Like [`trace`], but the final hop terminates at `dst_coord` when given —
/// a large AS (Apple's 17/8 spans the globe) is one routing entity but many
/// physical sites, and cache-location inference needs the per-site RTT.
pub fn trace_to_coord(
    topo: &Topology,
    router: &mut Router,
    src: AsId,
    dst_ip: Ipv4Addr,
    dst_coord: Option<mcdn_geo::Coord>,
) -> Traceroute {
    trace_between(topo, router, src, dst_ip, None, dst_coord)
}

/// Like [`trace_to_coord`], additionally anchoring the *first* hop at the
/// probe's own coordinates — an AS spans a country, but a probe sits in one
/// city, and per-city RTT differences are exactly what cache-location
/// inference measures.
pub fn trace_between(
    topo: &Topology,
    router: &mut Router,
    src: AsId,
    dst_ip: Ipv4Addr,
    src_coord: Option<mcdn_geo::Coord>,
    dst_coord: Option<mcdn_geo::Coord>,
) -> Traceroute {
    let Some(dst_as) = topo.origin_of(dst_ip) else {
        return Traceroute {
            src,
            dst: dst_ip,
            hops: Vec::new(),
            reached: false,
        };
    };
    let Some(path) = router.path(topo, src, dst_as) else {
        return Traceroute {
            src,
            dst: dst_ip,
            hops: Vec::new(),
            reached: false,
        };
    };
    // Each hop's RTT is what the probe would measure: round-trip
    // propagation from the probe's location to that hop's location, plus a
    // processing cost per traversed AS. (Like real traceroutes, RTTs along
    // a path need not be monotonic — a path can swing geographically.)
    let start = src_coord.or_else(|| topo.as_info(src).map(|a| a.location));
    let mut hops = Vec::with_capacity(path.len());
    for (i, &asn) in path.iter().enumerate() {
        let last = i + 1 == path.len();
        let loc_here = if last && dst_coord.is_some() {
            dst_coord
        } else {
            topo.as_info(asn).map(|a| a.location)
        };
        let rtt = match (start, loc_here) {
            (Some(a), Some(b)) => 2.0 * a.propagation_ms(&b) + (i + 1) as f64 * HOP_COST_MS,
            _ => (i + 1) as f64 * HOP_COST_MS,
        };
        let addr = if last {
            dst_ip
        } else {
            topo.prefixes_of(asn)
                .first()
                .and_then(|p| p.nth(1))
                .unwrap_or(Ipv4Addr::UNSPECIFIED)
        };
        hops.push(Hop {
            asn,
            addr,
            rtt_ms: rtt,
        });
    }
    Traceroute {
        src,
        dst: dst_ip,
        hops,
        reached: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4Net;
    use crate::topology::{AsInfo, AsKind, Relationship};
    use mcdn_geo::Coord;

    fn topo() -> Topology {
        let mut t = Topology::new();
        t.add_as(AsInfo {
            id: AsId(1),
            name: "Eyeball".into(),
            kind: AsKind::Eyeball,
            location: Coord::new(50.1, 8.7), // Frankfurt
        });
        t.add_as(AsInfo {
            id: AsId(2),
            name: "Transit".into(),
            kind: AsKind::Transit,
            location: Coord::new(52.4, 4.9), // Amsterdam
        });
        t.add_as(AsInfo {
            id: AsId(3),
            name: "CDN".into(),
            kind: AsKind::Cdn,
            location: Coord::new(40.7, -74.0), // New York
        });
        t.add_link(AsId(1), AsId(2), Relationship::CustomerToProvider, 100e9);
        t.add_link(AsId(3), AsId(2), Relationship::CustomerToProvider, 100e9);
        t.announce(AsId(1), Ipv4Net::parse("198.51.100.0/24").unwrap());
        t.announce(AsId(2), Ipv4Net::parse("203.0.113.0/24").unwrap());
        t.announce(AsId(3), Ipv4Net::parse("192.0.2.0/24").unwrap());
        t
    }

    #[test]
    fn reaches_destination_with_monotone_rtt() {
        let t = topo();
        let mut r = Router::new();
        let dst: Ipv4Addr = "192.0.2.55".parse().unwrap();
        let tr = trace(&t, &mut r, AsId(1), dst);
        assert!(tr.reached);
        assert_eq!(tr.hops.len(), 3);
        assert_eq!(tr.hops.last().unwrap().addr, dst);
        assert_eq!(tr.hops.last().unwrap().asn, AsId(3));
        // The transatlantic destination is much farther than the first hop.
        assert!(tr.hops.last().unwrap().rtt_ms > tr.hops[0].rtt_ms + 20.0);
        // Transatlantic final hop should dominate: > 50 ms RTT.
        assert!(tr.hops.last().unwrap().rtt_ms > 50.0);
    }

    #[test]
    fn intermediate_hop_uses_as_prefix() {
        let t = topo();
        let mut r = Router::new();
        let tr = trace(&t, &mut r, AsId(1), "192.0.2.55".parse().unwrap());
        assert_eq!(tr.hops[1].asn, AsId(2));
        assert_eq!(tr.hops[1].addr, "203.0.113.1".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn unroutable_destination_fails_cleanly() {
        let t = topo();
        let mut r = Router::new();
        let tr = trace(&t, &mut r, AsId(1), "8.8.8.8".parse().unwrap());
        assert!(!tr.reached);
        assert!(tr.hops.is_empty());
    }

    #[test]
    fn destination_inside_own_as() {
        let t = topo();
        let mut r = Router::new();
        let tr = trace(&t, &mut r, AsId(1), "198.51.100.9".parse().unwrap());
        assert!(tr.reached);
        assert_eq!(tr.hops.len(), 1);
        assert_eq!(tr.hops[0].asn, AsId(1));
    }
}
