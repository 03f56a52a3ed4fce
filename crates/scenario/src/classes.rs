//! CDN classification of observed addresses — the figure-legend classes.
//!
//! The paper's method (§4): an address is attributed to a CDN by *which DNS
//! name produced it* in the mapping (Apple GSLB, Akamai map, Limelight
//! handover), then split into "other AS" sub-classes by checking whether its
//! BGP origin matches the CDN's own AS. "Cache IPs that are used by Akamai
//! or Limelight but not located within their respective autonomous systems
//! are denoted as 'other AS'."

use mcdn_dnssim::{CompiledNamespace, IRData, ITrace, ResolutionTrace, ResolveScratch};
use mcdn_intern::{NameId, NameTable};
use mcdn_netsim::{AsId, Topology};
use std::net::Ipv4Addr;

/// The six legend classes of Figures 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CdnClass {
    /// Akamai addresses inside Akamai's AS.
    Akamai,
    /// Akamai-attributed addresses in other ASes.
    AkamaiOtherAs,
    /// Limelight addresses inside Limelight's AS.
    Limelight,
    /// Limelight-attributed addresses in other ASes.
    LimelightOtherAs,
    /// Apple's own CDN.
    Apple,
    /// Anything else (e.g. the dedicated China/India pools, Level3).
    Other,
}

impl CdnClass {
    /// All classes in legend order.
    pub const ALL: [CdnClass; 6] = [
        CdnClass::Akamai,
        CdnClass::AkamaiOtherAs,
        CdnClass::Limelight,
        CdnClass::LimelightOtherAs,
        CdnClass::Apple,
        CdnClass::Other,
    ];

    /// Legend label as printed in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            CdnClass::Akamai => "Akamai",
            CdnClass::AkamaiOtherAs => "Akamai other AS",
            CdnClass::Limelight => "Limelight",
            CdnClass::LimelightOtherAs => "Limelight other AS",
            CdnClass::Apple => "Apple",
            CdnClass::Other => "other",
        }
    }

    /// The coarse CDN (merging the "other AS" split), for traffic figures.
    pub fn cdn(&self) -> CdnClass {
        match self {
            CdnClass::AkamaiOtherAs => CdnClass::Akamai,
            CdnClass::LimelightOtherAs => CdnClass::Limelight,
            other => *other,
        }
    }
}

impl core::fmt::Display for CdnClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which CDN a resolution trace went through, judged from the DNS names in
/// its CNAME chain (the paper's attribution signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsAttribution {
    /// Terminated at Apple's GSLB.
    Apple,
    /// Went through an `akamai.net` map.
    Akamai,
    /// Went through a Limelight handover name.
    Limelight,
    /// Anything else (China/India pools, Level3, unknown).
    Other,
}

/// Attributes a trace to a CDN from the names it visited.
pub fn attribute_trace(trace: &ResolutionTrace) -> DnsAttribution {
    let names: Vec<String> = trace
        .steps
        .iter()
        .map(|s| s.qname.to_string())
        .chain(trace.cname_edges().iter().map(|(_, to, _)| to.to_string()))
        .collect();
    for n in names.iter().rev() {
        if n.ends_with("gslb.applimg.com") {
            return DnsAttribution::Apple;
        }
        if n.ends_with("akamai.net") {
            return DnsAttribution::Akamai;
        }
        if n.ends_with("llnwi.net") || n.ends_with("llnwd.net") {
            return DnsAttribution::Limelight;
        }
    }
    DnsAttribution::Other
}

/// Attribution suffix flags, one bit per CDN family. Computed from a
/// name's display form with the same `ends_with` tests
/// [`attribute_trace`] applies, so attributing an interned trace cannot
/// drift from attributing its rendered form.
const ATTR_APPLE: u8 = 1;
const ATTR_AKAMAI: u8 = 1 << 1;
const ATTR_LIMELIGHT: u8 = 1 << 2;

fn suffix_flags(name: &mcdn_dnswire::Name) -> u8 {
    let s = name.to_string();
    let mut flags = 0;
    if s.ends_with("gslb.applimg.com") {
        flags |= ATTR_APPLE;
    }
    if s.ends_with("akamai.net") {
        flags |= ATTR_AKAMAI;
    }
    if s.ends_with("llnwi.net") || s.ends_with("llnwd.net") {
        flags |= ATTR_LIMELIGHT;
    }
    flags
}

fn judge(flags: u8) -> Option<DnsAttribution> {
    // Same per-name priority as the string scan: Apple, then Akamai,
    // then Limelight.
    if flags & ATTR_APPLE != 0 {
        Some(DnsAttribution::Apple)
    } else if flags & ATTR_AKAMAI != 0 {
        Some(DnsAttribution::Akamai)
    } else if flags & ATTR_LIMELIGHT != 0 {
        Some(DnsAttribution::Limelight)
    } else {
        None
    }
}

/// Per-[`NameId`] attribution flags, precomputed once per campaign so
/// the per-trace scan does no string formatting or matching at all.
#[derive(Debug, Clone)]
pub struct AttributionTable {
    flags: Vec<u8>,
}

impl AttributionTable {
    /// Precomputes the suffix flags for every interned name.
    pub fn build(table: &NameTable) -> AttributionTable {
        AttributionTable {
            flags: table.iter().map(|(_, name)| suffix_flags(name)).collect(),
        }
    }

    fn flags_of(&self, ns: &CompiledNamespace<'_>, scratch: &ResolveScratch, id: NameId) -> u8 {
        match self.flags.get(id.index()) {
            Some(&flags) => flags,
            // Overlay name (never on the campaign hot path): judge its
            // display form directly.
            None => suffix_flags(ns.name_in(scratch, id)),
        }
    }
}

/// [`attribute_trace`] over an interned trace: scans the same combined
/// name sequence (step qnames, then CNAME targets) in the same reversed
/// order, consulting precomputed flags instead of rendered strings.
pub fn attribute_interned(
    trace: &ITrace,
    attr: &AttributionTable,
    ns: &CompiledNamespace<'_>,
    scratch: &ResolveScratch,
) -> DnsAttribution {
    // The combined list is [qnames..., cname targets...]; reversed, the
    // targets come first (last step's last record first), then the
    // qnames (last step first).
    for step in trace.steps().iter().rev() {
        for record in trace.records_of(step).iter().rev() {
            if let IRData::Cname(target) = record.rdata {
                if let Some(found) = judge(attr.flags_of(ns, scratch, target)) {
                    return found;
                }
            }
        }
    }
    for step in trace.steps().iter().rev() {
        if let Some(found) = judge(attr.flags_of(ns, scratch, step.qname)) {
            return found;
        }
    }
    DnsAttribution::Other
}

/// Final classification of one answered address: DNS attribution refined by
/// BGP origin.
pub fn classify_ip(
    attribution: DnsAttribution,
    ip: Ipv4Addr,
    topo: &Topology,
    akamai_as: AsId,
    limelight_as: AsId,
    apple_as: AsId,
) -> CdnClass {
    classify_ip_from_origin(
        attribution,
        topo.origin_of(ip),
        akamai_as,
        limelight_as,
        apple_as,
    )
}

/// [`classify_ip`] with the BGP origin already looked up — the form the
/// campaign engine uses with a compiled
/// [`FlatLpm`](mcdn_netsim::FlatLpm) RIB instead of the live trie.
pub fn classify_ip_from_origin(
    attribution: DnsAttribution,
    origin: Option<AsId>,
    akamai_as: AsId,
    limelight_as: AsId,
    apple_as: AsId,
) -> CdnClass {
    match attribution {
        DnsAttribution::Apple => {
            if origin == Some(apple_as) {
                CdnClass::Apple
            } else {
                CdnClass::Other
            }
        }
        DnsAttribution::Akamai => {
            if origin == Some(akamai_as) {
                CdnClass::Akamai
            } else {
                CdnClass::AkamaiOtherAs
            }
        }
        DnsAttribution::Limelight => {
            if origin == Some(limelight_as) {
                CdnClass::Limelight
            } else {
                CdnClass::LimelightOtherAs
            }
        }
        DnsAttribution::Other => CdnClass::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_dnssim::TraceStep;
    use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};

    fn trace_through(names: &[(&str, &str)]) -> ResolutionTrace {
        let steps = names
            .iter()
            .map(|(from, to)| TraceStep {
                qname: Name::parse(from).unwrap(),
                qtype: RecordType::A,
                records: vec![ResourceRecord::new(
                    Name::parse(from).unwrap(),
                    60,
                    RData::Cname(Name::parse(to).unwrap()),
                )],
                from_cache: false,
                zone: None,
            })
            .collect();
        ResolutionTrace { steps }
    }

    #[test]
    fn attribution_from_terminal_names() {
        let apple = trace_through(&[
            ("appldnld.apple.com", "appldnld.g.applimg.com"),
            ("appldnld.g.applimg.com", "a.gslb.applimg.com"),
        ]);
        assert_eq!(attribute_trace(&apple), DnsAttribution::Apple);

        let akamai = trace_through(&[
            ("appldnld.apple.com", "appldnld2.apple.com.edgesuite.net"),
            ("appldnld2.apple.com.edgesuite.net", "a1271.gi3.akamai.net"),
        ]);
        assert_eq!(attribute_trace(&akamai), DnsAttribution::Akamai);

        let ll = trace_through(&[("ios8-eu-lb.apple.com.akadns.net", "apple.vo.llnwi.net")]);
        assert_eq!(attribute_trace(&ll), DnsAttribution::Limelight);

        let other = trace_through(&[("x.example.com", "y.example.net")]);
        assert_eq!(attribute_trace(&other), DnsAttribution::Other);
    }

    #[test]
    fn classes_have_unique_labels_and_coarse_merge() {
        let mut labels = std::collections::HashSet::new();
        for c in CdnClass::ALL {
            assert!(labels.insert(c.label()));
        }
        assert_eq!(CdnClass::AkamaiOtherAs.cdn(), CdnClass::Akamai);
        assert_eq!(CdnClass::LimelightOtherAs.cdn(), CdnClass::Limelight);
        assert_eq!(CdnClass::Apple.cdn(), CdnClass::Apple);
    }
}
