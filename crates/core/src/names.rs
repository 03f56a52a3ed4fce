//! The DNS names of the mapping infrastructure (Figure 2) and the TTLs on
//! each CNAME edge.
//!
//! The paper pins the selector TTL at 15 s ("to enable quick reroutes") and
//! the entry at 21600 s; the remaining TTLs are taken from the edge labels
//! of Figure 2. All are centralized here so the zone wiring, the expected
//! graph, and the analysis agree by construction.

use mcdn_dnswire::Name;
use mcdn_geo::Region;

/// TTL of the entry CNAME `appldnld.apple.com` → akadns (seconds).
pub const TTL_ENTRY: u32 = 21_600;
/// TTL of the akadns geo-split CNAME (seconds).
pub const TTL_GEO: u32 = 120;
/// TTL of the Meta-CDN selector CNAME — 15 s for quick reroutes (§3.2).
pub const TTL_SELECTOR: u32 = 15;
/// TTL of the third-party per-region LB CNAME (seconds).
pub const TTL_REGION_LB: u32 = 300;
/// TTL of Apple GSLB A records (seconds).
pub const TTL_APPLE_A: u32 = 20;
/// TTL of Akamai edge A records (seconds).
pub const TTL_AKAMAI_A: u32 = 20;
/// TTL of Limelight edge A records (seconds).
pub const TTL_LIMELIGHT_A: u32 = 60;
/// TTL of the edgesuite → akamai-map CNAME (seconds).
pub const TTL_EDGESUITE: u32 = 300;
/// TTL of the dedicated China/India LB A records (seconds).
pub const TTL_SPECIAL_A: u32 = 60;

fn name(s: &str) -> Name {
    Name::parse(s).expect("static mapping name is valid")
}

/// `appldnld.apple.com` — the download entry point iOS devices contact.
pub fn entry() -> Name {
    name("appldnld.apple.com")
}

/// `mesu.apple.com` — the update-manifest host polled hourly (§3.1).
pub fn mesu() -> Name {
    name("mesu.apple.com")
}

/// `appldnld.apple.com.akadns.net` — step ①, the Akamai-operated geo split.
pub fn geo_split() -> Name {
    name("appldnld.apple.com.akadns.net")
}

/// `{china|india}-lb.itunes-apple.com.akadns.net` — dedicated market LBs.
pub fn special_lb(market: &str) -> Name {
    name(&format!("{market}-lb.itunes-apple.com.akadns.net"))
}

/// `appldnld.g.applimg.com` — step ②, the Apple-operated CDN selector.
pub fn selector() -> Name {
    name("appldnld.g.applimg.com")
}

/// `{a|b}.gslb.applimg.com` — step ④, Apple's global server load balancers.
pub fn gslb(which: char) -> Name {
    name(&format!("{which}.gslb.applimg.com"))
}

/// `ios8-{us|eu|apac}-lb.apple.com.akadns.net` — step ③, the third-party
/// CDN selector for a region.
pub fn region_lb(region: Region) -> Name {
    name(&format!("ios8-{}-lb.apple.com.akadns.net", region.label()))
}

/// `appldnld2.apple.com.edgesuite.net` — Akamai's customer-facing handover.
pub fn akamai_edgesuite() -> Name {
    name("appldnld2.apple.com.edgesuite.net")
}

/// `a1271.gi3.akamai.net` — Akamai's steady-state map.
pub fn akamai_map_baseline() -> Name {
    name("a1271.gi3.akamai.net")
}

/// `a1015.gi3.akamai.net` — the additional map Akamai switched on ~6 h into
/// the iOS 11 flash crowd (the orange path in Figure 2).
pub fn akamai_map_event() -> Name {
    name("a1015.gi3.akamai.net")
}

/// Limelight handover for a region: `apple.vo.llnwi.net` (US/EU) or
/// `apple-dnld.vo.llnwd.net` (APAC) — the split §3.2 reports.
pub fn limelight_lb(region: Region) -> Name {
    match region {
        Region::Us | Region::Eu => name("apple.vo.llnwi.net"),
        Region::Apac => name("apple-dnld.vo.llnwd.net"),
    }
}

/// Level3 handover (pre-June-2017 configuration; disabled by default).
pub fn level3_lb() -> Name {
    name("apple.download.lvl3.net")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_spelling() {
        assert_eq!(entry().to_string(), "appldnld.apple.com");
        assert_eq!(geo_split().to_string(), "appldnld.apple.com.akadns.net");
        assert_eq!(selector().to_string(), "appldnld.g.applimg.com");
        assert_eq!(gslb('a').to_string(), "a.gslb.applimg.com");
        assert_eq!(gslb('b').to_string(), "b.gslb.applimg.com");
        assert_eq!(
            region_lb(Region::Eu).to_string(),
            "ios8-eu-lb.apple.com.akadns.net"
        );
        assert_eq!(
            akamai_edgesuite().to_string(),
            "appldnld2.apple.com.edgesuite.net"
        );
        assert_eq!(akamai_map_baseline().to_string(), "a1271.gi3.akamai.net");
        assert_eq!(akamai_map_event().to_string(), "a1015.gi3.akamai.net");
        assert_eq!(limelight_lb(Region::Us).to_string(), "apple.vo.llnwi.net");
        assert_eq!(
            limelight_lb(Region::Apac).to_string(),
            "apple-dnld.vo.llnwd.net"
        );
        assert_eq!(
            special_lb("china").to_string(),
            "china-lb.itunes-apple.com.akadns.net"
        );
    }

    #[test]
    fn selector_ttl_enables_quick_reroutes() {
        assert_eq!(TTL_SELECTOR, 15);
        const { assert!(TTL_ENTRY > TTL_GEO && TTL_GEO > TTL_SELECTOR) }
    }
}
