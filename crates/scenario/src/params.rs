//! Every calibrated constant of the scenario, with the paper observation it
//! encodes.
//!
//! Two kinds of numbers live here:
//!
//! * **Exogenous inputs** — things that were decisions of Apple or the CDNs
//!   in reality (selection weight schedule, pool sizes, capacities). The
//!   paper *measured their consequences*; we set them so the same
//!   consequences emerge.
//! * **Physical constants** — populations, image size, the release instant.
//!
//! Nothing in this file hard-codes a figure's output; the analysis crate
//! recomputes every series from simulated measurements.

use mcdn_geo::{Region, SimTime};
use mcdn_netsim::AsId;
use metacdn::{CdnShare, Schedule};

// ---------------------------------------------------------------- ASes ---

/// The measured Tier-1 European Eyeball ISP.
pub const EYEBALL_AS: AsId = AsId(3320);
/// Apple's AS (origin of 17.0.0.0/8).
pub const APPLE_AS: AsId = AsId(714);
/// Akamai's main AS.
pub const AKAMAI_AS: AsId = AsId(20940);
/// Limelight's main AS.
pub const LIMELIGHT_AS: AsId = AsId(22822);
/// Level3's AS (only used when the pre-June-2017 config is re-enabled).
pub const LEVEL3_AS: AsId = AsId(3356);
/// The cloud AS hosting vantage VMs.
pub const AWS_AS: AsId = AsId(16509);
/// Transit "AS A" of Figure 8 (carries Limelight's pre-fill spike).
pub const TRANSIT_A: AsId = AsId(6939);
/// Transit "AS B" of Figure 8.
pub const TRANSIT_B: AsId = AsId(1299);
/// Transit "AS C" of Figure 8.
pub const TRANSIT_C: AsId = AsId(174);
/// Transit "AS D" of Figure 8 — unused before the event, then >40 % of
/// overflow with two of its four links saturated.
pub const TRANSIT_D: AsId = AsId(6453);
/// Akamai's off-net cache AS ("Akamai other AS" in Figures 4/5).
pub const AKAMAI_OFFNET_AS: AsId = AsId(64640);
/// Limelight regional cache ASes behind transits A, B, C (always serving —
/// they produce the *stable* overflow distribution of normal days).
pub const LL_CACHE_A_AS: AsId = AsId(64620);
/// See [`LL_CACHE_A_AS`].
pub const LL_CACHE_B_AS: AsId = AsId(64621);
/// See [`LL_CACHE_A_AS`].
pub const LL_CACHE_C_AS: AsId = AsId(64622);
/// Limelight's surge cache AS behind transit D (the Figure 8 event actor).
pub const LL_SURGE_D_AS: AsId = AsId(64630);
/// First of the eight Limelight cache ASes behind small "other" transits.
pub const LL_CACHE_OTHER_AS_BASE: u32 = 64650;
/// First of the small "other" handover transits (~40 in the paper's data).
pub const SMALL_TRANSIT_AS_BASE: u32 = 64700;
/// Number of small handover transits.
pub const SMALL_TRANSIT_COUNT: u32 = 40;
/// Number of Limelight cache ASes parked behind small transits.
pub const LL_OTHER_CACHE_COUNT: u32 = 3;

// ------------------------------------------------------------- Serving ---

/// Serving capacity of one Apple edge-bx, bps. Sized so that on the release
/// evening the demand scheduled onto Apple's EU sites slightly exceeds EU
/// capacity (utilization ≈ 1.0–1.2): Apple's own CDN flat-tops and the
/// surplus spills — "Apple uses its own CDN first before offloading".
pub const PER_SERVER_BPS: f64 = 24e9;

/// The measured ISP's share of European update demand.
pub const ISP_SHARE_OF_EU: f64 = 0.08;

/// Fraction of Asian devices diverted to dedicated China/India
/// infrastructure at mapping step ① (never reaching the studied path).
pub const ASIA_DIVERTED_FRACTION: f64 = 0.6;

/// Third-party update-serving capacity (bps) per region — the contract
/// partition a CDN reserves for Apple updates. EU capacities are tight
/// (loads near 1 during the event, driving pool widening); US/APAC are
/// generous, which is why only Europe's unique-IP counts spike (§4).
pub fn update_capacity(kind: metacdn::CdnKind, region: Region) -> f64 {
    use metacdn::CdnKind::*;
    match (kind, region) {
        (Akamai, Region::Eu) => 7e12,
        (Limelight, Region::Eu) => 9e12,
        (_, Region::Eu) => 8e12,
        _ => 30e12,
    }
}

// ------------------------------------------------------- ISP baselines ---

/// Diurnal-peak baseline (non-update) traffic each CDN delivers into the
/// ISP, bps. Calibrated from the paper's Figure 7 ratios: Akamai is by far
/// the biggest CDN traffic-wise (its 23 % share of update *excess* moved its
/// total by only +13 %), Apple moderate (+111 % at peak), Limelight small
/// (+338 % at peak).
pub fn baseline_peak_bps(class: crate::CdnClass) -> f64 {
    match class.cdn() {
        crate::CdnClass::Akamai => 3.5e12,
        crate::CdnClass::Apple => 6.0e11,
        crate::CdnClass::Limelight => 2.6e11,
        _ => 0.0,
    }
}

// ----------------------------------------------------------- Schedule ---

/// iOS 11.0 release instant.
pub fn release() -> SimTime {
    SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0)
}

/// The EU selection-weight schedule Apple ran during the event, as the
/// paper observed its consequences: roughly half third-party before the
/// event; on release day an excess-volume split of ~33 % Apple / 44 %
/// Limelight / 23 % Akamai; on the two following days ~60 % Apple / 40 %
/// Limelight with *no additional Akamai*; back to normal afterwards.
/// The Sep-20 switch is placed at 03:00 UTC (an overnight reconfiguration),
/// so the Sep-20 00:00 probe round still sees the event configuration.
pub fn weight_schedule() -> Schedule {
    let default_eu = CdnShare {
        apple: 0.50,
        akamai: 0.25,
        limelight: 0.25,
        level3: 0.0,
    };
    let event_day = CdnShare {
        apple: 0.33,
        akamai: 0.23,
        limelight: 0.44,
        level3: 0.0,
    };
    let after_days = CdnShare {
        apple: 0.60,
        akamai: 0.02,
        limelight: 0.38,
        level3: 0.0,
    };
    let us_share = CdnShare {
        apple: 0.62,
        akamai: 0.20,
        limelight: 0.18,
        level3: 0.0,
    };
    let apac_share = CdnShare {
        apple: 0.60,
        akamai: 0.20,
        limelight: 0.20,
        level3: 0.0,
    };
    let mut s = Schedule::constant(default_eu);
    // Non-EU regions keep a constant share throughout.
    s.set_from(Region::Us, SimTime(0), us_share);
    s.set_from(Region::Apac, SimTime(0), apac_share);
    s.set_from(Region::Eu, release(), event_day);
    s.set_from(
        Region::Eu,
        SimTime::from_ymd_hms(2017, 9, 20, 3, 0, 0),
        after_days,
    );
    s.set_from(Region::Eu, SimTime::from_ymd(2017, 9, 22), default_eu);
    s
}

// ----------------------------------------------------------- DNS pools ---

/// Akamai EU pool sizes: (base, surge, off-net). The off-net pool engages
/// with the `a1015` event map; pre-event exposure is essentially the base
/// (the flat Akamai line of Figure 5), event exposure ≈ 4–5× (the +408 %).
pub const AKAMAI_EU_POOL: (usize, usize, usize) = (55, 300, 80);
/// Load at which Akamai's off-net pool engages.
pub const AKAMAI_OFFNET_ENGAGE: f64 = 0.7;

/// Limelight EU on-net pool sizes: (base, surge).
pub const LIMELIGHT_EU_POOL: (usize, usize) = (45, 480);
/// Limelight regional off-net cache counts behind transits A, B, C and the
/// small "other" transits — always engaged; they generate the stable
/// overflow split of quiet days (Figure 8 left/right edges).
pub const LL_REGIONAL_POOL: (usize, usize, usize, usize) = (4, 3, 2, 3);
/// Limelight's surge pool behind transit D: cache count and the load at
/// which it engages/disengages. Sized so it carries >40 % of Limelight's
/// overflow on event days and retires after three days as load recedes.
pub const LL_SURGE_D_POOL: usize = 100;
/// See [`LL_SURGE_D_POOL`].
pub const LL_SURGE_D_ENGAGE: f64 = 0.15;

/// US/APAC third-party pools: base-only (no surge), which is why no
/// unique-IP spike appears outside Europe.
pub const THIRD_PARTY_OTHER_REGION_BASE: usize = 60;

/// A records per Akamai DNS answer (Akamai characteristically returns many).
pub const AKAMAI_ANSWER_K: usize = 10;
/// A records per Limelight DNS answer.
pub const LIMELIGHT_ANSWER_K: usize = 5;

// ---------------------------------------------------------- ISP links ---

/// Capacity of each of the four ISP↔AS-D links, bps. Sized so the event's
/// overflow through AS D entirely saturates two of them (§5.4).
pub const ISP_D_LINK_BPS: f64 = 65e9;
/// Number of parallel ISP↔AS-D links.
pub const ISP_D_LINK_COUNT: usize = 4;
/// Capacity of the ISP's links to transits A, B, C, bps.
pub const ISP_TRANSIT_LINK_BPS: f64 = 400e9;
/// Capacity of each small "other" transit link, bps.
pub const ISP_SMALL_LINK_BPS: f64 = 50e9;
/// Direct peering capacities: Apple, Akamai, Limelight → ISP, bps.
pub const ISP_CDN_LINK_BPS: (f64, f64, f64) = (2.5e12, 6e12, 1.5e12);

/// The Limelight pre-fill injection the paper hypothesizes for the AS-A
/// spike of Sep 19: extra cache-fill traffic from Limelight's A-side
/// caches, as a fraction of the ISP's update demand, during the first
/// hours after release.
pub const PREFILL_FRACTION: f64 = 0.12;
/// Pre-fill window length in hours from the release instant.
pub const PREFILL_HOURS: u64 = 6;

/// The pre-June-2017 weight schedule with Level3 as a third offload CDN
/// (§3.2: "Level3 was removed from the request mapping in late June 2017").
/// Used only when [`crate::ScenarioConfig::enable_level3`] is set.
pub fn weight_schedule_with_level3() -> Schedule {
    let default_eu = CdnShare {
        apple: 0.50,
        akamai: 0.20,
        limelight: 0.20,
        level3: 0.10,
    };
    let us_share = CdnShare {
        apple: 0.62,
        akamai: 0.16,
        limelight: 0.14,
        level3: 0.08,
    };
    let apac_share = CdnShare {
        apple: 0.60,
        akamai: 0.20,
        limelight: 0.20,
        level3: 0.0,
    };
    let mut s = Schedule::constant(default_eu);
    s.set_from(Region::Us, SimTime(0), us_share);
    s.set_from(Region::Apac, SimTime(0), apac_share);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use metacdn::CdnKind;

    #[test]
    fn eu_event_shares_match_paper_split() {
        let s = weight_schedule();
        let e = s.share_at(Region::Eu, release());
        assert!((e.apple - 0.33).abs() < 1e-9);
        assert!((e.limelight - 0.44).abs() < 1e-9);
        assert!((e.akamai - 0.23).abs() < 1e-9);
        // Sep 20–21: Apple ~60 %, Limelight ~40 %, Akamai ~0.
        let after = s.share_at(Region::Eu, SimTime::from_ymd_hms(2017, 9, 20, 12, 0, 0));
        assert!((after.apple - 0.60).abs() < 1e-9);
        assert!(after.akamai < 0.05);
        // Back to default from Sep 22.
        let norm = s.share_at(Region::Eu, SimTime::from_ymd(2017, 9, 23));
        assert!((norm.apple - 0.50).abs() < 1e-9);
    }

    #[test]
    fn sep20_switch_is_after_midnight_probe_round() {
        let s = weight_schedule();
        let midnight = SimTime::from_ymd(2017, 9, 20);
        let e = s.share_at(Region::Eu, midnight);
        assert!(
            (e.limelight - 0.44).abs() < 1e-9,
            "00:00 round still sees event config"
        );
    }

    #[test]
    fn eu_capacities_are_tighter_than_elsewhere() {
        for k in [CdnKind::Akamai, CdnKind::Limelight] {
            assert!(update_capacity(k, Region::Eu) < update_capacity(k, Region::Us));
        }
    }

    #[test]
    fn akamai_baseline_dominates() {
        use crate::CdnClass::*;
        assert!(baseline_peak_bps(Akamai) > 5.0 * baseline_peak_bps(Apple));
        assert!(baseline_peak_bps(Apple) > baseline_peak_bps(Limelight));
    }
}
