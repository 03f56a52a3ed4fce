//! Figure 5: unique CDN cache IPs seen from inside the Eyeball ISP.

use crate::table::Table;
use mcdn_geo::SimTime;
use mcdn_scenario::{CdnClass, DnsCampaignResult};

/// The Figure 5 series: daily unique-IP counts per CDN class from the
/// in-ISP probe fleet.
pub fn fig5_series(result: &DnsCampaignResult) -> Table {
    let mut t = Table::new(
        "Figure 5 — Unique CDN cache IPs, European Eyeball ISP measurement",
        &["day", "cdn", "unique IPs"],
    );
    for (bin, _cont, class, count) in result.unique_ips.series() {
        t.push(vec![bin.to_string(), class.to_string(), count.to_string()]);
    }
    t
}

/// The paper's headline statistic: Akamai's unique-IP rise from Sep 18 to
/// Sep 20 (reported +408 %), alongside Apple's stability over the same
/// days. Returns `(akamai_rise_percent, apple_ratio)`.
pub fn fig5_akamai_rise(result: &DnsCampaignResult) -> (f64, f64) {
    let d18 = SimTime::from_ymd(2017, 9, 18);
    let d20 = SimTime::from_ymd(2017, 9, 20);
    let count = |day: SimTime, class: CdnClass| {
        result
            .unique_ips
            .count(day, mcdn_geo::Continent::Europe, class)
    };
    // "Akamai CDN IPs" in the figure text counts Akamai incl. other-AS.
    let ak18 = count(d18, CdnClass::Akamai) + count(d18, CdnClass::AkamaiOtherAs);
    let ak20 = count(d20, CdnClass::Akamai) + count(d20, CdnClass::AkamaiOtherAs);
    let ap18 = count(d18, CdnClass::Apple).max(1);
    let ap20 = count(d20, CdnClass::Apple);
    let rise = if ak18 > 0 {
        (ak20 as f64 / ak18 as f64 - 1.0) * 100.0
    } else {
        0.0
    };
    (rise, ap20 as f64 / ap18 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_atlas::UniqueIpAggregator;
    use mcdn_geo::{Continent, Duration};
    use mcdn_scenario::DnsCampaignResult;
    use std::net::Ipv4Addr;

    fn result_with(ak18: u32, ak20: u32, other18: u32, ap18: u32, ap20: u32) -> DnsCampaignResult {
        let mut agg = UniqueIpAggregator::new(Duration::days(1));
        let d18 = SimTime::from_ymd(2017, 9, 18);
        let d20 = SimTime::from_ymd(2017, 9, 20);
        for i in 0..ak18 {
            agg.record(
                d18,
                Continent::Europe,
                CdnClass::Akamai,
                Ipv4Addr::from(0x1700_0000 + i),
            );
        }
        for i in 0..ak20 {
            agg.record(
                d20,
                Continent::Europe,
                CdnClass::Akamai,
                Ipv4Addr::from(0x1700_0000 + i),
            );
        }
        for i in 0..other18 {
            agg.record(
                d20,
                Continent::Europe,
                CdnClass::AkamaiOtherAs,
                Ipv4Addr::from(0x6006_0000 + i),
            );
        }
        for i in 0..ap18 {
            agg.record(
                d18,
                Continent::Europe,
                CdnClass::Apple,
                Ipv4Addr::from(0x11FD_0000 + i),
            );
        }
        for i in 0..ap20 {
            agg.record(
                d20,
                Continent::Europe,
                CdnClass::Apple,
                Ipv4Addr::from(0x11FD_0000 + i),
            );
        }
        DnsCampaignResult {
            unique_ips: agg,
            ip_classes: Default::default(),
            resolutions: 0,
            attempts: 0,
            retry_exhausted: 0,
            memo_lookups: 0,
            memo_hits: 0,
            reused_resolutions: 0,
        }
    }

    #[test]
    fn akamai_rise_includes_other_as_caches() {
        // 50 on-net → 200 on-net + 54 off-net = 254 total: +408%.
        let result = result_with(50, 200, 54, 40, 44);
        let (rise, apple_ratio) = fig5_akamai_rise(&result);
        assert!((rise - 408.0).abs() < 0.5, "got {rise}");
        assert!((apple_ratio - 1.1).abs() < 1e-9);
    }

    #[test]
    fn series_renders_rows() {
        let result = result_with(5, 10, 0, 3, 3);
        let t = fig5_series(&result);
        assert!(t.rows.len() >= 4);
        assert_eq!(t.headers.len(), 3);
    }

    #[test]
    fn zero_baseline_is_handled() {
        let result = result_with(0, 10, 0, 1, 1);
        let (rise, _) = fig5_akamai_rise(&result);
        assert_eq!(rise, 0.0, "no division by zero");
    }
}
