//! SNMP interface octet counters, polled every five minutes.
//!
//! SNMP `ifInOctets` is exact but anonymous: it says how many bytes crossed
//! a peering link, not whose they were. The paper combines it with sampled
//! Netflow (which knows *who* but miscounts *how much*) — see
//! [`crate::estimate`]. Counters here are modelled faithfully as monotonic
//! 64-bit octet counts read by a periodic poller.

use mcdn_geo::{Duration, SimTime};
use mcdn_netsim::LinkId;
use std::collections::{BTreeMap, HashMap};

/// The standard polling interval.
pub const POLL_INTERVAL: Duration = Duration::mins(5);

/// Monotonic per-link octet counters plus the polled time series.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SnmpCounters {
    counters: HashMap<LinkId, u64>,
    last_polled: HashMap<LinkId, u64>,
    series: BTreeMap<(SimTime, LinkId), u64>,
}

impl SnmpCounters {
    /// Fresh counters.
    pub fn new() -> SnmpCounters {
        SnmpCounters::default()
    }

    /// Accounts `bytes` arriving on `link` (called by the traffic driver).
    pub fn account(&mut self, link: LinkId, bytes: u64) {
        *self.counters.entry(link).or_insert(0) += bytes;
    }

    /// Polls all counters at `now`, recording the delta since the previous
    /// poll per link into the series (keyed by poll time).
    pub fn poll(&mut self, now: SimTime) {
        self.poll_filtered(now, |_| true);
    }

    /// Polls at `now`, but only the links for which `keep` returns true —
    /// the others miss this cycle, leaving no series entry for their bin.
    /// Counters stay monotonic, so a skipped link's next successful poll
    /// reports a delta covering the whole gap (exactly how real SNMP
    /// collectors see missed cycles). With an always-true predicate this
    /// is identical to [`SnmpCounters::poll`].
    pub fn poll_filtered(&mut self, now: SimTime, mut keep: impl FnMut(LinkId) -> bool) {
        let bin = now.floor_to(POLL_INTERVAL);
        let mut polled = Vec::new();
        for (link, total) in &self.counters {
            if !keep(*link) {
                continue;
            }
            let last = self.last_polled.get(link).copied().unwrap_or(0);
            let delta = total - last;
            self.series.insert((bin, *link), delta);
            polled.push(*link);
        }
        for link in polled {
            self.last_polled.insert(link, self.counters[&link]);
        }
    }

    /// The polled delta for `(bin, link)`, zero if never polled.
    pub fn delta(&self, bin: SimTime, link: LinkId) -> u64 {
        self.series.get(&(bin, link)).copied().unwrap_or(0)
    }

    /// Whether `(bin, link)` has a real poll sample. Distinguishes "the
    /// poll was missed" from "the poll saw zero bytes", which
    /// [`SnmpCounters::delta`] conflates.
    pub fn has_poll(&self, bin: SimTime, link: LinkId) -> bool {
        self.series.contains_key(&(bin, link))
    }

    /// Sum of polled deltas for `link` over `[from, to)`.
    pub fn sum_range(&self, link: LinkId, from: SimTime, to: SimTime) -> u64 {
        self.series
            .range((from, LinkId(0))..(to, LinkId(0)))
            .filter(|((_, l), _)| *l == link)
            .map(|(_, v)| v)
            .sum()
    }

    /// All polled samples, time-ordered.
    pub fn samples(&self) -> impl Iterator<Item = (SimTime, LinkId, u64)> + '_ {
        self.series.iter().map(|((t, l), v)| (*t, *l, *v))
    }

    /// The current raw counter value for `link`.
    pub fn raw(&self, link: LinkId) -> u64 {
        self.counters.get(&link).copied().unwrap_or(0)
    }

    /// Peak polled delta for `link` converted to bits per second.
    pub fn peak_bps(&self, link: LinkId) -> f64 {
        self.series
            .iter()
            .filter(|((_, l), _)| *l == link)
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0) as f64
            * 8.0
            / POLL_INTERVAL.as_secs() as f64
    }
}

/// Wrap-aware delta between two readings of a 32-bit `ifInOctets` counter.
///
/// Legacy interfaces expose 32-bit octet counters, which wrap every ~34 GB —
/// under a minute on a saturated 10 Gbps link. Collectors must compute
/// deltas modulo 2³² or traffic graphs show impossible negative spikes; the
/// paper-era SNMP tooling did exactly this (and polled fast enough that at
/// most one wrap could occur between polls).
pub fn delta32(previous: u32, current: u32) -> u64 {
    current.wrapping_sub(previous) as u64
}

/// Wrap-aware delta for 64-bit `ifHCInOctets` counters (RFC 2863), which in
/// practice never wrap.
pub fn delta64(previous: u64, current: u64) -> u64 {
    current.wrapping_sub(previous)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_reflect_traffic_between_polls() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 1000);
        s.poll(t0);
        s.account(LinkId(1), 250);
        s.poll(t0 + POLL_INTERVAL);
        assert_eq!(s.delta(t0, LinkId(1)), 1000);
        assert_eq!(s.delta(t0 + POLL_INTERVAL, LinkId(1)), 250);
        assert_eq!(s.raw(LinkId(1)), 1250);
    }

    #[test]
    fn unpolled_link_reads_zero() {
        let s = SnmpCounters::new();
        assert_eq!(s.delta(SimTime(0), LinkId(9)), 0);
        assert_eq!(s.raw(LinkId(9)), 0);
    }

    #[test]
    fn sum_range_is_inclusive_exclusive() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        for i in 0..4u64 {
            s.account(LinkId(2), 100);
            s.poll(t0 + Duration::secs(i * 300));
        }
        let sum = s.sum_range(LinkId(2), t0, t0 + Duration::secs(900));
        assert_eq!(sum, 300, "three polls in [t0, t0+900)");
    }

    #[test]
    fn peak_bps_converts_units() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(3), 300_000_000); // 300 MB in 5 min = 8 Mbps
        s.poll(t0);
        assert!((s.peak_bps(LinkId(3)) - 8_000_000.0).abs() < 1.0);
    }

    #[test]
    fn missed_poll_accumulates_into_next_delta() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 100);
        s.poll(t0);
        // Cycle 2 is missed for link 1: no sample, counter keeps running.
        s.account(LinkId(1), 40);
        s.poll_filtered(t0 + POLL_INTERVAL, |l| l != LinkId(1));
        assert!(!s.has_poll(t0 + POLL_INTERVAL, LinkId(1)));
        // Cycle 3 succeeds and its delta covers the whole gap.
        s.account(LinkId(1), 60);
        s.poll(t0 + POLL_INTERVAL + POLL_INTERVAL);
        assert_eq!(s.delta(t0 + POLL_INTERVAL + POLL_INTERVAL, LinkId(1)), 100);
        assert_eq!(s.raw(LinkId(1)), 200);
    }

    #[test]
    fn has_poll_distinguishes_gap_from_zero_traffic() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 0);
        s.poll(t0);
        assert!(s.has_poll(t0, LinkId(1)));
        assert_eq!(s.delta(t0, LinkId(1)), 0);
        assert!(!s.has_poll(t0 + POLL_INTERVAL, LinkId(1)));
        assert_eq!(s.delta(t0 + POLL_INTERVAL, LinkId(1)), 0);
    }

    #[test]
    fn poll_filtered_with_true_predicate_matches_poll() {
        let t0 = SimTime::from_ymd(2017, 9, 19);
        let mut a = SnmpCounters::new();
        let mut b = SnmpCounters::new();
        for s in [&mut a, &mut b] {
            s.account(LinkId(1), 500);
            s.account(LinkId(2), 700);
        }
        a.poll(t0);
        b.poll_filtered(t0, |_| true);
        assert_eq!(
            a.samples().collect::<Vec<_>>(),
            b.samples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn multiple_links_independent() {
        let mut s = SnmpCounters::new();
        let t0 = SimTime::from_ymd(2017, 9, 19);
        s.account(LinkId(1), 10);
        s.account(LinkId(2), 20);
        s.poll(t0);
        assert_eq!(s.delta(t0, LinkId(1)), 10);
        assert_eq!(s.delta(t0, LinkId(2)), 20);
    }
}

#[cfg(test)]
mod wrap_tests {
    use super::*;

    #[test]
    fn delta32_handles_wrap() {
        assert_eq!(delta32(100, 200), 100);
        // Counter wrapped: 4294967000 → 96 means 392 octets flowed.
        assert_eq!(delta32(4_294_967_000, 96), 392);
        assert_eq!(delta32(u32::MAX, 0), 1);
        assert_eq!(delta32(0, 0), 0);
    }

    #[test]
    fn delta64_is_plain_subtraction_in_practice() {
        assert_eq!(delta64(1_000_000, 5_000_000), 4_000_000);
        assert_eq!(delta64(u64::MAX, 0), 1);
    }

    #[test]
    fn saturated_10g_link_wraps_within_a_poll() {
        // Sanity for the doc claim: 10 Gbps for 300 s = 375 GB ≫ 4 GiB.
        let bytes_per_poll = 10e9 / 8.0 * POLL_INTERVAL.as_secs() as f64;
        assert!(
            bytes_per_poll > u32::MAX as f64,
            "32-bit counters are useless here"
        );
    }
}
