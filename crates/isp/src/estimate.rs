//! Netflow × SNMP traffic estimation.
//!
//! "We scale the Netflow traffic on the peering links by the byte counters
//! from SNMP to minimize Netflow sampling errors" (§5.3). Concretely: for
//! each (link, time bin), all sampled Netflow bytes on that link are scaled
//! by a common factor so their sum equals the exact SNMP delta; the scaled
//! per-flow volumes are then attributed to their Source AS.

use crate::netflow::FlowRecord;
use crate::snmp::SnmpCounters;
use mcdn_geo::SimTime;
use mcdn_netsim::LinkId;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One scaled traffic contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledVolume {
    /// Time bin the volume belongs to.
    pub bin: SimTime,
    /// Ingress link.
    pub link: LinkId,
    /// Flow source address.
    pub src: Ipv4Addr,
    /// Source AS (16-bit, as carried in NetFlow v5).
    pub src_as: u16,
    /// Estimated true bytes.
    pub bytes: f64,
}

/// Scales sampled flow records by SNMP deltas.
///
/// `flows` pairs each record with its bin and ingress link (bins must match
/// the SNMP poll bins). Within each (bin, link) cell the records' sampled
/// bytes are proportionally scaled to the SNMP total; cells with SNMP data
/// but no surviving Netflow records contribute nothing (their traffic is
/// invisible to attribution, exactly as in reality).
pub fn scale_by_snmp(
    flows: &[(SimTime, LinkId, FlowRecord)],
    snmp: &SnmpCounters,
) -> Vec<ScaledVolume> {
    // Sum sampled bytes per cell.
    let mut cell_sampled: BTreeMap<(SimTime, LinkId), u64> = BTreeMap::new();
    for (bin, link, rec) in flows {
        *cell_sampled.entry((*bin, *link)).or_insert(0) += rec.bytes as u64;
    }
    let mut out = Vec::with_capacity(flows.len());
    for (bin, link, rec) in flows {
        let sampled_total = cell_sampled[&(*bin, *link)];
        if sampled_total == 0 {
            continue;
        }
        let snmp_total = snmp.delta(*bin, *link);
        let factor = snmp_total as f64 / sampled_total as f64;
        out.push(ScaledVolume {
            bin: *bin,
            link: *link,
            src: rec.src,
            src_as: rec.src_as,
            bytes: rec.bytes as f64 * factor,
        });
    }
    out
}

/// How many (bin, link) cells the SNMP-scaling pass could actually scale.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalingCoverage {
    /// Cells with both Netflow records and an SNMP poll sample.
    pub covered_cells: usize,
    /// Cells whose SNMP poll was missed; their volumes fall back to
    /// sampling-rate inversion.
    pub gapped_cells: usize,
    /// The gapped cells themselves, time-ordered.
    pub gapped: Vec<(SimTime, LinkId)>,
}

impl ScalingCoverage {
    /// Fraction of cells scaled against real SNMP data, in `[0, 1]`; no
    /// cells counts as full coverage.
    pub fn fraction(&self) -> f64 {
        let total = self.covered_cells + self.gapped_cells;
        if total == 0 {
            1.0
        } else {
            self.covered_cells as f64 / total as f64
        }
    }
}

/// Like [`scale_by_snmp`], but degrades gracefully when SNMP polls were
/// missed instead of silently zeroing those cells.
///
/// For a cell with a real poll sample, volumes are scaled exactly as in
/// [`scale_by_snmp`] (so with complete SNMP coverage the two functions
/// return identical results). For a cell whose poll was missed
/// ([`SnmpCounters::has_poll`] is false), the sampled bytes are instead
/// multiplied by the packet `sampling` rate — the estimate the collector
/// would publish with only Netflow in hand — and the cell is reported in
/// the returned [`ScalingCoverage`] so figure builders can annotate it.
pub fn scale_by_snmp_with_coverage(
    flows: &[(SimTime, LinkId, FlowRecord)],
    snmp: &SnmpCounters,
    sampling: u32,
) -> (Vec<ScaledVolume>, ScalingCoverage) {
    let mut cell_sampled: BTreeMap<(SimTime, LinkId), u64> = BTreeMap::new();
    for (bin, link, rec) in flows {
        *cell_sampled.entry((*bin, *link)).or_insert(0) += rec.bytes as u64;
    }
    let mut coverage = ScalingCoverage::default();
    for (&(bin, link), &sampled) in &cell_sampled {
        if sampled == 0 {
            continue;
        }
        if snmp.has_poll(bin, link) {
            coverage.covered_cells += 1;
        } else {
            coverage.gapped_cells += 1;
            coverage.gapped.push((bin, link));
        }
    }
    let mut out = Vec::with_capacity(flows.len());
    for (bin, link, rec) in flows {
        let sampled_total = cell_sampled[&(*bin, *link)];
        if sampled_total == 0 {
            continue;
        }
        let factor = if snmp.has_poll(*bin, *link) {
            snmp.delta(*bin, *link) as f64 / sampled_total as f64
        } else {
            sampling.max(1) as f64
        };
        out.push(ScaledVolume {
            bin: *bin,
            link: *link,
            src: rec.src,
            src_as: rec.src_as,
            bytes: rec.bytes as f64 * factor,
        });
    }
    (out, coverage)
}

/// Aggregates scaled volumes into bytes per (bin, source AS).
pub fn by_source_as(volumes: &[ScaledVolume]) -> BTreeMap<(SimTime, u16), f64> {
    let mut out = BTreeMap::new();
    for v in volumes {
        *out.entry((v.bin, v.src_as)).or_insert(0.0) += v.bytes;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src_last: u8, bytes: u32, src_as: u16) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::new(23, 0, 0, src_last),
            dst: Ipv4Addr::new(84, 17, 0, 1),
            input_if: 1,
            packets: bytes / 1400,
            bytes,
            src_as,
            dst_as: 3320,
        }
    }

    #[test]
    fn scaling_restores_snmp_total() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let link = LinkId(1);
        let mut snmp = SnmpCounters::new();
        snmp.account(link, 1_000_000); // exact truth
        snmp.poll(bin);
        // Sampled records only saw 1000 bytes total.
        let flows = vec![
            (bin, link, rec(1, 600, 20940)),
            (bin, link, rec(2, 400, 22822)),
        ];
        let scaled = scale_by_snmp(&flows, &snmp);
        let total: f64 = scaled.iter().map(|v| v.bytes).sum();
        assert!((total - 1_000_000.0).abs() < 1e-6);
        // Proportions preserved: 60/40.
        assert!((scaled[0].bytes - 600_000.0).abs() < 1e-6);
        assert!((scaled[1].bytes - 400_000.0).abs() < 1e-6);
    }

    #[test]
    fn cells_scale_independently() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let mut snmp = SnmpCounters::new();
        snmp.account(LinkId(1), 1000);
        snmp.account(LinkId(2), 9000);
        snmp.poll(bin);
        let flows = vec![
            (bin, LinkId(1), rec(1, 100, 714)),
            (bin, LinkId(2), rec(2, 100, 714)),
        ];
        let scaled = scale_by_snmp(&flows, &snmp);
        assert!((scaled[0].bytes - 1000.0).abs() < 1e-9);
        assert!((scaled[1].bytes - 9000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cells_are_skipped() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let snmp = SnmpCounters::new();
        let flows = vec![(bin, LinkId(1), rec(1, 0, 714))];
        assert!(scale_by_snmp(&flows, &snmp).is_empty());
    }

    #[test]
    fn coverage_variant_matches_plain_scaling_without_gaps() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let mut snmp = SnmpCounters::new();
        snmp.account(LinkId(1), 1_000_000);
        snmp.account(LinkId(2), 5_000);
        snmp.poll(bin);
        let flows = vec![
            (bin, LinkId(1), rec(1, 600, 20940)),
            (bin, LinkId(1), rec(2, 400, 22822)),
            (bin, LinkId(2), rec(3, 50, 714)),
        ];
        let plain = scale_by_snmp(&flows, &snmp);
        let (with_cov, cov) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
        assert_eq!(plain, with_cov);
        assert_eq!(cov.covered_cells, 2);
        assert_eq!(cov.gapped_cells, 0);
        assert_eq!(cov.fraction(), 1.0);
    }

    #[test]
    fn gapped_cell_falls_back_to_sampling_inversion() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let snmp = SnmpCounters::new(); // never polled: every cell is a gap
        let flows = vec![(bin, LinkId(1), rec(1, 600, 20940))];
        // The old estimator silently zeroes the cell…
        let plain = scale_by_snmp(&flows, &snmp);
        assert_eq!(plain[0].bytes, 0.0);
        // …the coverage-aware one estimates from the sampling rate and
        // flags the gap.
        let (scaled, cov) = scale_by_snmp_with_coverage(&flows, &snmp, 1000);
        assert!((scaled[0].bytes - 600_000.0).abs() < 1e-9);
        assert_eq!(cov.gapped, vec![(bin, LinkId(1))]);
        assert_eq!(cov.fraction(), 0.0);
    }

    #[test]
    fn aggregation_by_source_as() {
        let bin = SimTime::from_ymd(2017, 9, 19);
        let link = LinkId(1);
        let mut snmp = SnmpCounters::new();
        snmp.account(link, 1000);
        snmp.poll(bin);
        let flows = vec![
            (bin, link, rec(1, 30, 20940)),
            (bin, link, rec(2, 50, 20940)),
            (bin, link, rec(3, 20, 22822)),
        ];
        let agg = by_source_as(&scale_by_snmp(&flows, &snmp));
        assert!((agg[&(bin, 20940)] - 800.0).abs() < 1e-9);
        assert!((agg[&(bin, 22822)] - 200.0).abs() < 1e-9);
    }
}
