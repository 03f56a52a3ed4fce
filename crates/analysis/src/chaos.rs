//! Chaos-sweep summary: per-scenario availability and offload deltas.
//!
//! The paper never breaks the infrastructure — it measures a system that
//! stayed up. The chaos sweep asks the counterfactual: *how much* of the
//! event would the Meta-CDN have served with sites dark, capacity browned
//! out, or a third-party control plane dead, and how far does the mapping
//! shift traffic to compensate? This module condenses each scenario's
//! per-tick audit trail into one comparable row against the clean
//! baseline.

use crate::table::Table;
use mcdn_scenario::ChaosRunResult;
use metacdn::CdnKind;

/// One scenario's run, summarized against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSummary {
    /// Scenario name.
    pub scenario: &'static str,
    /// Fraction of offered demand served.
    pub availability: f64,
    /// Availability minus the baseline's.
    pub availability_delta: f64,
    /// Fraction of served traffic carried by third-party CDNs.
    pub offload: f64,
    /// Offload minus the baseline's.
    pub offload_delta: f64,
    /// Fraction of DNS liveness probes that resolved.
    pub dns_success: f64,
    /// Health eject/restore transitions over the run.
    pub transitions: u64,
}

/// Summarizes a sweep. The first result is treated as the baseline (the
/// convention of [`mcdn_scenario::standard_grid`]); deltas are relative
/// to it, so the baseline row's deltas are zero by construction.
pub fn summarize_sweep(results: &[ChaosRunResult]) -> Vec<ChaosSummary> {
    let base_avail = results.first().map_or(1.0, ChaosRunResult::availability);
    let base_offload = results
        .first()
        .map_or(0.0, ChaosRunResult::offload_fraction);
    results
        .iter()
        .map(|r| {
            let availability = r.availability();
            let offload = r.offload_fraction();
            ChaosSummary {
                scenario: r.scenario,
                availability,
                availability_delta: availability - base_avail,
                offload,
                offload_delta: offload - base_offload,
                dns_success: r.dns_success(),
                transitions: r.total_transitions(),
            }
        })
        .collect()
}

/// Renders the sweep summary as the chaos table (one row per scenario).
pub fn chaos_table(results: &[ChaosRunResult]) -> Table {
    let mut t = Table::new(
        "Chaos sweep — availability and offload under infrastructure failures",
        &[
            "scenario",
            "availability",
            "Δ avail",
            "offload",
            "Δ offload",
            "dns ok",
            "health transitions",
        ],
    );
    for s in summarize_sweep(results) {
        t.push(vec![
            s.scenario.to_string(),
            format!("{:.4}", s.availability),
            format!("{:+.4}", s.availability_delta),
            format!("{:.4}", s.offload),
            format!("{:+.4}", s.offload_delta),
            format!("{:.4}", s.dns_success),
            s.transitions.to_string(),
        ]);
    }
    t
}

/// Mean Limelight share of served traffic in one run — the quantity the
/// LL-LB-kill scenario collapses and the spill test tracks.
pub fn limelight_served_fraction(result: &ChaosRunResult) -> f64 {
    let ll = result.mean_served_bps(CdnKind::Limelight);
    let total: f64 = CdnKind::ALL
        .into_iter()
        .map(|k| result.mean_served_bps(k))
        .sum();
    if total <= 0.0 {
        0.0
    } else {
        ll / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::Duration;
    use mcdn_scenario::{run_chaos, standard_grid, ScenarioConfig};

    fn cfg() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::fast();
        let release = mcdn_scenario::params::release();
        cfg.traffic_start = release - Duration::hours(3);
        cfg.traffic_end = release + Duration::hours(6);
        cfg
    }

    #[test]
    fn baseline_row_has_zero_deltas() {
        let grid = standard_grid(3);
        let results = vec![run_chaos(&cfg(), &grid[0]), run_chaos(&cfg(), &grid[4])];
        let summaries = summarize_sweep(&results);
        assert_eq!(summaries[0].scenario, "baseline");
        assert_eq!(summaries[0].availability_delta, 0.0);
        assert_eq!(summaries[0].offload_delta, 0.0);
        let t = chaos_table(&results);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.cell(0, 0), Some("baseline"));
        // apple-degraded sheds Apple capacity → offload must not fall.
        assert!(
            summaries[1].offload_delta >= 0.0,
            "degrading Apple cannot reduce offload"
        );
    }
}
