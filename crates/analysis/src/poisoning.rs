//! Poisoning-sweep summary: mis-mapping and cache-poisoning deltas with
//! bailiwick enforcement on versus off.
//!
//! The chaos table quantifies what the Meta-CDN loses when hardware
//! fails; this table quantifies what it loses when *answers lie*. Each
//! row condenses one [`PoisonRunResult`] into the rates that matter: how
//! often demand was handed to the attacker prefix, how many forged
//! records made it into a resolver cache, and how much of the mangled
//! wire traffic the total decoder rejected — all relative to the quiet
//! baseline, so the enforcement delta is a column, not an exercise for
//! the reader.

use crate::table::Table;
use mcdn_scenario::PoisonRunResult;

/// One poisoning scenario's run, summarized against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonSummary {
    /// Scenario name.
    pub scenario: &'static str,
    /// Whether bailiwick enforcement was on.
    pub enforce: bool,
    /// Forgeries the Byzantine upstream injected.
    pub tampered: u64,
    /// Fraction of resolutions routed to the attacker prefix.
    pub mis_map_rate: f64,
    /// Mis-mapping rate minus the baseline's.
    pub mis_map_delta: f64,
    /// Out-of-bailiwick records found cached across the run.
    pub poisoned_cache_records: u64,
    /// Fraction of resolutions that still failed after retries.
    pub failure_rate: f64,
    /// Fraction of wire-stage messages the decoder rejected.
    pub wire_reject_rate: f64,
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Summarizes a sweep. The first result is treated as the baseline (the
/// convention of [`mcdn_scenario::poison_grid`]); the mis-mapping delta
/// is relative to it, so the baseline row's delta is zero by
/// construction.
pub fn summarize_poisoning(results: &[PoisonRunResult]) -> Vec<PoisonSummary> {
    let base = results
        .first()
        .map_or(0.0, |r| rate(r.attacker_routed, r.resolutions));
    results
        .iter()
        .map(|r| {
            let mis_map_rate = rate(r.attacker_routed, r.resolutions);
            PoisonSummary {
                scenario: r.scenario,
                enforce: r.enforce,
                tampered: r.tampered,
                mis_map_rate,
                mis_map_delta: mis_map_rate - base,
                poisoned_cache_records: r.out_of_bailiwick_cached,
                failure_rate: rate(r.transient_failures, r.resolutions),
                wire_reject_rate: rate(r.wire_decode_errors, r.wire_messages),
            }
        })
        .collect()
}

/// Renders the sweep summary as the poisoning table (one row per
/// scenario).
pub fn poisoning_table(results: &[PoisonRunResult]) -> Table {
    let mut t = Table::new(
        "Poisoning sweep — mis-mapping and cache poisoning, enforcement on vs off",
        &[
            "scenario",
            "bailiwick",
            "forged",
            "mis-map",
            "Δ mis-map",
            "poisoned cache",
            "fail rate",
            "wire rejects",
        ],
    );
    for s in summarize_poisoning(results) {
        t.push(vec![
            s.scenario.to_string(),
            if s.enforce { "enforce" } else { "open" }.to_string(),
            s.tampered.to_string(),
            format!("{:.4}", s.mis_map_rate),
            format!("{:+.4}", s.mis_map_delta),
            s.poisoned_cache_records.to_string(),
            format!("{:.4}", s.failure_rate),
            format!("{:.4}", s.wire_reject_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::Duration;
    use mcdn_scenario::{params, poison_grid, run_poison, ScenarioConfig};

    #[test]
    fn baseline_row_has_zero_delta_and_open_spoofing_shows_one() {
        let mut cfg = ScenarioConfig::fast();
        let release = params::release();
        cfg.traffic_start = release - Duration::hours(1);
        cfg.traffic_end = release + Duration::hours(3);
        let grid = poison_grid(cfg.seed);
        let results = vec![run_poison(&cfg, &grid[0]), run_poison(&cfg, &grid[2])];
        let summaries = summarize_poisoning(&results);
        assert_eq!(summaries[0].scenario, "baseline-quiet");
        assert_eq!(summaries[0].mis_map_delta, 0.0);
        assert_eq!(summaries[1].scenario, "spoof-a-open");
        assert!(
            summaries[1].mis_map_delta > 0.0,
            "disabling enforcement must show a measurable mis-mapping delta"
        );
        let t = poisoning_table(&results);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.cell(1, 1), Some("open"));
    }
}
