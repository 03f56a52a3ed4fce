//! Chaos sweep: run the seeded infrastructure-failure grid against the
//! Meta-CDN's health-checked failover and print the availability/offload
//! table, checking every per-tick invariant on the way.
//!
//! ```sh
//! cargo run --release --example chaos_sweep
//! ```
//!
//! Output is a pure function of the seed: two runs with the same seed
//! print identical bytes (the CI determinism gate diffs them). Exits
//! non-zero if any scenario violates an invariant.

use metacdn_suite::analysis::chaos::{chaos_table, limelight_served_fraction};
use metacdn_suite::geo::Duration;
use metacdn_suite::scenario::{params, run_chaos_sweep, standard_grid, ScenarioConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = ScenarioConfig::fast();
    // A window bracketing the release: quiet lead-in, flash crowd, decay.
    cfg.traffic_start = params::release() - Duration::hours(12);
    cfg.traffic_end = params::release() + Duration::hours(36);
    // Validate the configuration through the front door: a bad config
    // exits politely here instead of panicking inside the sweep.
    let _ = metacdn_suite::build_world_or_exit(&cfg);
    let grid = standard_grid(cfg.seed);

    println!(
        "chaos sweep: {} scenarios over {:?} ticks",
        grid.len(),
        cfg.traffic_tick
    );
    let results = match run_chaos_sweep(&cfg, &grid) {
        Ok(results) => results,
        Err((scenario, violation)) => {
            eprintln!("INVARIANT VIOLATION in scenario {scenario}: {violation}");
            return ExitCode::FAILURE;
        }
    };

    println!("{}", chaos_table(&results));
    for r in &results {
        println!(
            "{:<16} limelight share of served traffic: {:.4}",
            r.scenario,
            limelight_served_fraction(r)
        );
    }
    println!("all invariants held across the grid");
    ExitCode::SUCCESS
}
