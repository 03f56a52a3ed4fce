//! Poisoning sweep: drive the Byzantine-answer grid — spoofed A records,
//! out-of-bailiwick NS injections, truncation storms, TTL inflation —
//! against bailiwick-enforcing resolvers and print the mis-mapping table,
//! auditing routing, caches, and the wire on every tick.
//!
//! ```sh
//! cargo run --release --example poison_sweep
//! ```
//!
//! Output is a pure function of the seed: two runs with the same seed
//! print identical bytes (the CI determinism gate diffs them). Exits
//! non-zero if any scenario violates an invariant — an out-of-bailiwick
//! record cached or demand routed to the attacker prefix despite
//! enforcement, a TTL past the cache cap, or a vacuous adversary.

use metacdn_suite::analysis::poisoning::poisoning_table;
use metacdn_suite::geo::Duration;
use metacdn_suite::scenario::{params, poison_grid, run_poison_sweep, ScenarioConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = ScenarioConfig::fast();
    // A window bracketing the release: the attacker strikes while the
    // Meta-CDN is busiest and forgeries would hurt most.
    cfg.traffic_start = params::release() - Duration::hours(6);
    cfg.traffic_end = params::release() + Duration::hours(18);
    // Validate the configuration through the front door: a bad config
    // exits politely here instead of panicking inside the sweep.
    let _ = metacdn_suite::build_world_or_exit(&cfg);
    let grid = poison_grid(cfg.seed);

    println!(
        "poison sweep: {} scenarios over {:?} ticks",
        grid.len(),
        cfg.traffic_tick
    );
    let results = match run_poison_sweep(&cfg, &grid) {
        Ok(results) => results,
        Err((scenario, violation)) => {
            eprintln!("INVARIANT VIOLATION in scenario {scenario}: {violation}");
            return ExitCode::FAILURE;
        }
    };

    println!("{}", poisoning_table(&results));
    for r in &results {
        println!(
            "{:<18} forged {:>4} answers; wire stage rejected {}/{} mangled messages",
            r.scenario, r.tampered, r.wire_decode_errors, r.wire_messages
        );
    }
    println!("all invariants held across the grid");
    ExitCode::SUCCESS
}
