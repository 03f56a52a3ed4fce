//! Fault injection: run the global DNS campaign under a realistic fault
//! profile and print the coverage accounting next to the clean run.
//!
//! ```sh
//! cargo run --release --example faulted_campaign
//! ```

use metacdn_suite::analysis::coverage::dns_campaign_coverage;
use metacdn_suite::analysis::fig4::fig4_summary;
use metacdn_suite::build_world_or_exit;
use metacdn_suite::faults::{FaultProfile, RetryPolicy};
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::scenario::{run_dns_campaign, CampaignSpec, ScenarioConfig};

fn main() {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 250;
    cfg.global_dns_interval = Duration::mins(15);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.global_end = SimTime::from_ymd(2017, 9, 20);
    let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);

    // A clean run first: the fault layer defaults to FaultProfile::none()
    // and is guaranteed inert.
    let world = build_world_or_exit(&cfg);
    let clean = run_dns_campaign(&world, &cfg, &CampaignSpec::global())
        .expect("global campaign")
        .run
        .into_result();
    println!("— clean campaign —");
    println!("{}", dns_campaign_coverage(&clean));

    // The same campaign under literature-typical fault rates: 1 % query
    // loss, SERVFAIL rising with CDN pool load, periodic lame
    // delegations, Pareto-tailed answer latency, 3-attempt backoff.
    cfg.faults = FaultProfile::realistic(params_seed(&cfg));
    cfg.retry = RetryPolicy::standard();
    let world = build_world_or_exit(&cfg);
    let faulted = run_dns_campaign(&world, &cfg, &CampaignSpec::global())
        .expect("global campaign")
        .run
        .into_result();
    println!("— faulted campaign (FaultProfile::realistic) —");
    println!("{}", dns_campaign_coverage(&faulted));

    // The headline figure survives the losses.
    println!("{}", fig4_summary(&faulted, release));
}

fn params_seed(cfg: &ScenarioConfig) -> u64 {
    // Derive the fault seed from the scenario seed so one knob steers both.
    cfg.seed ^ 0xFA17
}
