//! Robustness: the paper's headline shapes survive a realistic fault
//! profile on the measurement plane, the zero-fault profile changes
//! nothing at all, and a total outage degrades gracefully instead of
//! panicking.

use metacdn_suite::analysis::coverage::{dns_campaign_coverage, telemetry_coverage};
use metacdn_suite::analysis::fig4::fig4_series;
use metacdn_suite::analysis::fig7::fig7_series;
use metacdn_suite::faults::{FaultProfile, RetryPolicy};
use metacdn_suite::geo::{Continent, Duration, SimTime};
use metacdn_suite::scenario::{
    run_dns_campaign, run_isp_traffic, CampaignSpec, CdnClass, ScenarioConfig, World,
};
use std::collections::HashMap;

fn event_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 250;
    cfg.global_dns_interval = Duration::mins(5);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.global_end = SimTime::from_ymd(2017, 9, 20);
    cfg
}

/// `FaultProfile::none()` must leave the campaign bit-identical to a run
/// with the whole retry machinery disabled: same unique-IP series, same
/// IP classification map, same figure output, and no retry accounting.
#[test]
fn zero_fault_profile_changes_nothing() {
    let mut quiet = event_cfg();
    quiet.global_probes = 50;
    quiet.global_dns_interval = Duration::mins(30);
    quiet.faults = FaultProfile::none();
    quiet.retry = RetryPolicy::standard();

    let mut bare = quiet;
    bare.retry = RetryPolicy::none();

    let world = World::build(&quiet);
    let a = run_dns_campaign(&world, &quiet, &CampaignSpec::global())
        .expect("global campaign")
        .run
        .into_result();
    let world2 = World::build(&bare);
    let b = run_dns_campaign(&world2, &bare, &CampaignSpec::global())
        .expect("global campaign")
        .run
        .into_result();

    let series_a: Vec<_> = a.unique_ips.series().collect();
    let series_b: Vec<_> = b.unique_ips.series().collect();
    assert_eq!(series_a, series_b, "unique-IP series must be bit-identical");
    assert_eq!(
        a.ip_classes, b.ip_classes,
        "IP classification must be bit-identical"
    );
    assert_eq!(a.resolutions, b.resolutions);
    assert_eq!(
        fig4_series(&a).rows,
        fig4_series(&b).rows,
        "figure output must be bit-identical"
    );

    // And the fault accounting is inert.
    assert_eq!(a.attempts, a.resolutions, "no faults → no retries");
    assert_eq!(a.retry_exhausted, 0);
    assert_eq!(a.success_fraction(), 1.0);
}

/// The Figure 4 EU unique-IP spike and the stable-Apple observation must
/// survive a realistic fault profile (query loss, SERVFAIL under load,
/// lame delegations, slow answers) on top of probe churn.
#[test]
fn eu_spike_survives_realistic_faults() {
    let mut cfg = event_cfg();
    cfg.probe_availability = 0.88;
    cfg.faults = FaultProfile::realistic(17);
    cfg.retry = RetryPolicy::standard();
    let world = World::build(&cfg);
    let result = run_dns_campaign(&world, &cfg, &CampaignSpec::global())
        .expect("global campaign")
        .run
        .into_result();

    // Faults actually fired and retries actually ran…
    assert!(
        result.attempts > result.resolutions,
        "the profile must bite"
    );
    // …but backoff keeps the campaign mostly usable.
    assert!(
        result.success_fraction() > 0.9,
        "retries should recover most transient faults, got {:.3}",
        result.success_fraction()
    );
    assert!(result.retry_exhausted < result.resolutions / 20);

    // The headline shapes of Figure 4 still hold.
    let count_at = |bin: SimTime| -> usize {
        CdnClass::ALL
            .iter()
            .map(|c| result.unique_ips.count(bin, Continent::Europe, *c))
            .sum()
    };
    let before = count_at(SimTime::from_ymd_hms(2017, 9, 18, 18, 0, 0));
    let after = count_at(SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0));
    assert!(
        after as f64 > 2.0 * before as f64,
        "EU spike must survive faults: {before} → {after}"
    );
    let apple_before = result.unique_ips.count(
        SimTime::from_ymd_hms(2017, 9, 18, 18, 0, 0),
        Continent::Europe,
        CdnClass::Apple,
    );
    let apple_after = result.unique_ips.count(
        SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0),
        Continent::Europe,
        CdnClass::Apple,
    );
    assert!(
        (apple_after as f64) < 2.0 * apple_before.max(1) as f64,
        "Apple stays flat"
    );
}

/// A campaign where every upstream query is lost must end in empty — not
/// panicking — results, with the loss fully visible in the accounting.
#[test]
fn total_dns_outage_degrades_gracefully() {
    let mut cfg = event_cfg();
    cfg.global_probes = 20;
    cfg.global_dns_interval = Duration::hours(6);
    let mut profile = FaultProfile::realistic(1);
    profile.query_loss = 1.0;
    cfg.faults = profile;
    cfg.retry = RetryPolicy::standard();
    let world = World::build(&cfg);
    let result = run_dns_campaign(&world, &cfg, &CampaignSpec::global())
        .expect("global campaign")
        .run
        .into_result();

    assert!(result.resolutions > 0, "measurements were still attempted");
    assert_eq!(
        result.retry_exhausted, result.resolutions,
        "every one failed"
    );
    assert_eq!(
        result.attempts,
        result.resolutions * cfg.retry.max_attempts as u64,
        "every measurement used its whole retry budget"
    );
    assert!(result.unique_ips.is_empty(), "nothing was observed");
    assert_eq!(result.success_fraction(), 0.0);
    // The coverage table renders the disaster instead of panicking.
    let t = dns_campaign_coverage(&result);
    assert_eq!(t.rows[0][4], "0.0");
}

/// Telemetry with every SNMP poll missed must still flow through the
/// figure builders: the coverage-aware scaler falls back to sampling-rate
/// inversion and the coverage table reports zero SNMP backing.
#[test]
fn snmp_blackout_keeps_figures_alive() {
    let mut cfg = ScenarioConfig::fast();
    cfg.traffic_start = SimTime::from_ymd_hms(2017, 9, 19, 16, 0, 0);
    cfg.traffic_end = SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0);
    let mut profile = FaultProfile::none().with_seed(7);
    profile.snmp_gap = 1.0;
    profile.netflow_export_loss = 0.10;
    cfg.faults = profile;
    let world = World::build(&cfg);
    let traffic = run_isp_traffic(&world, &cfg, 0).0;

    assert!(traffic.polls_missed > 0, "the blackout must bite");
    assert!(traffic.export_losses > 0, "export loss must bite");
    // Figure 7 still builds (empty attribution set keeps it small).
    let t = fig7_series(&traffic, &HashMap::new(), cfg.traffic_start);
    assert!(t.rows.is_empty());
    // With DNS-observed classes it must not panic either.
    let dns_cfg = {
        let mut c = ScenarioConfig::fast();
        c.global_probes = 20;
        c.global_dns_interval = Duration::hours(6);
        c
    };
    let dns = run_dns_campaign(&world, &dns_cfg, &CampaignSpec::global())
        .expect("global campaign")
        .run
        .into_result();
    let t = fig7_series(&traffic, &dns.ip_classes, cfg.traffic_start);
    drop(t);
    // And the coverage table names the gap.
    let cov = telemetry_coverage(&traffic);
    assert_eq!(cov.rows[0][5], "0.0", "no cell had SNMP backing");
}
