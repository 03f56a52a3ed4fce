//! The infrastructure chaos layer, end to end: bit-inert when off, the
//! Limelight-LB-kill scenario reproduces the paper's overflow by spilling
//! onto the surviving CDNs with hysteresis-delayed eject/restore, a
//! flapping health signal cannot oscillate the mapping, a total telemetry
//! blackout degrades to the last-known-good mapping, and the whole sweep
//! grid holds its invariants bit-identically across reruns.

use metacdn_suite::analysis::chaos::limelight_served_fraction;
use metacdn_suite::core::{CdnKind, HealthParams, HealthTracker};
use metacdn_suite::geo::{Duration, Region};
use metacdn_suite::scenario::{
    check_invariants, loads::update_loads, params, run_chaos, run_chaos_sweep, standard_grid,
    ChaosRunResult, ScenarioConfig, World,
};

/// An 18-hour window bracketing the release: quiet lead-in, flash crowd.
fn chaos_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.traffic_start = params::release() - Duration::hours(6);
    cfg.traffic_end = params::release() + Duration::hours(12);
    cfg
}

fn share_has(
    result: &ChaosRunResult,
    t: metacdn_suite::geo::SimTime,
    region: Region,
    kind: CdnKind,
) -> bool {
    let audit = result
        .ticks
        .iter()
        .find(|a| a.t == t && a.region == region)
        .unwrap_or_else(|| panic!("no audit at {t} {region:?}"));
    audit.share.iter().any(|(k, _)| *k == kind)
}

/// With only the baseline (fault-free) scenario in force, the chaos
/// machinery must be a pure observer: every per-tick selection share it
/// records is bit-identical to a plain controller replay that never heard
/// of the chaos layer, and no health churn happens.
#[test]
fn chaos_off_is_bit_inert() {
    let cfg = chaos_cfg();
    let baseline = run_chaos(&cfg, &standard_grid(cfg.seed)[0]);
    assert_eq!(baseline.total_transitions(), 0);

    let world = World::build(&cfg);
    let mut i = 0;
    let mut t = cfg.traffic_start;
    while t < cfg.traffic_end {
        update_loads(&world, t);
        for region in Region::ALL {
            let audit = &baseline.ticks[i];
            assert_eq!(audit.t, t);
            assert_eq!(audit.region, region);
            assert_eq!(
                audit.share,
                world.state.effective_share(region, t),
                "chaos-off share must be bit-identical to the plain controller at {t} {region:?}"
            );
            assert_eq!(audit.demand_bps, world.region_demand_bps(region, t));
            i += 1;
        }
        t += cfg.traffic_tick;
    }
    assert_eq!(
        i,
        baseline.ticks.len(),
        "audit trail covers exactly the window"
    );
}

/// The acceptance scenario: killing Limelight's load balancer one hour
/// into the event ejects it (after the hysteresis delay, not instantly),
/// spills its share onto the surviving CDNs — the paper's overflow
/// behaviour, forced by infrastructure failure instead of load — and
/// restores it after the kill window, with all invariants holding.
#[test]
fn ll_lb_kill_spills_to_surviving_cdns_and_restores() {
    let cfg = chaos_cfg();
    let grid = standard_grid(cfg.seed);
    let base = run_chaos(&cfg, &grid[0]);
    let kill = run_chaos(&cfg, &grid[5]);
    assert_eq!(kill.scenario, "ll-lb-kill");
    check_invariants(&kill).expect("kill-scenario invariants");

    let release = params::release();
    // Kill window is [release+1h, release+7h). Eject needs 3 consecutive
    // failed 5-minute probes, so at the kill instant Limelight is still
    // mapped (hysteresis delay)…
    assert!(
        share_has(
            &kill,
            release + Duration::hours(1),
            Region::Eu,
            CdnKind::Limelight
        ),
        "hysteresis must delay the ejection past the first failed probe"
    );
    // …an hour in it is gone everywhere the baseline maps it…
    for region in Region::ALL {
        let t = release + Duration::hours(2);
        if share_has(&base, t, region, CdnKind::Limelight) {
            assert!(
                !share_has(&kill, t, region, CdnKind::Limelight),
                "Limelight must be ejected in {region:?} mid-kill"
            );
        }
    }
    // …and an hour after the window ends it is restored.
    assert!(
        share_has(
            &kill,
            release + Duration::hours(8),
            Region::Eu,
            CdnKind::Limelight
        ),
        "Limelight must be restored after the kill window"
    );

    // Exactly one eject + one restore per regional tracker — no flapping.
    assert!(!kill.transitions.is_empty());
    for (kind, region, n) in &kill.transitions {
        assert_eq!(
            *kind,
            CdnKind::Limelight,
            "only Limelight trackers transition"
        );
        assert_eq!(*n, 2, "one eject + one restore in {region:?}");
    }

    // The spill: Limelight's share of served traffic collapses and the
    // fallback CDN picks up more traffic than in the clean run.
    let ll_base = limelight_served_fraction(&base);
    let ll_kill = limelight_served_fraction(&kill);
    assert!(
        ll_kill < ll_base - 0.02,
        "kill must depress Limelight's served share: {ll_base:.4} → {ll_kill:.4}"
    );
    assert!(
        kill.mean_served_bps(CdnKind::Akamai) > base.mean_served_bps(CdnKind::Akamai),
        "the shed demand must spill onto Akamai"
    );
}

/// Satellite: a flapping health signal must not oscillate the mapping
/// faster than the hysteresis thresholds allow. A strict alternation
/// (worst-case flap) never transitions at all; the slowest flap that does
/// transition changes the mapping exactly once per threshold crossing.
#[test]
fn flapping_health_signal_cannot_oscillate_the_mapping() {
    let cfg = ScenarioConfig::fast();
    let world = World::build(&cfg);
    let t = params::release();
    let region = Region::Eu;
    let health = HealthParams::standard();
    let baseline_share = world.state.effective_share(region, t);
    assert!(baseline_share.iter().any(|(k, _)| *k == CdnKind::Limelight));

    // Worst-case flap: up/down every probe. Never crosses either
    // threshold, so the mapping must never move.
    let mut tracker = HealthTracker::new();
    for i in 0..200 {
        if tracker.observe(i % 2 == 0, &health).is_some() {
            world
                .state
                .set_cdn_health(CdnKind::Limelight, region, tracker.is_up());
        }
    }
    assert_eq!(
        tracker.transitions(),
        0,
        "alternating probes must be filtered out"
    );
    assert_eq!(world.state.effective_share(region, t), baseline_share);

    // Slowest transitioning flap: exactly eject_after failures then
    // restore_after successes, repeated. The mapping changes exactly at
    // the threshold crossings and nowhere else.
    let mut tracker = HealthTracker::new();
    let cycles = 10u64;
    let mut mapping_changes = 0u64;
    for _ in 0..cycles {
        for _ in 0..health.eject_after {
            if tracker.observe(false, &health).is_some() {
                world
                    .state
                    .set_cdn_health(CdnKind::Limelight, region, tracker.is_up());
                mapping_changes += 1;
            }
        }
        assert!(
            !world
                .state
                .effective_share(region, t)
                .iter()
                .any(|(k, _)| *k == CdnKind::Limelight),
            "ejected after {} consecutive failures",
            health.eject_after
        );
        for _ in 0..health.restore_after {
            if tracker.observe(true, &health).is_some() {
                world
                    .state
                    .set_cdn_health(CdnKind::Limelight, region, tracker.is_up());
                mapping_changes += 1;
            }
        }
        assert_eq!(
            world.state.effective_share(region, t),
            baseline_share,
            "restored after {} consecutive successes",
            health.restore_after
        );
    }
    assert_eq!(
        mapping_changes,
        2 * cycles,
        "one mapping move per threshold crossing"
    );
    assert_eq!(tracker.transitions(), mapping_changes);
    // The slowest flap saturates the invariant checker's bound of two
    // transitions per `eject_after + restore_after` probes.
    let cycle = (health.eject_after + health.restore_after) as u64;
    let probes = cycles * cycle;
    assert!(tracker.transitions() <= 2 * (probes / cycle) + 1);
}

/// When every health signal is lost (total telemetry blackout), the
/// mapping freezes onto the last-known-good share instead of going empty:
/// traffic keeps flowing mid-blackout and the run still passes every
/// invariant.
#[test]
fn total_dark_blackout_falls_back_to_last_known_good() {
    let cfg = chaos_cfg();
    let grid = standard_grid(cfg.seed);
    let dark = run_chaos(&cfg, &grid[6]);
    assert_eq!(dark.scenario, "total-dark");
    check_invariants(&dark).expect("total-dark invariants");

    // Blackout window is [release+2h, release+5h); by +3h every tracker
    // has long crossed eject_after, so all CDNs are voted down — yet the
    // share is the frozen last-known-good distribution, not empty.
    let release = params::release();
    for region in Region::ALL {
        let audit = dark
            .ticks
            .iter()
            .find(|a| a.t == release + Duration::hours(3) && a.region == region)
            .expect("mid-blackout tick");
        assert!(
            !audit.share.is_empty(),
            "mid-blackout mapping must not go empty in {region:?}"
        );
        let sum: f64 = audit.share.iter().map(|(_, p)| p).sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "last-known-good share stays a distribution"
        );
        assert!(audit.alloc.served.iter().map(|(_, s)| s).sum::<f64>() > 0.0);
    }
    assert!(
        dark.total_transitions() >= 2,
        "blackout must eject and restore"
    );
    assert!(
        dark.availability() > 0.8,
        "graceful degradation, not collapse"
    );
}

/// The full grid passes every invariant and replays bit-identically —
/// the property the CI determinism gate checks on the printed table.
#[test]
fn sweep_grid_holds_invariants_and_replays_bit_identically() {
    let cfg = chaos_cfg();
    let grid = standard_grid(cfg.seed);
    let a = run_chaos_sweep(&cfg, &grid).expect("sweep invariants");
    let b = run_chaos_sweep(&cfg, &grid).expect("sweep invariants");
    assert_eq!(a.len(), 7);
    assert_eq!(
        a, b,
        "equal seed must replay the whole sweep bit-identically"
    );
}
