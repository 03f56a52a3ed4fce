//! The parallel engine's contract: campaign and telemetry outputs are
//! bit-identical for any worker count — serial, two shards, or eight —
//! with faults off and with a chaos-grade fault profile in force, and no
//! placement of shard boundaries can change a merged aggregate.

use metacdn_suite::exec::shard_bounds;
use metacdn_suite::faults::FaultProfile;
use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::scenario::{
    run_dns_campaign, run_isp_traffic, standard_grid, CampaignKind, CampaignSpec, CdnClass,
    DnsCampaignResult, IpClassLedger, ResumeOptions, ScenarioConfig, World,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn small_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 70;
    cfg.isp_probes = 40;
    cfg.global_dns_interval = Duration::hours(1);
    cfg.global_start = SimTime::from_ymd_hms(2017, 9, 18, 12, 0, 0);
    cfg.global_end = SimTime::from_ymd(2017, 9, 20);
    cfg.isp_start = SimTime::from_ymd(2017, 9, 17);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 21);
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 20);
    cfg.traffic_tick = Duration::mins(30);
    cfg
}

/// A fault profile with every chaos knob turned on — the `total-dark`
/// scenario of the standard grid, the harshest the sweep exercises.
fn chaos_faults() -> FaultProfile {
    let grid = standard_grid(41);
    let scen = grid.last().expect("grid is non-empty");
    assert_eq!(scen.name, "total-dark");
    scen.faults
}

/// The full Byzantine-answer profile (spoofed A records, NS injection,
/// truncation, TTL inflation) with bailiwick enforcement ON — the
/// hardened-resolver arm of the poisoning sweep. Under it every round
/// takes the tamper/enforcement code path, so shard merges carry poison
/// audit counters, not just resolution results.
fn poison_enforced_faults() -> FaultProfile {
    let faults = FaultProfile::poisoning(41);
    assert!(faults.enforce_bailiwick);
    faults
}

fn profiles() -> [(&'static str, FaultProfile); 3] {
    [
        ("none", FaultProfile::none()),
        ("chaos", chaos_faults()),
        ("poison-enforced", poison_enforced_faults()),
    ]
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The in-memory `kind` campaign over a fresh world on `threads` workers.
fn campaign(cfg: &ScenarioConfig, kind: CampaignKind, threads: usize) -> DnsCampaignResult {
    let opts = ResumeOptions {
        threads,
        ..ResumeOptions::default()
    };
    let spec = CampaignSpec {
        kind,
        journal: None,
        opts,
    };
    run_dns_campaign(&World::build(cfg), cfg, &spec)
        .expect("campaign")
        .run
        .into_result()
}

#[test]
fn global_campaign_bit_identical_across_thread_counts() {
    for (label, faults) in profiles() {
        let mut cfg = small_cfg();
        cfg.faults = faults;
        let baseline = campaign(&cfg, CampaignKind::Global, THREAD_COUNTS[0]);
        assert!(baseline.resolutions > 0);
        for threads in &THREAD_COUNTS[1..] {
            let r = campaign(&cfg, CampaignKind::Global, *threads);
            assert_eq!(r, baseline, "faults={label} threads={threads}");
        }
        // The memo accounting must be canonical too (covered by the
        // equality above, but state the figures a reader should expect).
        assert!(baseline.memo_lookups >= baseline.memo_hits);
    }
}

#[test]
fn isp_campaign_bit_identical_across_thread_counts() {
    for (label, faults) in profiles() {
        let mut cfg = small_cfg();
        cfg.faults = faults;
        let baseline = campaign(&cfg, CampaignKind::Isp, THREAD_COUNTS[0]);
        assert!(baseline.resolutions > 0);
        for threads in &THREAD_COUNTS[1..] {
            let r = campaign(&cfg, CampaignKind::Isp, *threads);
            assert_eq!(r, baseline, "faults={label} threads={threads}");
        }
    }
}

#[test]
fn traffic_bit_identical_across_thread_counts() {
    for (label, faults) in profiles() {
        let mut cfg = small_cfg();
        cfg.faults = faults;
        let baseline = run_isp_traffic(&World::build(&cfg), &cfg, THREAD_COUNTS[0]).0;
        assert!(!baseline.flows.is_empty());
        for threads in &THREAD_COUNTS[1..] {
            let r = run_isp_traffic(&World::build(&cfg), &cfg, *threads).0;
            assert_eq!(r, baseline, "faults={label} threads={threads}");
        }
    }
}

#[test]
fn pool_is_reused_across_back_to_back_campaigns() {
    // Two full campaigns over the same worker pool: the second must not
    // spawn a single new thread (the point of the persistent pool) and
    // must produce the same output as the first for the same config.
    let cfg = small_cfg();
    let threads = 4;
    // Warm to the widest dispatch ANY test in this binary performs (the
    // pool is process-global and tests run concurrently): once no test
    // can trigger a spawn, the stability assertion below cannot be
    // perturbed by a neighbour.
    metacdn_suite::exec::warm(*THREAD_COUNTS.iter().max().unwrap());
    let first = campaign(&cfg, CampaignKind::Global, threads);
    let between = metacdn_suite::exec::pool_stats();
    let second = campaign(&cfg, CampaignKind::Global, threads);
    let after = metacdn_suite::exec::pool_stats();
    assert_eq!(first, second, "back-to-back campaigns must agree");
    assert_eq!(
        after.spawned, between.spawned,
        "second campaign spawned workers on a warm pool: {between:?} -> {after:?}"
    );
    assert!(
        after.dispatches > between.dispatches,
        "second campaign never dispatched to the pool: {between:?} -> {after:?}"
    );
}

// ------------------------------------------------- shard-boundary law ---

fn arb_obs() -> impl Strategy<Value = (u64, u8, u32)> {
    // (hour offset, class index, ip suffix) — a compact observation.
    (0u64..48, 0u8..6, 0u32..64)
}

proptest! {
    /// Splitting any observation sequence at the boundaries `shard_bounds`
    /// produces — for ANY shard count — and merging the shard-local
    /// ledgers/aggregators in shard order equals processing the whole
    /// sequence serially. This is the algebraic fact the engine's
    /// bit-identity rests on.
    #[test]
    fn shard_boundaries_never_change_merged_aggregates(
        obs in proptest::collection::vec(arb_obs(), 0..80),
        shards in 1usize..10,
    ) {
        let classes = CdnClass::ALL;
        let t0 = SimTime::from_ymd(2017, 9, 18);
        let decode = |(h, c, s): (u64, u8, u32)| {
            (
                t0 + Duration::hours(h),
                classes[c as usize % classes.len()],
                Ipv4Addr::from(0x2900_0000 + s),
            )
        };

        // Serial reference.
        let mut whole_agg = metacdn_suite::atlas::UniqueIpAggregator::new(Duration::hours(1));
        let mut whole_ledger = IpClassLedger::new();
        for &o in &obs {
            let (t, class, ip) = decode(o);
            whole_agg.record(t, 0u8, class, ip);
            whole_ledger.observe(ip, t, class);
        }

        // Sharded: each bound's slice into its own partials, merged in
        // canonical shard order.
        let bounds = shard_bounds(obs.len(), shards);
        if !obs.is_empty() {
            prop_assert_eq!(bounds.iter().map(|r| r.len()).sum::<usize>(), obs.len());
        }
        let mut merged_agg = metacdn_suite::atlas::UniqueIpAggregator::new(Duration::hours(1));
        let mut merged_ledger = IpClassLedger::new();
        for range in bounds {
            let mut agg = metacdn_suite::atlas::UniqueIpAggregator::new(Duration::hours(1));
            let mut ledger = IpClassLedger::new();
            for &o in &obs[range] {
                let (t, class, ip) = decode(o);
                agg.record(t, 0u8, class, ip);
                ledger.observe(ip, t, class);
            }
            merged_agg.merge(agg);
            merged_ledger.merge(ledger);
        }
        prop_assert_eq!(&merged_agg, &whole_agg);
        prop_assert_eq!(merged_ledger.into_classes(), whole_ledger.into_classes());
    }
}
