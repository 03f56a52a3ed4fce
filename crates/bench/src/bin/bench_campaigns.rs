//! The campaign-engine benchmark trajectory: runs the DNS campaigns and
//! the traffic simulation at several worker counts, checks the outputs
//! are bit-identical, and writes `BENCH_campaigns.json` with wall times,
//! resolution throughput, memo hit rates, per-thread-count speedups and
//! the worker pool's counters.
//!
//! Usage: `bench_campaigns [--smoke] [OUT.json]`. `--smoke` shrinks the
//! workload for CI gating; the default output path is
//! `BENCH_campaigns.json` in the working directory. Any other option is an
//! error (exit 2).
//!
//! Wall times are reported, never gated against a constant: they depend
//! on the host. The gates are exact counts that are the same on every
//! host. The bench runs in one process, so nothing else dispatches while
//! it measures, and every run's `mcdn_exec::pool_stats()` delta must show
//! no worker spawned on the warmed pool and exactly one dispatch per DNS
//! round, or per phase-B batch of 8 traffic ticks (none on one worker).
//!
//! Two allocation audits gate the resolution path at exactly zero heap
//! allocations per resolution: a warm pass (one probe re-resolving at a
//! fixed instant, every hop a cache hit) and a cold pass (the paper fleet
//! over successive campaign rounds, where hops miss the cache and reach
//! every mapping policy).

use alloc_counter::CountingAlloc;
use mcdn_atlas::{build_fleet, Probe};
use mcdn_bench::dns_campaign;
use mcdn_dnssim::{CompiledNamespace, IRoundMemo, NoInternedFaults, ResolveScratch};
use mcdn_dnswire::RecordType;
use mcdn_faults::RetryPolicy;
use mcdn_geo::{Duration, SimTime};
use mcdn_intern::NameId;
use mcdn_netsim::{AsId, FlatLpm};
use mcdn_scenario::classes::{attribute_interned, classify_ip_from_origin, AttributionTable};
use mcdn_scenario::{
    params, run_dns_campaign, run_isp_traffic, CampaignKind, CampaignSpec, ResumeOptions,
    ScenarioConfig, World, TRAFFIC_BATCH_TICKS,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Counts every heap allocation in the process so the allocation audits
/// can assert the resolve loop performs none.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Distribution summary of the per-shard wall times of one run — what
/// the schema reports instead of the raw arrays (hundreds of floats of
/// scheduler noise that drowned the signal: where the shard-granularity
/// time actually goes).
struct WallSummary {
    count: usize,
    p50_ms: f64,
    p90_ms: f64,
    max_ms: f64,
}

/// Nearest-rank percentile index into a sorted sample of `len` values:
/// the smallest index whose rank covers `pct` percent of the sample,
/// `ceil(len * pct / 100) - 1` in integer arithmetic. The previous
/// `(len - 1) * pct / 100` floored instead, which at small counts picks
/// the wrong element — p90 of two samples must be the *larger* one.
fn nearest_rank(len: usize, pct: usize) -> usize {
    debug_assert!(len > 0 && (1..=100).contains(&pct));
    (len * pct).div_ceil(100) - 1
}

impl WallSummary {
    /// Nearest-rank percentiles over `walls` (milliseconds).
    fn of(walls: &[std::time::Duration]) -> WallSummary {
        let mut ms: Vec<f64> = walls.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        let at = |pct: usize| {
            if ms.is_empty() {
                0.0
            } else {
                ms[nearest_rank(ms.len(), pct)]
            }
        };
        WallSummary {
            count: ms.len(),
            p50_ms: at(50),
            p90_ms: at(90),
            max_ms: ms.last().copied().unwrap_or(0.0),
        }
    }
}

/// Wall time, throughput and pool counters of one benched (campaign,
/// worker count) cell: best-of-[`REPS`] wall clock and the shard-wall
/// summary of the best repetition.
struct Run {
    threads: usize,
    wall_ms: f64,
    per_sec: f64,
    walls: WallSummary,
    /// Pool dispatches of each repetition.
    dispatches: Vec<u64>,
    /// What every repetition must dispatch at this worker count.
    expected_dispatches: u64,
    /// Workers spawned across all repetitions, on a pool already warmed
    /// to this width.
    spawned: usize,
}

impl Run {
    /// The pool-counter gate: no spawn, and the exact dispatch count.
    fn pool_ok(&self) -> bool {
        self.spawned == 0
            && self
                .dispatches
                .iter()
                .all(|&d| d == self.expected_dispatches)
    }
}

/// Repetitions per (campaign, worker count) cell; the best wall clock is
/// reported. Three is enough to shed one bad scheduler window without
/// tripling a CI run that executes every cell's output-identity check
/// anyway.
const REPS: usize = 3;

/// Traffic ticks per phase-B pool dispatch. Pinned here rather than read
/// from [`TRAFFIC_BATCH_TICKS`]: per-tick dispatch made the traffic run
/// scale negatively (DESIGN §4h), so a smaller batch must fail the
/// dispatch-count gate, not move its expectation along with it.
const TICKS_PER_DISPATCH: u64 = 8;

/// Steps of `step` from `start` while before `end`: a DNS campaign's
/// round count, or the traffic run's tick count.
fn steps(start: SimTime, end: SimTime, step: Duration) -> u64 {
    let mut n = 0;
    let mut t = start;
    while t < end {
        n += 1;
        t += step;
    }
    n
}

/// One benched campaign: canonical counters plus per-thread-count runs.
struct Bench {
    name: &'static str,
    units: &'static str,
    work: u64,
    memo_lookups: u64,
    memo_hits: u64,
    runs: Vec<Run>,
    identical: bool,
}

fn bench_cfg(smoke: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = if smoke { 40 } else { 150 };
    cfg.isp_probes = if smoke { 30 } else { 80 };
    cfg.global_dns_interval = if smoke {
        Duration::hours(2)
    } else {
        Duration::mins(30)
    };
    cfg.global_start = SimTime::from_ymd(2017, 9, 18);
    cfg.global_end = SimTime::from_ymd(2017, 9, if smoke { 20 } else { 21 });
    cfg.isp_start = SimTime::from_ymd(2017, 9, 16);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 22);
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, if smoke { 19 } else { 21 });
    cfg.traffic_tick = if smoke {
        Duration::hours(1)
    } else {
        Duration::mins(30)
    };
    cfg
}

fn thread_counts() -> Vec<usize> {
    let native = mcdn_exec::thread_count();
    let mut counts = vec![1, 2, native.max(4)];
    counts.dedup();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Times `run` at each worker count against a fresh world (best of
/// [`REPS`] repetitions per count), returning the per-count runs and
/// whether every output — of every repetition — matched the serial one.
/// A parallel run must dispatch to the pool exactly `dispatches` times; a
/// serial run never dispatches.
fn bench_campaign<R, F>(
    cfg: &ScenarioConfig,
    counts: &[usize],
    dispatches: u64,
    run: F,
) -> (Vec<Run>, bool, Vec<R>)
where
    R: PartialEq,
    F: Fn(&World, &ScenarioConfig, usize) -> (u64, R, Vec<std::time::Duration>),
{
    let mut runs = Vec::new();
    let mut outputs: Vec<R> = Vec::new();
    for &threads in counts {
        mcdn_exec::warm(threads);
        let mut best: Option<(f64, u64, Vec<std::time::Duration>)> = None;
        let mut rep_dispatches = Vec::with_capacity(REPS);
        let mut spawned = 0;
        for _ in 0..REPS {
            // A fresh world per repetition: campaigns advance the
            // controller's load history, so sharing one would let an
            // earlier run warm state for a later one.
            let world = World::build(cfg);
            let pool_before = mcdn_exec::pool_stats();
            let start = Instant::now();
            let (work, out, shard_walls) = run(&world, cfg, threads);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let pool_after = mcdn_exec::pool_stats();
            rep_dispatches.push(pool_after.dispatches - pool_before.dispatches);
            spawned += pool_after.spawned - pool_before.spawned;
            if best.as_ref().is_none_or(|(w, ..)| wall_ms < *w) {
                best = Some((wall_ms, work, shard_walls));
            }
            outputs.push(out);
        }
        let (wall_ms, work, shard_walls) = best.expect("REPS >= 1");
        runs.push(Run {
            threads,
            wall_ms,
            per_sec: if wall_ms > 0.0 {
                work as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            walls: WallSummary::of(&shard_walls),
            dispatches: rep_dispatches,
            expected_dispatches: if threads > 1 { dispatches } else { 0 },
            spawned,
        });
    }
    let identical = outputs.windows(2).all(|w| w[0] == w[1]);
    (runs, identical, outputs)
}

/// Heap traffic of a resolve loop.
struct AllocAudit {
    resolutions: u64,
    allocs: u64,
    bytes: u64,
}

/// The per-probe work of a campaign round, compiled for one world: what
/// both allocation audits replay.
struct ProbeWork<'a> {
    cns: CompiledNamespace<'a>,
    attr: AttributionTable,
    rib: FlatLpm<AsId>,
    retry: RetryPolicy,
    entry: NameId,
}

impl<'a> ProbeWork<'a> {
    fn new(world: &'a World, scratch: &mut ResolveScratch) -> ProbeWork<'a> {
        let cns = CompiledNamespace::compile(&world.ns);
        let attr = AttributionTable::build(cns.table());
        let entry = cns.intern_in(scratch, &metacdn::names::entry());
        ProbeWork {
            cns,
            attr,
            rib: world.topo.compiled_rib(),
            retry: RetryPolicy::standard(),
            entry,
        }
    }

    /// One probe's round at `t`: resolve the entry chain, attribute the
    /// trace to a CDN, classify every answered address by BGP origin.
    /// Returns how many addresses classified as `Other`, so the work
    /// stays observable.
    fn run(
        &self,
        probe: &mut Probe,
        scratch: &mut ResolveScratch,
        memo: &mut IRoundMemo,
        t: SimTime,
    ) -> u64 {
        let (result, _) = probe.measure_interned(
            &self.cns,
            scratch,
            self.entry,
            RecordType::A,
            t,
            &NoInternedFaults,
            &self.retry,
            memo,
        );
        assert!(result.is_ok(), "audited resolution failed");
        let attribution = attribute_interned(scratch.trace(), &self.attr, &self.cns, scratch);
        let mut other = 0;
        for ip in scratch.trace().addresses() {
            let origin = self.rib.lookup(ip).map(|(_, asn)| asn);
            let class = classify_ip_from_origin(
                attribution,
                origin,
                params::AKAMAI_AS,
                params::LIMELIGHT_AS,
                params::APPLE_AS,
            );
            other += u64::from(std::hint::black_box(class) == mcdn_scenario::CdnClass::Other);
        }
        other
    }
}

/// Measures heap allocations per steady-state resolution: one probe with a
/// warm cache resolving the entry chain at a fixed instant, including CNAME
/// attribution and flat-LPM origin classification — the exact per-probe work
/// of a campaign round after the first contact. The gate demands zero.
fn audit_steady_state(cfg: &ScenarioConfig) -> AllocAudit {
    let world = World::build(cfg);
    let mut scratch = ResolveScratch::new();
    let work = ProbeWork::new(&world, &mut scratch);
    let mut probe = build_fleet(world.global_probe_specs.clone())
        .into_iter()
        .next()
        .expect("world has at least one global probe");
    let t = cfg.global_start;
    let mut memo = IRoundMemo::new();
    // Two warm passes: the first fills the probe's cache at `t`, the second
    // lets every retained scratch buffer reach its steady capacity.
    let mut classified = 0u64;
    for _ in 0..2 {
        classified += work.run(&mut probe, &mut scratch, &mut memo, t);
    }
    let resolutions: u64 = 100_000;
    let before = ALLOC.snapshot();
    for _ in 0..resolutions {
        classified += work.run(&mut probe, &mut scratch, &mut memo, t);
    }
    let delta = ALLOC.snapshot().since(before);
    std::hint::black_box(classified);
    AllocAudit {
        resolutions,
        allocs: delta.allocs,
        bytes: delta.bytes,
    }
}

/// The cold audit's window: six hours of the paper cadence around the
/// a1015 event map's activation (release + 6 h), so the window's rounds
/// take every branch of the mapping chain.
const COLD_WINDOW_START: Duration = Duration::hours(5);
const COLD_WINDOW_ROUNDS: u32 = 72;

/// Measures heap allocations per resolution on the cache-miss path. The
/// paper fleet resolves the entry chain round after round,
/// `global_dns_interval` apart, exactly as the campaign engine drives it:
/// controller loads updated, a mapping snapshot installed and the memo
/// cleared per round. The geo split's 120 s TTL and the selector's, the
/// GSLBs' and the CDN maps' 15–60 s TTLs are shorter than the 5 min
/// cadence, so most hops miss the cache and reach a mapping policy.
///
/// The window runs twice. The first pass warms every buffer up. Then the
/// controller is reset to its state at the window's start and every cached
/// entry is marked expired, so the second pass repeats the first one's
/// resolutions exactly, from caches that answer nothing — only the second
/// pass is counted. Only per-probe work is counted (resolution,
/// attribution, origin classification): the per-round controller update
/// and snapshot capture are not resolution work. The gate demands zero.
fn audit_cold_path() -> AllocAudit {
    let cfg = ScenarioConfig::paper();
    let world = World::build(&cfg);
    let mut scratch = ResolveScratch::new();
    let work = ProbeWork::new(&world, &mut scratch);
    let mut fleet = build_fleet(world.global_probe_specs.clone());
    let mut memo = IRoundMemo::new();
    // Walk the controller up to the window as the engine does, so load
    // history (and with it the a1015 activation) matches the campaign's.
    let window_start = params::release() + COLD_WINDOW_START;
    let mut t = cfg.global_start;
    while t < window_start {
        mcdn_scenario::loads::update_loads(&world, t);
        t += cfg.global_dns_interval;
    }
    let signals = world.state.export_signals();
    let mut audit = AllocAudit {
        resolutions: 0,
        allocs: 0,
        bytes: 0,
    };
    let mut classified = 0u64;
    for measured in [false, true] {
        if measured {
            world.state.restore_signals(&signals);
            for probe in &mut fleet {
                let (mut entries, hits, misses) = probe.interned_cache_export();
                for entry in &mut entries {
                    entry.2 = SimTime(0);
                }
                probe.interned_cache_restore(entries, hits, misses);
            }
        }
        let mut t = window_start;
        for _ in 0..COLD_WINDOW_ROUNDS {
            mcdn_scenario::loads::update_loads(&world, t);
            let _guard = metacdn::install_snapshot(Arc::new(world.state.capture()));
            memo.clear();
            let before = ALLOC.snapshot();
            for probe in &mut fleet {
                classified += work.run(probe, &mut scratch, &mut memo, t);
            }
            let delta = ALLOC.snapshot().since(before);
            if measured {
                audit.resolutions += fleet.len() as u64;
                audit.allocs += delta.allocs;
                audit.bytes += delta.bytes;
            }
            t += cfg.global_dns_interval;
        }
    }
    std::hint::black_box(classified);
    audit
}

/// Wall-time cost of journaled checkpointing versus the plain engine.
struct CheckpointOverhead {
    plain_ms: f64,
    journaled_ms: f64,
    /// Signed best-of-N delta. A negative value means the journaled run's
    /// best repetition beat the plain run's — physically impossible as a
    /// real cost, so it is scheduler noise and is *flagged*, not gated.
    raw_overhead_pct: f64,
    /// The reported cost: `raw_overhead_pct` clamped at zero.
    overhead_pct: f64,
}

impl CheckpointOverhead {
    /// Whether the measurement hit the noise floor (journaled "faster"
    /// than plain).
    fn noise_floor(&self) -> bool {
        self.raw_overhead_pct < 0.0
    }
}

/// The checkpoint overhead budget: journaled campaigns may cost at most
/// this fraction of the plain engine's wall time.
const CHECKPOINT_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Overhead measurements run interleaved best-of-N rounds of this many
/// repetitions; a round that lands under budget stops the measurement.
const OVERHEAD_REPS_PER_ROUND: usize = 9;

/// Ceiling on total overhead repetitions. Minimum statistics only move
/// downward as repetitions accumulate, so extending the measurement can
/// never hide a real cost — it only gives scheduler jitter more chances
/// to get out of the way. A measurement still over budget after this
/// many interleaved repetitions is a genuine regression.
const OVERHEAD_REPS_MAX: usize = 27;

/// Times the global campaign plain and journaled (cadence 1, i.e. every
/// round is checkpoint-eligible; the engine's overhead throttle decides
/// which become durable) at one worker, interleaved best-of-N (both
/// sides sample the same load windows) to damp scheduler noise, and
/// checks the journaled result is bit-identical.
///
/// Always runs the full-scale workload, even under `--smoke`: a percent
/// overhead measured on a ~10ms run is dominated by sub-millisecond
/// scheduler jitter, while at ~200ms the same jitter is <0.5%. On a
/// timeshared single core even best-of-9 occasionally leaves a few
/// percent of one-sided jitter, so when a round finishes over budget the
/// measurement extends itself (up to [`OVERHEAD_REPS_MAX`] repetitions)
/// before the gate is allowed to fail.
fn bench_checkpoint_overhead(cfg: &ScenarioConfig) -> CheckpointOverhead {
    let mut plain_ms = f64::INFINITY;
    let mut journaled_ms = f64::INFINITY;
    let mut plain_result = None;
    let mut journaled_result = None;
    let mut rep = 0;
    loop {
        for _ in 0..OVERHEAD_REPS_PER_ROUND {
            let world = World::build(cfg);
            let start = Instant::now();
            let r = dns_campaign(&world, cfg, CampaignKind::Global, 1)
                .run
                .into_result();
            plain_ms = plain_ms.min(start.elapsed().as_secs_f64() * 1e3);
            plain_result = Some(r);

            let path = std::env::temp_dir().join(format!(
                "mcdn-bench-journal-{}-{rep}.bin",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let world = World::build(cfg);
            let opts = ResumeOptions {
                threads: 1,
                checkpoint_every: 1,
                stop_after_rounds: None,
            };
            let spec = CampaignSpec {
                journal: Some(&path),
                opts,
                ..CampaignSpec::global()
            };
            let start = Instant::now();
            let r = run_dns_campaign(&world, cfg, &spec)
                .expect("journaled run")
                .run
                .into_result();
            journaled_ms = journaled_ms.min(start.elapsed().as_secs_f64() * 1e3);
            let _ = std::fs::remove_file(&path);
            journaled_result = Some(r);
            rep += 1;
        }
        let raw = (journaled_ms - plain_ms) / plain_ms * 100.0;
        if raw < CHECKPOINT_OVERHEAD_BUDGET_PCT || rep >= OVERHEAD_REPS_MAX {
            break;
        }
        eprintln!("  checkpointing {raw:.2}% over budget after {rep} reps; extending measurement");
    }
    assert_eq!(
        plain_result, journaled_result,
        "journaled campaign must be bit-identical to the plain engine"
    );
    let raw_overhead_pct = if plain_ms > 0.0 {
        (journaled_ms - plain_ms) / plain_ms * 100.0
    } else {
        0.0
    };
    // Both sides are best-of-N over interleaved repetitions, so a negative
    // delta can only be residual scheduler noise; clamp the reported cost
    // at zero rather than publishing a nonsensical negative overhead.
    let overhead_pct = raw_overhead_pct.max(0.0);
    CheckpointOverhead {
        plain_ms,
        journaled_ms,
        raw_overhead_pct,
        overhead_pct,
    }
}

/// Wall-time cost of the always-on observability layer: the serial global
/// campaign with metrics recording enabled versus runtime-disabled
/// ([`mcdn_obs::set_enabled`]). The registry is compiled in either way
/// (both arms run the same binary), so this measures exactly the hot-path
/// recording cost the `<2%` budget bounds.
struct ObsOverhead {
    enabled_ms: f64,
    disabled_ms: f64,
    /// Signed best-of-N delta; negative means scheduler noise (flagged,
    /// not gated), exactly like [`CheckpointOverhead`].
    raw_overhead_pct: f64,
    overhead_pct: f64,
}

impl ObsOverhead {
    fn noise_floor(&self) -> bool {
        self.raw_overhead_pct < 0.0
    }
}

/// The observability overhead budget: metrics recording may cost at most
/// this fraction of campaign wall time. Measured ~0% here (counter bumps
/// on thread-local cells, amortized over full resolutions), so the gate
/// mostly guards against someone adding an allocating or locking record
/// path later.
const OBS_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Times the serial global campaign with metrics enabled and disabled,
/// interleaved best-of-N (same damping — and the same
/// over-budget-extends-the-measurement rule — as
/// [`bench_checkpoint_overhead`], and like it always at full scale — a
/// percent budget needs a run long enough that scheduler jitter sits
/// well under it). Also returns the enabled run's snapshot, which the
/// JSON report embeds. Checks the campaign output is bit-identical with
/// recording on and off.
fn bench_obs_overhead(cfg: &ScenarioConfig) -> (ObsOverhead, mcdn_obs::MetricsSnapshot) {
    let mut enabled_ms = f64::INFINITY;
    let mut disabled_ms = f64::INFINITY;
    let mut snapshot = None;
    let mut enabled_result = None;
    let mut disabled_result = None;
    let mut rep = 0;
    loop {
        for _ in 0..OVERHEAD_REPS_PER_ROUND {
            mcdn_obs::set_enabled(true);
            let world = World::build(cfg);
            let start = Instant::now();
            let out = dns_campaign(&world, cfg, CampaignKind::Global, 1);
            enabled_ms = enabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
            snapshot = Some(out.metrics);
            enabled_result = Some(out.run.into_result());

            mcdn_obs::set_enabled(false);
            let world = World::build(cfg);
            let start = Instant::now();
            let r = dns_campaign(&world, cfg, CampaignKind::Global, 1)
                .run
                .into_result();
            disabled_ms = disabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
            mcdn_obs::set_enabled(true);
            disabled_result = Some(r);
            rep += 1;
        }
        let raw = (enabled_ms - disabled_ms) / disabled_ms * 100.0;
        if raw < OBS_OVERHEAD_BUDGET_PCT || rep >= OVERHEAD_REPS_MAX {
            break;
        }
        eprintln!("  observability {raw:.2}% over budget after {rep} reps; extending measurement");
    }
    assert_eq!(
        enabled_result, disabled_result,
        "metrics recording must never affect campaign output"
    );
    let raw_overhead_pct = if disabled_ms > 0.0 {
        (enabled_ms - disabled_ms) / disabled_ms * 100.0
    } else {
        0.0
    };
    let overhead_pct = raw_overhead_pct.max(0.0);
    (
        ObsOverhead {
            enabled_ms,
            disabled_ms,
            raw_overhead_pct,
            overhead_pct,
        },
        snapshot.expect("9 reps ran"),
    )
}

fn json_escape_free(s: &str) -> &str {
    // Every string we emit is a static identifier; keep the writer honest.
    assert!(s
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c)));
    s
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    out: &mut String,
    smoke: bool,
    counts: &[usize],
    benches: &[Bench],
    audit: &AllocAudit,
    cold: &AllocAudit,
    ckpt: &CheckpointOverhead,
    obs: &ObsOverhead,
    metrics: &mcdn_obs::MetricsSnapshot,
) {
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"mcdn-bench-campaigns-v10\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let counts_s: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "  \"thread_counts\": [{}],", counts_s.join(", "));
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(out, "  \"traffic_batch_ticks\": {TRAFFIC_BATCH_TICKS},");
    let _ = writeln!(out, "  \"checkpointing\": {{");
    let _ = writeln!(out, "    \"plain_ms\": {:.3},", ckpt.plain_ms);
    let _ = writeln!(out, "    \"journaled_ms\": {:.3},", ckpt.journaled_ms);
    let _ = writeln!(
        out,
        "    \"checkpoint_overhead_pct\": {:.3},",
        ckpt.overhead_pct
    );
    let _ = writeln!(
        out,
        "    \"raw_overhead_pct\": {:.3},",
        ckpt.raw_overhead_pct
    );
    let _ = writeln!(out, "    \"noise_floor\": {}", ckpt.noise_floor());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"observability\": {{");
    let _ = writeln!(out, "    \"enabled_ms\": {:.3},", obs.enabled_ms);
    let _ = writeln!(out, "    \"disabled_ms\": {:.3},", obs.disabled_ms);
    let _ = writeln!(out, "    \"obs_overhead_pct\": {:.3},", obs.overhead_pct);
    let _ = writeln!(
        out,
        "    \"raw_overhead_pct\": {:.3},",
        obs.raw_overhead_pct
    );
    let _ = writeln!(out, "    \"noise_floor\": {},", obs.noise_floor());
    let _ = writeln!(out, "    \"budget_pct\": {OBS_OVERHEAD_BUDGET_PCT:.1}");
    let _ = writeln!(out, "  }},");
    // The enabled serial run's counter registry, by self-describing name.
    // The first N_DET entries are deterministic (identical on any host or
    // worker count); the rest describe how this process computed them.
    let _ = writeln!(out, "  \"metrics\": {{");
    for (i, name) in mcdn_obs::COUNTER_NAMES.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {},",
            json_escape_free(name),
            metrics.counter(i as u16)
        );
    }
    let _ = writeln!(out, "    \"trace_events\": {}", metrics.events().len());
    let _ = writeln!(out, "  }},");
    let per = audit.resolutions.max(1) as f64;
    let _ = writeln!(out, "  \"steady_state\": {{");
    let _ = writeln!(out, "    \"resolutions\": {},", audit.resolutions);
    let _ = writeln!(out, "    \"allocs\": {},", audit.allocs);
    let _ = writeln!(out, "    \"bytes\": {},", audit.bytes);
    let _ = writeln!(
        out,
        "    \"allocs_per_resolution\": {:.4},",
        audit.allocs as f64 / per
    );
    let _ = writeln!(
        out,
        "    \"bytes_per_resolution\": {:.4}",
        audit.bytes as f64 / per
    );
    let _ = writeln!(out, "  }},");
    let per = cold.resolutions.max(1) as f64;
    let _ = writeln!(out, "  \"cold_path\": {{");
    let _ = writeln!(out, "    \"resolutions\": {},", cold.resolutions);
    let _ = writeln!(out, "    \"allocs\": {},", cold.allocs);
    let _ = writeln!(out, "    \"bytes\": {},", cold.bytes);
    let _ = writeln!(
        out,
        "    \"cold_allocs_per_resolution\": {:.4},",
        cold.allocs as f64 / per
    );
    let _ = writeln!(
        out,
        "    \"cold_bytes_per_resolution\": {:.4}",
        cold.bytes as f64 / per
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"campaigns\": [");
    for (i, b) in benches.iter().enumerate() {
        let serial = b.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        let hit_rate = if b.memo_lookups > 0 {
            b.memo_hits as f64 / b.memo_lookups as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape_free(b.name));
        let _ = writeln!(out, "      \"units\": \"{}\",", json_escape_free(b.units));
        let _ = writeln!(out, "      \"work\": {},", b.work);
        let _ = writeln!(out, "      \"memo_lookups\": {},", b.memo_lookups);
        let _ = writeln!(out, "      \"memo_hits\": {},", b.memo_hits);
        let _ = writeln!(out, "      \"memo_hit_rate\": {hit_rate:.4},");
        let _ = writeln!(out, "      \"identical_across_threads\": {},", b.identical);
        let _ = writeln!(out, "      \"runs\": [");
        for (j, r) in b.runs.iter().enumerate() {
            let speedup = if r.wall_ms > 0.0 {
                serial / r.wall_ms
            } else {
                0.0
            };
            let dispatches: Vec<String> = r.dispatches.iter().map(|d| d.to_string()).collect();
            let _ = write!(
                out,
                "        {{\"threads\": {}, \"wall_ms\": {:.3}, \"{}_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3}, \"dispatches\": [{}], \"expected_dispatches\": {}, \"workers_spawned\": {}, \"shard_walls\": {{\"count\": {}, \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"max_ms\": {:.3}}}}}",
                r.threads,
                r.wall_ms,
                json_escape_free(b.units),
                r.per_sec,
                speedup,
                dispatches.join(", "),
                r.expected_dispatches,
                r.spawned,
                r.walls.count,
                r.walls.p50_ms,
                r.walls.p90_ms,
                r.walls.max_ms,
            );
            let _ = writeln!(out, "{}", if j + 1 < b.runs.len() { "," } else { "" });
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < benches.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = mcdn_analysis::reject_unknown_flags(&args, &["--smoke"]) {
        eprintln!("{e}\nusage: bench_campaigns [--smoke] [OUT.json]");
        std::process::exit(2);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_campaigns.json".to_string());
    let cfg = bench_cfg(smoke);
    let counts = thread_counts();
    eprintln!("bench_campaigns: thread counts {counts:?}, smoke={smoke}");

    let mut benches = Vec::new();

    let rounds = steps(cfg.global_start, cfg.global_end, cfg.global_dns_interval);
    let (runs, identical, outs) = bench_campaign(&cfg, &counts, rounds, |world, cfg, threads| {
        let out = dns_campaign(world, cfg, CampaignKind::Global, threads);
        let r = out.run.into_result();
        (r.resolutions, r, out.shard_walls)
    });
    let first = &outs[0];
    benches.push(Bench {
        name: "global_dns",
        units: "resolutions",
        work: first.resolutions,
        memo_lookups: first.memo_lookups,
        memo_hits: first.memo_hits,
        runs,
        identical,
    });

    let rounds = steps(cfg.isp_start, cfg.isp_end, cfg.isp_dns_interval);
    let (runs, identical, outs) = bench_campaign(&cfg, &counts, rounds, |world, cfg, threads| {
        let out = dns_campaign(world, cfg, CampaignKind::Isp, threads);
        let r = out.run.into_result();
        (r.resolutions, r, out.shard_walls)
    });
    let first = &outs[0];
    benches.push(Bench {
        name: "isp_dns",
        units: "resolutions",
        work: first.resolutions,
        memo_lookups: first.memo_lookups,
        memo_hits: first.memo_hits,
        runs,
        identical,
    });

    let batches =
        steps(cfg.traffic_start, cfg.traffic_end, cfg.traffic_tick).div_ceil(TICKS_PER_DISPATCH);
    let (runs, identical, outs) = bench_campaign(&cfg, &counts, batches, |world, cfg, threads| {
        let (r, walls) = run_isp_traffic(world, cfg, threads);
        (r.flows.len() as u64, r, walls)
    });
    let first = &outs[0];
    benches.push(Bench {
        name: "isp_traffic",
        units: "flows",
        work: first.flows.len() as u64,
        memo_lookups: 0,
        memo_hits: 0,
        runs,
        identical,
    });

    eprintln!("bench_campaigns: measuring checkpoint overhead");
    let ckpt = bench_checkpoint_overhead(&bench_cfg(false));
    eprintln!(
        "  checkpointing plain={:.1}ms journaled={:.1}ms overhead={:.2}%{}",
        ckpt.plain_ms,
        ckpt.journaled_ms,
        ckpt.overhead_pct,
        if ckpt.noise_floor() {
            format!(
                " (raw {:+.2}% — noise floor, clamped)",
                ckpt.raw_overhead_pct
            )
        } else {
            String::new()
        },
    );

    eprintln!("bench_campaigns: measuring observability overhead");
    let (obs, metrics) = bench_obs_overhead(&bench_cfg(false));
    eprintln!(
        "  observability enabled={:.1}ms disabled={:.1}ms overhead={:.2}% (budget < {:.1}%){}",
        obs.enabled_ms,
        obs.disabled_ms,
        obs.overhead_pct,
        OBS_OVERHEAD_BUDGET_PCT,
        if obs.noise_floor() {
            format!(
                " (raw {:+.2}% — noise floor, clamped)",
                obs.raw_overhead_pct
            )
        } else {
            String::new()
        },
    );

    eprintln!("bench_campaigns: auditing steady-state allocations");
    let audit = audit_steady_state(&cfg);
    eprintln!(
        "  steady_state resolutions={} allocs={} bytes={}",
        audit.resolutions, audit.allocs, audit.bytes
    );
    eprintln!("bench_campaigns: auditing cold-path allocations");
    let cold = audit_cold_path();
    eprintln!(
        "  cold_path resolutions={} allocs={} bytes={}",
        cold.resolutions, cold.allocs, cold.bytes
    );

    let mut json = String::new();
    write_json(
        &mut json, smoke, &counts, &benches, &audit, &cold, &ckpt, &obs, &metrics,
    );
    std::fs::write(&out_path, &json).expect("write BENCH json");
    for b in &benches {
        let serial = b.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        let best = b
            .runs
            .iter()
            .skip(1)
            .map(|r| r.wall_ms)
            .fold(f64::INFINITY, f64::min);
        eprintln!(
            "  {:<12} work={:<7} serial={:.1}ms best-parallel={:.1}ms memo-hit-rate={:.2} identical={}",
            b.name,
            b.work,
            serial,
            if best.is_finite() { best } else { serial },
            if b.memo_lookups > 0 { b.memo_hits as f64 / b.memo_lookups as f64 } else { 0.0 },
            b.identical,
        );
    }
    eprintln!("bench_campaigns: wrote {out_path}");

    let mut failures = Vec::new();
    for b in benches.iter().filter(|b| !b.identical) {
        failures.push(format!("{} outputs differ across thread counts", b.name));
    }
    for b in &benches {
        for r in b.runs.iter().filter(|r| !r.pool_ok()) {
            failures.push(format!(
                "{} at {} threads dispatched {:?} times (expected {} per run) and spawned \
                 {} workers on a warm pool (expected 0)",
                b.name, r.threads, r.dispatches, r.expected_dispatches, r.spawned
            ));
        }
    }
    if audit.allocs != 0 {
        failures.push(format!(
            "steady-state resolve loop allocated ({} allocs / {} bytes over {} resolutions)",
            audit.allocs, audit.bytes, audit.resolutions
        ));
    }
    if cold.allocs != 0 {
        failures.push(format!(
            "cold-path resolve loop allocated ({} allocs / {} bytes over {} resolutions)",
            cold.allocs, cold.bytes, cold.resolutions
        ));
    }
    if ckpt.overhead_pct >= CHECKPOINT_OVERHEAD_BUDGET_PCT {
        failures.push(format!(
            "per-round checkpointing costs {:.2}% (budget < {CHECKPOINT_OVERHEAD_BUDGET_PCT:.0}%)",
            ckpt.overhead_pct
        ));
    }
    if obs.overhead_pct >= OBS_OVERHEAD_BUDGET_PCT {
        failures.push(format!(
            "metrics recording costs {:.2}% (budget < {OBS_OVERHEAD_BUDGET_PCT:.1}%)",
            obs.overhead_pct
        ));
    }
    for failure in &failures {
        eprintln!("bench_campaigns: FAIL — {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{nearest_rank, WallSummary};
    use std::time::Duration;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn one_shard_every_percentile_is_the_only_value() {
        let s = WallSummary::of(&ms(&[7]));
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ms, 7.0);
        assert_eq!(s.p90_ms, 7.0);
        assert_eq!(s.max_ms, 7.0);
    }

    #[test]
    fn two_shards_split_the_ranks() {
        // Nearest-rank over two samples: p50 covers the lower half (the
        // smaller value), p90 needs 1.8 ranks and so must take the larger.
        let s = WallSummary::of(&ms(&[10, 30]));
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_ms, 10.0);
        assert_eq!(s.p90_ms, 30.0);
        assert_eq!(s.max_ms, 30.0);
    }

    #[test]
    fn three_shards_median_and_tail_diverge() {
        let s = WallSummary::of(&ms(&[10, 20, 30]));
        assert_eq!(s.count, 3);
        assert_eq!(s.p50_ms, 20.0);
        assert_eq!(s.p90_ms, 30.0);
        assert_eq!(s.max_ms, 30.0);
    }

    #[test]
    fn summary_sorts_before_ranking() {
        let s = WallSummary::of(&ms(&[30, 10, 20]));
        assert_eq!(s.p50_ms, 20.0);
        assert_eq!(s.p90_ms, 30.0);
    }

    #[test]
    fn nearest_rank_is_ceiling_based() {
        assert_eq!(nearest_rank(1, 50), 0);
        assert_eq!(nearest_rank(1, 90), 0);
        assert_eq!(nearest_rank(2, 50), 0);
        assert_eq!(nearest_rank(2, 90), 1);
        assert_eq!(nearest_rank(3, 50), 1);
        assert_eq!(nearest_rank(3, 90), 2);
        assert_eq!(nearest_rank(10, 50), 4);
        assert_eq!(nearest_rank(10, 90), 8);
        assert_eq!(nearest_rank(100, 100), 99);
    }
}
