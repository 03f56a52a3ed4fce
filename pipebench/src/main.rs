//! Paper-scale pipeline benchmark.
//!
//! ```text
//! pipebench --workload <paper_repro|dense_probing|faulted_isp_view>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload repeatedly in this process for about `--seconds`
//! seconds (at least one iteration), each iteration on a freshly built
//! `World`, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, from untraced iterations; with
//! `--trace 1` untraced and traced iterations alternate and the metrics
//! are the per-layer ones, from the traced iterations. Lines before the
//! JSON start with `#`: host facts, one line per iteration, the output
//! digest and, when tracing, the spans of the first traced iteration.
//!
//! Every iteration's output digest must equal the first one's (traced and
//! untraced alike), and every workload checks its outputs; at the paper
//! seed (the default) `paper_repro` also checks the paper headlines
//! against `check_claims --paper`'s bands. A failed check sets `correct`
//! to false and the exit code to 1.
//!
//! Build and run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- --workload dense_probing
//! ```

mod layers;
mod stats;
mod sysinfo;
mod trace;
mod walls;
mod workloads;

use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Ctx, Workload};

/// Set-ups measured per run at least, iterations included, so `setup_s`
/// is a median even when one iteration fills the run. A set-up takes well
/// under a millisecond, so many are needed for a steady median.
const MIN_SETUPS: usize = 200;

/// Set-ups per burst. A burst follows every iteration, and runs with few
/// iterations add bursts spaced by `BURST_GAP`: host speed drifts within
/// seconds, so the samples are spread over the run, not taken at one
/// instant.
const SETUP_BURST: usize = 20;
const BURST_GAP: Duration = Duration::from_millis(100);

/// Minimum stage coverage: the traced spans must account for this share
/// of the workload wall.
const MIN_STAGE_COVERAGE: f64 = 0.9;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperRepro,
        seed: workloads::paper_seed(),
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("--seconds {} is not a duration", args.seconds));
    }
    Ok(args)
}

/// One iteration's measurements.
struct Iteration {
    traced: bool,
    setup: Duration,
    wall: Duration,
    cpu_s: f64,
    digest: u64,
    outcome: workloads::Outcome,
    layers: Option<BTreeMap<String, f64>>,
    spans: Vec<trace::Span>,
}

/// Builds a fresh world (set-up), then runs and times the workload.
fn iterate(workload: Workload, ctx: &Ctx<'_>, traced: bool) -> Iteration {
    let mut rec = Recorder::new(traced);
    let t0 = Instant::now();
    let mut world = rec.call("scenario.world_build", || {
        mcdn_scenario::World::build(ctx.cfg)
    });
    rec.call("exec.warm", || mcdn_exec::warm(ctx.threads));
    let setup = t0.elapsed();
    let cpu0 = sysinfo::cpu_seconds();
    let w0 = Instant::now();
    let mut outcome = workload.run(&mut world, ctx, &mut rec);
    let wall = w0.elapsed();
    let cpu_s = sysinfo::cpu_seconds() - cpu0;
    let digest = rec.finish();
    let layers = traced.then(|| match layers::per_layer(&rec, wall, cpu_s, ctx.threads) {
        Ok(m) => {
            let coverage = m["stage_coverage"];
            if coverage < MIN_STAGE_COVERAGE {
                outcome.problems.push(format!(
                    "stage coverage {coverage:.3} < {MIN_STAGE_COVERAGE}"
                ));
            }
            m
        }
        Err(e) => {
            outcome.problems.push(e);
            BTreeMap::new()
        }
    });
    Iteration {
        traced,
        setup,
        wall,
        cpu_s,
        digest,
        outcome,
        layers,
        spans: rec.spans,
    }
}

/// Times `SETUP_BURST` set-ups (a world build and pool warm-up each, no
/// workload).
fn setup_burst(cfg: &mcdn_scenario::ScenarioConfig, threads: usize, out: &mut Vec<f64>) {
    for _ in 0..SETUP_BURST {
        let t = Instant::now();
        let world = mcdn_scenario::World::build(cfg);
        mcdn_exec::warm(threads);
        out.push(secs(t.elapsed()));
        drop(world);
    }
}

/// Where the journaled campaign writes: next to the executable, so inside
/// the build tree of the checkout.
fn journal_path() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.with_file_name(format!("pipebench-{}.journal", std::process::id()))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `# name median=… q1=… q3=… n=…` for a sample.
fn summary_line(name: &str, values: &[f64]) -> String {
    let q = quartiles(values).unwrap_or([f64::NAN; 3]);
    format!(
        "# {name} median={:.6} q1={:.6} q3={:.6} n={}",
        q[1],
        q[0],
        q[2],
        values.len()
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!("usage: pipebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let nproc = sysinfo::nproc();
    let threads = mcdn_exec::thread_count().min(nproc);
    let cfg = args.workload.config(args.seed);
    let journal = journal_path();
    let ctx = Ctx {
        cfg: &cfg,
        threads,
        journal: &journal,
        paper_seed: args.seed == workloads::paper_seed(),
    };

    println!(
        "# pipebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={nproc} threads={threads} rustc=\"{}\" commit={} MCDN_THREADS={} MCDN_OBS={} MCDN_NO_REUSE={}",
        env!("PIPEBENCH_RUSTC"),
        sysinfo::commit(),
        sysinfo::env_knob("MCDN_THREADS"),
        sysinfo::env_knob("MCDN_OBS"),
        sysinfo::env_knob("MCDN_NO_REUSE"),
    );

    // Run until the next iteration (or untraced/traced pair) would exceed
    // the budget; always at least one.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let traced = args.trace && iters.len() % 2 == 1;
        let t = Instant::now();
        let it = iterate(args.workload, &ctx, traced);
        let took = t.elapsed();
        println!(
            "# iter {} traced={} setup_s={:.6} wall_s={:.6} cpu_s={:.3} resolutions={} digest={:016x}",
            iters.len() + 1,
            u8::from(it.traced),
            secs(it.setup),
            secs(it.wall),
            it.cpu_s,
            it.outcome.resolutions,
            it.digest
        );
        iters.push(it);
        setup_burst(&cfg, threads, &mut setups);
        let step = 1 + u32::from(args.trace);
        if iters.len().is_multiple_of(step as usize) && started.elapsed() + took * step > budget {
            break;
        }
    }

    setups.extend(iters.iter().map(|i| secs(i.setup)));
    while setups.len() < MIN_SETUPS {
        std::thread::sleep(BURST_GAP);
        setup_burst(&cfg, threads, &mut setups);
    }

    // Correctness: per-iteration checks plus one digest across the run.
    let first = iters[0].digest;
    let mut failed = 0;
    for (k, it) in iters.iter_mut().enumerate() {
        if it.digest != first {
            it.outcome.problems.push(format!(
                "digest {:016x} differs from iteration 1",
                it.digest
            ));
        }
        for p in &it.outcome.problems {
            println!("# check failed (iteration {}): {p}", k + 1);
        }
        failed += usize::from(!it.outcome.problems.is_empty());
    }
    println!("# digest {first:016x} over {} iterations", iters.len());

    let untraced: Vec<&Iteration> = iters.iter().filter(|i| !i.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|i| secs(i.wall)).collect();
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let med = |v: &[f64]| median(v).expect("at least one iteration ran");
    if !args.trace {
        let cpus: Vec<f64> = untraced.iter().map(|i| i.cpu_s).collect();
        let completed = |i: &Iteration| (i.outcome.resolutions - i.outcome.exhausted) as f64;
        let rates: Vec<f64> = untraced
            .iter()
            .map(|i| completed(i) / secs(i.wall))
            .collect();
        let shares: Vec<f64> = untraced
            .iter()
            .map(|i| completed(i) / i.outcome.resolutions.max(1) as f64)
            .collect();
        for (name, v) in [("wall_s", &walls), ("cpu_s", &cpus), ("setup_s", &setups)] {
            println!("{}", summary_line(name, v));
        }
        metrics.push(("wall_s".into(), "s", med(&walls)));
        metrics.push(("resolutions_per_s".into(), "1/s", med(&rates)));
        metrics.push(("setup_s".into(), "s", med(&setups)));
        metrics.push(("peak_rss_mb".into(), "MB", sysinfo::peak_rss_mb()));
        metrics.push(("dns_completed_share".into(), "ratio", med(&shares)));
    } else {
        let traced: Vec<&Iteration> = iters.iter().filter(|i| i.traced).collect();
        let traced_walls: Vec<f64> = traced.iter().map(|i| secs(i.wall)).collect();
        let overhead = (med(&traced_walls) / med(&walls) - 1.0) * 100.0;
        for (name, unit) in layers::names() {
            let value = if name == "trace_overhead_pct" {
                overhead
            } else {
                let v: Vec<f64> = traced
                    .iter()
                    .filter_map(|i| i.layers.as_ref()?.get(&name).copied())
                    .collect();
                median(&v).unwrap_or(0.0)
            };
            metrics.push((name, unit, value));
        }
        let spans = &traced[0].spans;
        println!("# spans of the first traced iteration: name parent start_s dur_s");
        for s in spans {
            let parent = s.parent.map_or("-", |p| spans[p].name);
            println!(
                "# span {} {parent} {:.6} {:.6}",
                s.name,
                secs(s.start),
                secs(s.dur)
            );
        }
    }

    let mut json = String::new();
    for (name, unit, value) in &metrics {
        if !value.is_finite() {
            println!("# check failed: metric {name} is {value}");
            failed = failed.max(1);
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("String write");
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        iters.len()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
