//! Per-layer metrics of one traced iteration.

use crate::trace::Recorder;
use crate::walls::{group_rounds, ExecStats};
use mcdn_obs::{ghist, global, id};
use mcdn_scenario::TRAFFIC_BATCH_TICKS;
use std::collections::BTreeMap;
use std::time::Duration;

/// Stages whose shard walls feed the `exec.<stage>.*` metrics.
const EXEC_STAGES: [&str; 3] = ["global_dns", "isp_dns", "traffic"];

/// Fields of [`ExecStats`] reported per stage, with their units.
const EXEC_FIELDS: [(&str, &str); 7] = [
    ("shards", "count"),
    ("shard_busy_s", "s"),
    ("shard_ms_p50", "ms"),
    ("shard_ms_p99", "ms"),
    ("critical_path_s", "s"),
    ("dispatches", "count"),
    ("parallel_efficiency", "ratio"),
];

/// Per-layer metrics other than `exec.*`, with their units, in report
/// order.
const LAYER_METRICS: [(&str, &str); 28] = [
    ("cpu_s", "s"),
    ("scenario.world_build_s", "s"),
    ("scenario.global_dns_s", "s"),
    ("scenario.isp_dns_s", "s"),
    ("scenario.traffic_s", "s"),
    ("scenario.round_serial_s", "s"),
    ("campaign.memo_hit_ratio", "ratio"),
    ("campaign.attempts_per_resolution", "ratio"),
    ("reuse.replay_ratio", "ratio"),
    ("reuse.invalidations", "count"),
    ("dnssim.cache_hit_ratio", "ratio"),
    ("dnssim.puts_per_resolution", "ratio"),
    ("dnssim.expired_per_put", "ratio"),
    ("faults.servfail", "count"),
    ("faults.timeout", "count"),
    ("journal.bytes", "bytes"),
    ("journal.checkpoint_writes", "count"),
    ("journal.checkpoint_s", "s"),
    ("traffic.flows", "count"),
    ("traffic.flows_per_s", "1/s"),
    ("traffic.snmp_samples", "count"),
    ("analysis.fig2_s", "s"),
    ("analysis.fig4_s", "s"),
    ("analysis.fig7_s", "s"),
    ("analysis.fig8_s", "s"),
    ("analysis.other_s", "s"),
    ("stage_coverage", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// Every per-layer metric with its unit, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let exec = EXEC_STAGES.iter().flat_map(|stage| {
        EXEC_FIELDS
            .iter()
            .map(move |(field, unit)| (format!("exec.{stage}.{field}"), *unit))
    });
    LAYER_METRICS
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(exec)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced iteration whose workload wall (set-up
/// excluded) was `wall` and which used `cpu_s` CPU seconds.
/// `trace_overhead_pct` compares iterations and is left to the caller.
/// Fails when shard walls do not group into the counted rounds.
pub fn per_layer(
    rec: &Recorder,
    wall: Duration,
    cpu_s: f64,
    threads: usize,
) -> Result<BTreeMap<String, f64>, String> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let span = |prefix: &str| rec.span_sum(prefix).as_secs_f64();
    let wall_s = wall.as_secs_f64();
    // Process CPU time is a per-layer figure, not an end-to-end one: on
    // workloads with small shards it depends on whether the pool worker
    // wakes before the dispatcher has drained the round, which follows the
    // host's load rather than the code.
    put("cpu_s", cpu_s);

    for stage in ["world_build", "global_dns", "isp_dns", "traffic"] {
        put(
            &format!("scenario.{stage}_s"),
            span(&format!("scenario.{stage}")),
        );
    }

    let camps = &rec.campaigns;
    let total =
        |f: &dyn Fn(&crate::trace::CampaignTrace) -> u64| camps.iter().map(f).sum::<u64>() as f64;
    let counter = |cid: u16| total(&|c| c.snap.counter(cid));
    let resolutions = total(&|c| c.resolutions);
    put(
        "campaign.memo_hit_ratio",
        ratio(total(&|c| c.memo.1), total(&|c| c.memo.0)),
    );
    put(
        "campaign.attempts_per_resolution",
        ratio(total(&|c| c.attempts), resolutions),
    );
    put(
        "reuse.replay_ratio",
        ratio(total(&|c| c.reused), resolutions),
    );
    put("reuse.invalidations", counter(id::REUSE_INVALIDATIONS));
    let (hits, misses, puts) = (
        counter(id::CACHE_HITS),
        counter(id::CACHE_MISSES),
        counter(id::CACHE_PUTS),
    );
    put("dnssim.cache_hit_ratio", ratio(hits, hits + misses));
    put("dnssim.puts_per_resolution", ratio(puts, resolutions));
    put(
        "dnssim.expired_per_put",
        ratio(counter(id::CACHE_EXPIRED), puts),
    );
    put("faults.servfail", counter(id::FAULT_SERVFAIL));
    put("faults.timeout", counter(id::FAULT_TIMEOUT));
    put("journal.bytes", rec.journal_bytes.unwrap_or(0) as f64);
    put(
        "journal.checkpoint_writes",
        total(&|c| c.snap.global(global::CHECKPOINT_WRITES)),
    );
    put(
        "journal.checkpoint_s",
        total(&|c| c.snap.global_hist(ghist::CHECKPOINT_WALL_US).sum()) / 1e6,
    );

    let (flows, snmp) = rec
        .traffic
        .as_ref()
        .map_or((0, 0), |t| (t.flows, t.snmp_samples));
    put("traffic.flows", flows as f64);
    put(
        "traffic.flows_per_s",
        ratio(flows as f64, span("scenario.traffic")),
    );
    put("traffic.snmp_samples", snmp as f64);

    let figs = ["fig2", "fig4", "fig7", "fig8"];
    for fig in figs {
        put(
            &format!("analysis.{fig}_s"),
            span(&format!("analysis.{fig}")),
        );
    }
    let named: f64 = figs.iter().map(|f| span(&format!("analysis.{f}"))).sum();
    put("analysis.other_s", span("analysis.") - named);

    // Stage coverage: the spans inside the workload wall, set-up excluded.
    let setup = span("scenario.world_build") + span("exec.warm");
    let covered = rec.spans[1..]
        .iter()
        .map(|s| s.dur.as_secs_f64())
        .sum::<f64>()
        - setup;
    put("stage_coverage", ratio(covered, wall_s));

    // Shard walls grouped into rounds (DNS) or eight-tick batches (traffic).
    let mut round_serial = 0.0;
    for stage in EXEC_STAGES {
        let timed = if stage == "traffic" {
            let t = rec.traffic.as_ref();
            t.map(|t| {
                (
                    t.walls.as_slice(),
                    t.ticks.div_ceil(TRAFFIC_BATCH_TICKS as u64),
                    t.wall,
                )
            })
        } else {
            let c = camps.iter().find(|c| c.stage == stage);
            c.and_then(|c| Some((c.walls.as_deref()?, c.snap.counter(id::ROUNDS), c.wall)))
        };
        let s = match timed {
            Some((walls, rounds, wall)) => {
                ExecStats::from_rounds(&group_rounds(walls, rounds)?, wall, threads)
            }
            None => ExecStats::default(),
        };
        if stage != "traffic" {
            round_serial += s.round_serial_s;
        }
        let values = [
            s.shards,
            s.shard_busy_s,
            s.shard_ms_p50,
            s.shard_ms_p99,
            s.critical_path_s,
            s.dispatches,
            s.parallel_efficiency,
        ];
        for ((field, _), v) in EXEC_FIELDS.iter().zip(values) {
            put(&format!("exec.{stage}.{field}"), v);
        }
    }
    put("scenario.round_serial_s", round_serial);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric `per_layer` computes is listed by `names` (and the
    /// reverse, bar the overhead the caller adds), so none is reported as a
    /// silent zero.
    #[test]
    fn computed_metrics_match_the_listed_names() {
        let rec = Recorder::new(true);
        let computed = per_layer(&rec, Duration::from_secs(1), 1.5, 2).unwrap();
        let mut listed: Vec<String> = names().into_iter().map(|(n, _)| n).collect();
        listed.retain(|n| n != "trace_overhead_pct");
        listed.sort();
        assert_eq!(computed.keys().cloned().collect::<Vec<_>>(), listed);
    }
}
