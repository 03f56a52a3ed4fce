//! Per-shard walls → per-round groups → the `exec.*` metrics.
//!
//! The `_timed` entry points return one wall per supervised shard
//! execution, round-major in canonical shard order. Every round of a DNS
//! campaign shards the whole fleet the same way, and every traffic dispatch
//! shards one batch of `TRAFFIC_BATCH_TICKS` ticks, so a stage's walls fall
//! into groups of equal size.

use crate::stats::nearest_rank;
use std::time::Duration;

/// Splits round-major shard walls into `rounds` equal groups. Fails unless
/// the walls divide evenly — a changed sharding scheme must not be summed
/// into wrong rounds silently.
pub fn group_rounds(walls: &[Duration], rounds: u64) -> Result<Vec<&[Duration]>, String> {
    let rounds = usize::try_from(rounds).map_err(|e| e.to_string())?;
    if rounds == 0 || walls.is_empty() || !walls.len().is_multiple_of(rounds) {
        return Err(format!(
            "{} shard walls do not split into {rounds} rounds",
            walls.len()
        ));
    }
    Ok(walls.chunks(walls.len() / rounds).collect())
}

/// What one stage's shard walls say about the worker pool.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Shard executions.
    pub shards: f64,
    /// Sum of all shard walls (s).
    pub shard_busy_s: f64,
    /// Median shard wall (ms, nearest rank).
    pub shard_ms_p50: f64,
    /// 99th-percentile shard wall (ms, nearest rank).
    pub shard_ms_p99: f64,
    /// Sum over rounds of the round's slowest shard (s): the stage's wall
    /// if nothing ran between shards.
    pub critical_path_s: f64,
    /// Rounds dispatched to the pool.
    pub dispatches: f64,
    /// `shard_busy_s / (threads × stage wall)`.
    pub parallel_efficiency: f64,
    /// Stage wall minus the critical path (s): serial per-round work plus
    /// dispatch cost.
    pub round_serial_s: f64,
}

impl ExecStats {
    /// Derives the stage's pool metrics from its grouped walls.
    pub fn from_rounds(rounds: &[&[Duration]], stage_wall: Duration, threads: usize) -> ExecStats {
        let ms: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.iter())
            .map(|w| w.as_secs_f64() * 1e3)
            .collect();
        let busy = ms.iter().sum::<f64>() / 1e3;
        let critical: f64 = rounds
            .iter()
            .map(|r| r.iter().max().copied().unwrap_or_default().as_secs_f64())
            .sum();
        let wall = stage_wall.as_secs_f64();
        ExecStats {
            shards: ms.len() as f64,
            shard_busy_s: busy,
            shard_ms_p50: nearest_rank(&ms, 50.0).unwrap_or(0.0),
            shard_ms_p99: nearest_rank(&ms, 99.0).unwrap_or(0.0),
            critical_path_s: critical,
            dispatches: rounds.len() as f64,
            parallel_efficiency: if wall > 0.0 {
                busy / (threads as f64 * wall)
            } else {
                0.0
            },
            round_serial_s: wall - critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::{Duration as SimDuration, SimTime};
    use mcdn_scenario::{
        run_global_dns_threads_timed_observed, run_isp_traffic_threads_timed, ScenarioConfig,
        World, TRAFFIC_BATCH_TICKS,
    };

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn groups_split_evenly_or_fail() {
        let walls = ms(&[1, 2, 3, 4, 5, 6]);
        let groups = group_rounds(&walls, 3).unwrap();
        assert_eq!(groups, vec![&walls[0..2], &walls[2..4], &walls[4..6]]);
        assert!(group_rounds(&walls, 4).is_err());
        assert!(group_rounds(&walls, 0).is_err());
        assert!(group_rounds(&[], 1).is_err());
    }

    #[test]
    fn exec_stats_from_known_rounds() {
        let walls = ms(&[10, 30, 20, 20, 5, 15]);
        let rounds = group_rounds(&walls, 3).unwrap();
        let s = ExecStats::from_rounds(&rounds, Duration::from_millis(100), 2);
        assert_eq!(s.shards, 6.0);
        assert!((s.shard_busy_s - 0.1).abs() < 1e-12);
        assert!((s.critical_path_s - 0.065).abs() < 1e-12);
        assert!((s.round_serial_s - 0.035).abs() < 1e-12);
        assert!((s.parallel_efficiency - 0.5).abs() < 1e-12);
        assert_eq!(s.dispatches, 3.0);
        assert_eq!(s.shard_ms_p50, 15.0);
        assert_eq!(s.shard_ms_p99, 30.0);
    }

    /// A small global campaign: short window, coarse interval.
    fn small_global(probes: usize) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::fast();
        cfg.global_probes = probes;
        cfg.isp_probes = 4;
        cfg.global_dns_interval = SimDuration::hours(2);
        cfg.global_start = SimTime::from_ymd(2017, 9, 19);
        cfg.global_end = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
        cfg
    }

    /// Real walls group into exactly `campaign.rounds` rounds, both with
    /// more probes than threads and with fewer (one single-probe shard per
    /// round).
    #[test]
    fn campaign_walls_group_into_counted_rounds() {
        for (probes, threads) in [(12, 2), (1, 2), (3, 4)] {
            let cfg = small_global(probes);
            let world = World::build(&cfg);
            let (_, walls, snap) = run_global_dns_threads_timed_observed(&world, &cfg, threads);
            let rounds = snap.counter(mcdn_obs::id::ROUNDS);
            assert_eq!(rounds, 6);
            let groups = group_rounds(&walls, rounds).unwrap();
            assert_eq!(groups.len() as u64, rounds);
            assert!(groups.iter().all(|g| g.len() == probes.min(threads)));
        }
    }

    /// Traffic shards one batch of eight ticks per dispatch; a window of
    /// 20 ticks makes three dispatches, the last one partial.
    #[test]
    fn traffic_walls_group_into_eight_tick_batches() {
        let mut cfg = small_global(4);
        cfg.traffic_tick = SimDuration::mins(15);
        cfg.traffic_start = SimTime::from_ymd_hms(2017, 9, 19, 12, 0, 0);
        cfg.traffic_end = cfg.traffic_start + SimDuration::mins(15 * 20);
        let world = World::build(&cfg);
        let (_, walls) = run_isp_traffic_threads_timed(&world, &cfg, 2);
        let dispatches = 20u64.div_ceil(TRAFFIC_BATCH_TICKS as u64);
        assert_eq!(dispatches, 3);
        let groups = group_rounds(&walls, dispatches).unwrap();
        assert!(groups.iter().all(|g| g.len() == 2));
    }
}
