//! Shared setup for the benchmark harnesses.
//!
//! Each paper figure/table has a Criterion bench that regenerates it at a
//! micro scale (so `cargo bench` finishes in minutes); the `repro` binary
//! in `mcdn-analysis` produces the full-scale versions. The helpers here
//! centralize the micro-scale configuration so every bench exercises the
//! same world.

use mcdn_geo::{Duration, SimTime};
use mcdn_scenario::{
    run_dns_campaign, CampaignKind, CampaignOutput, CampaignSpec, ResumeOptions, ScenarioConfig,
    World,
};

/// A configuration small enough for statistical benching: a few dozen
/// probes, hour-level sampling, and a window around the release.
pub fn micro_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.global_probes = 60;
    cfg.isp_probes = 40;
    cfg.global_dns_interval = Duration::hours(1);
    cfg.global_start = SimTime::from_ymd(2017, 9, 18);
    cfg.global_end = SimTime::from_ymd(2017, 9, 21);
    cfg.isp_start = SimTime::from_ymd(2017, 9, 16);
    cfg.isp_end = SimTime::from_ymd(2017, 9, 22);
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 21);
    cfg.traffic_tick = Duration::hours(1);
    cfg.flows_per_cdn = 15;
    cfg
}

/// Builds the micro world once per harness.
pub fn micro_world() -> (ScenarioConfig, World) {
    let cfg = micro_cfg();
    let world = World::build(&cfg);
    (cfg, world)
}

/// The in-memory `kind` campaign on `threads` workers — the run every
/// campaign benchmark times.
pub fn dns_campaign(
    world: &World,
    cfg: &ScenarioConfig,
    kind: CampaignKind,
    threads: usize,
) -> CampaignOutput {
    let opts = ResumeOptions { threads, ..ResumeOptions::default() };
    run_dns_campaign(world, cfg, &CampaignSpec { kind, journal: None, opts })
        .expect("in-memory campaign")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_world_builds() {
        let (cfg, world) = micro_world();
        assert_eq!(world.global_probe_specs.len(), cfg.global_probes);
    }
}
