//! The three workloads: configurations, call sequences, output checks.
//!
//! Each workload is a closed batch job over seeded input: the library's
//! public entry points are called in sequence, every emitted table is
//! folded into the run's digest, and the outputs are checked.

use crate::trace::{CampaignTrace, Recorder, TrafficTrace};
use mcdn_analysis::{fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, table1, via_inference, Table};
use mcdn_faults::FaultProfile;
use mcdn_geo::{Duration, SimTime};
use mcdn_scenario::{
    params, run_global_dns_threads, run_global_dns_threads_timed_observed,
    run_isp_dns_resumable_with_observed, run_isp_dns_threads, run_isp_dns_threads_timed_observed,
    run_isp_traffic_threads, run_isp_traffic_threads_timed, CampaignRun, CdnClass,
    DnsCampaignResult, ResumeOptions, ScenarioConfig, TrafficResult, World,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::Path;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The call sequence of `repro --paper`, fault-free.
    PaperRepro,
    /// 100 probes at Atlas's 1-minute minimum interval, Sep 18–22, + fig4.
    DenseProbing,
    /// Realistic faults at 0.9 probe availability: the journaled in-ISP
    /// campaign, border telemetry and figs 5/7/8 over the ISP's IPs.
    FaultedIspView,
}

/// Everything an iteration needs besides the world.
pub struct Ctx<'a> {
    /// The scenario configuration built by [`Workload::config`].
    pub cfg: &'a ScenarioConfig,
    /// Worker threads for every campaign and traffic call.
    pub threads: usize,
    /// Journal file of the journaled campaign (inside the build tree).
    pub journal: &'a Path,
    /// Whether the paper-seed headline bands apply.
    pub paper_seed: bool,
}

/// What an iteration produced, beyond the digest.
#[derive(Debug, Default)]
pub struct Outcome {
    /// DNS measurements attempted (each counted once, retries excluded).
    pub resolutions: u64,
    /// Measurements that exhausted their retry budget.
    pub exhausted: u64,
    /// Failed output checks; empty when the outputs are correct.
    pub problems: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn band(&mut self, what: &str, value: f64, lo: f64, hi: f64) {
        self.check((lo..=hi).contains(&value), || {
            format!("{what} = {value} outside [{lo}, {hi}]")
        });
    }

    fn campaign(&mut self, r: &DnsCampaignResult) {
        self.resolutions += r.resolutions;
        self.exhausted += r.retry_exhausted;
    }

    /// A fault-free campaign measures every probe in every round, and
    /// every measurement completes.
    fn full_campaign(
        &mut self,
        what: &str,
        r: &DnsCampaignResult,
        probes: usize,
        (start, end): (SimTime, SimTime),
        interval: Duration,
    ) {
        let expected = probes as u64 * rounds(start, end, interval);
        self.check(r.resolutions == expected && r.retry_exhausted == 0, || {
            format!(
                "{what}: {} of {expected} resolutions, {} failed",
                r.resolutions, r.retry_exhausted
            )
        });
        self.campaign(r);
    }
}

/// The seed of the paper configuration; the headline bands hold for it.
pub fn paper_seed() -> u64 {
    ScenarioConfig::paper().seed
}

/// Measurement rounds of a campaign window.
fn rounds(start: SimTime, end: SimTime, interval: Duration) -> u64 {
    end.since(start).as_secs().div_ceil(interval.as_secs())
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRepro,
        Workload::DenseProbing,
        Workload::FaultedIspView,
    ];

    /// The name the command line and the report use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRepro => "paper_repro",
            Workload::DenseProbing => "dense_probing",
            Workload::FaultedIspView => "faulted_isp_view",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper configuration adapted to this workload, seeded by `seed`
    /// (probe placement and, on the faulted workload, the fault draws).
    pub fn config(self, seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper();
        cfg.seed = seed;
        match self {
            Workload::PaperRepro => {}
            Workload::DenseProbing => {
                cfg.global_probes = 100;
                cfg.global_dns_interval = Duration::mins(1);
                cfg.global_start = SimTime::from_ymd(2017, 9, 18);
                cfg.global_end = SimTime::from_ymd(2017, 9, 22);
            }
            Workload::FaultedIspView => {
                cfg.faults = FaultProfile::realistic(seed);
                cfg.probe_availability = 0.9;
            }
        }
        cfg
    }

    /// Runs one iteration over `world` and checks its outputs.
    pub fn run(self, world: &mut World, ctx: &Ctx<'_>, rec: &mut Recorder) -> Outcome {
        match self {
            Workload::PaperRepro => paper_repro(world, ctx, rec),
            Workload::DenseProbing => dense_probing(world, ctx, rec),
            Workload::FaultedIspView => faulted_isp_view(world, ctx, rec),
        }
    }
}

/// `repro --paper`, call for call, with every printed table and line
/// folded into the digest instead of stdout.
fn paper_repro(world: &mut World, ctx: &Ctx<'_>, rec: &mut Recorder) -> Outcome {
    let cfg = ctx.cfg;
    let release = params::release();
    let mut out = Outcome::default();

    rec.table("analysis.fig1", fig1::fig1);
    rec.table("analysis.fig2", || fig2::fig2(world));
    rec.table("analysis.fig3", || fig3::fig3(world));
    rec.table("analysis.table1", || table1::table1(world));
    let (parsed, total) = rec.call("analysis.table1_coverage", || {
        table1::scheme_coverage(world)
    });
    rec.line(format_args!(
        "naming-scheme coverage: {parsed}/{total} scanned names parse\n"
    ));
    let report = rec.call("analysis.via_inference", || {
        via_inference::infer_hierarchy(world, 0, 800)
    });
    rec.table("analysis.via_hierarchy", || {
        via_inference::hierarchy_table(&report)
    });

    let global = global_dns(rec, world, ctx);
    rec.line(format_args!(
        "global campaign: {} resolutions\n",
        global.resolutions
    ));
    let summary = rec.table("analysis.fig4_summary", || {
        fig4::fig4_summary(&global, release)
    });
    rec.table("analysis.fig4_eu_peak", || {
        fig4::fig4_eu_peak_breakdown(&global, release)
    });

    let isp = isp_dns(rec, world, ctx);
    rec.line(format_args!(
        "ISP campaign: {} resolutions\n",
        isp.resolutions
    ));
    let (rise, apple_ratio) = rec.call("analysis.fig5", || fig5::fig5_akamai_rise(&isp));
    rec.line(format_args!(
        "Figure 5 headline: +{rise:.0}%; Apple stability ratio {apple_ratio:.2}\n"
    ));
    rec.table("analysis.fig6", || fig6::fig6(world));

    let mut ip_classes = isp.ip_classes.clone();
    ip_classes.extend(global.ip_classes.iter().map(|(k, v)| (*k, *v)));

    let traffic = traffic(rec, world, ctx);
    let d_share = border_figures(rec, world, ctx, &traffic, &ip_classes, &mut out);

    out.full_campaign(
        "global campaign",
        &global,
        cfg.global_probes,
        (cfg.global_start, cfg.global_end),
        cfg.global_dns_interval,
    );
    out.full_campaign(
        "ISP campaign",
        &isp,
        cfg.isp_probes,
        (cfg.isp_start, cfg.isp_end),
        cfg.isp_dns_interval,
    );
    if ctx.paper_seed {
        out.band(
            "fig4 Europe peak/pre-event ratio",
            europe_ratio(&summary),
            2.0,
            10.0,
        );
        out.band("fig5 Akamai IP rise Sep 18→20 (%)", rise, 300.0, 600.0);
        out.band(
            "fig8 AS D peak overflow share (%)",
            d_share * 100.0,
            40.0,
            90.0,
        );
    }
    out
}

/// The global campaign at 1-minute cadence, then Figure 4.
fn dense_probing(world: &mut World, ctx: &Ctx<'_>, rec: &mut Recorder) -> Outcome {
    let cfg = ctx.cfg;
    let release = params::release();
    let mut out = Outcome::default();
    let global = global_dns(rec, world, ctx);
    rec.line(format_args!(
        "global campaign: {} resolutions\n",
        global.resolutions
    ));
    rec.table("analysis.fig4_summary", || {
        fig4::fig4_summary(&global, release)
    });
    rec.table("analysis.fig4_eu_peak", || {
        fig4::fig4_eu_peak_breakdown(&global, release)
    });
    rec.table("analysis.fig4_series", || fig4::fig4_series(&global));

    out.full_campaign(
        "global campaign",
        &global,
        cfg.global_probes,
        (cfg.global_start, cfg.global_end),
        cfg.global_dns_interval,
    );
    out
}

/// The ISP operator's view under realistic faults.
fn faulted_isp_view(world: &mut World, ctx: &Ctx<'_>, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let Some(isp) = isp_dns_journaled(rec, world, ctx, &mut out) else {
        return out;
    };
    rec.line(format_args!(
        "ISP campaign: {} resolutions, {} attempts, {} exhausted\n",
        isp.resolutions, isp.attempts, isp.retry_exhausted
    ));
    let (rise, apple_ratio) = rec.call("analysis.fig5", || fig5::fig5_akamai_rise(&isp));
    rec.line(format_args!(
        "Figure 5 headline: +{rise:.0}%; Apple stability ratio {apple_ratio:.2}\n"
    ));
    rec.table("analysis.fig5_series", || fig5::fig5_series(&isp));
    let traffic = traffic(rec, world, ctx);
    rec.table("analysis.fig7_series", || {
        fig7::fig7_series(&traffic, &isp.ip_classes, params::release())
    });
    border_figures(rec, world, ctx, &traffic, &isp.ip_classes, &mut out);

    out.campaign(&isp);
    out.check(
        isp.resolutions > 0 && isp.attempts > isp.resolutions,
        || {
            format!(
                "{} attempts for {} resolutions: no retries under faults",
                isp.attempts, isp.resolutions
            )
        },
    );
    out.check(
        isp.retry_exhausted > 0 && isp.retry_exhausted < isp.resolutions,
        || {
            format!(
                "{} of {} measurements exhausted",
                isp.retry_exhausted, isp.resolutions
            )
        },
    );
    out
}

/// The telemetry line and the Figure 7/8 tables `repro` prints after the
/// traffic stage; returns AS D's peak overflow share.
fn border_figures(
    rec: &mut Recorder,
    world: &World,
    ctx: &Ctx<'_>,
    traffic: &TrafficResult,
    ip_classes: &HashMap<Ipv4Addr, CdnClass>,
    out: &mut Outcome,
) -> f64 {
    let release = params::release();
    rec.line(format_args!(
        "telemetry: {} sampled flow records, {} SNMP samples, {} bytes dropped at saturated links\n",
        traffic.flows.len(),
        traffic.snmp.samples().count(),
        traffic.dropped_bytes
    ));
    rec.table("analysis.fig7_summary", || {
        fig7::fig7_summary(traffic, ip_classes, release)
    });
    rec.table("analysis.fig8_series", || {
        fig8::fig8_series(traffic, ip_classes, world)
    });
    rec.table("analysis.fig8_d_links", || {
        fig8::fig8_d_link_saturation(traffic, world, ctx.cfg.traffic_tick)
    });
    let d_share = rec.call("analysis.fig8_d_share", || {
        fig8::d_peak_share(traffic, ip_classes, world)
    });
    rec.line(format_args!(
        "Figure 8 headline: AS D peak overflow share {:.0}%",
        d_share * 100.0
    ));
    out.check(!traffic.flows.is_empty(), || {
        "border telemetry sampled no flows".to_string()
    });
    d_share
}

/// Europe's peak/pre-event ratio as the Figure 4 summary prints it.
fn europe_ratio(summary: &Table) -> f64 {
    summary
        .find_row(0, "Europe")
        .and_then(|r| r[3].trim_end_matches('x').parse().ok())
        .unwrap_or(f64::NAN)
}

fn global_dns(rec: &mut Recorder, world: &World, ctx: &Ctx<'_>) -> DnsCampaignResult {
    if !rec.traced() {
        return run_global_dns_threads(world, ctx.cfg, ctx.threads);
    }
    let ((result, walls, snap), wall) = rec.timed("scenario.global_dns", || {
        run_global_dns_threads_timed_observed(world, ctx.cfg, ctx.threads)
    });
    rec.campaigns.push(CampaignTrace::new(
        "global_dns",
        wall,
        Some(walls),
        snap,
        &result,
    ));
    result
}

fn isp_dns(rec: &mut Recorder, world: &World, ctx: &Ctx<'_>) -> DnsCampaignResult {
    if !rec.traced() {
        return run_isp_dns_threads(world, ctx.cfg, ctx.threads);
    }
    let ((result, walls, snap), wall) = rec.timed("scenario.isp_dns", || {
        run_isp_dns_threads_timed_observed(world, ctx.cfg, ctx.threads)
    });
    rec.campaigns.push(CampaignTrace::new(
        "isp_dns",
        wall,
        Some(walls),
        snap,
        &result,
    ));
    result
}

/// The in-ISP campaign through the crash-safe journaled entry point, from
/// an empty journal. The journaled path returns no shard walls.
fn isp_dns_journaled(
    rec: &mut Recorder,
    world: &World,
    ctx: &Ctx<'_>,
    out: &mut Outcome,
) -> Option<DnsCampaignResult> {
    // A journal left by an earlier iteration would be resumed, not rerun.
    let _ = std::fs::remove_file(ctx.journal);
    let opts = ResumeOptions {
        threads: ctx.threads,
        ..ResumeOptions::default()
    };
    let (run, wall) = rec.timed("scenario.isp_dns", || {
        run_isp_dns_resumable_with_observed(world, ctx.cfg, ctx.journal, opts)
    });
    let bytes = std::fs::metadata(ctx.journal).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(ctx.journal);
    match run {
        Ok((CampaignRun::Complete(result), snap)) => {
            if rec.traced() {
                rec.journal_bytes = Some(bytes);
                rec.campaigns
                    .push(CampaignTrace::new("isp_dns", wall, None, snap, &result));
            }
            Some(result)
        }
        Ok((
            CampaignRun::Suspended {
                rounds_done,
                total_rounds,
            },
            _,
        )) => {
            out.problems.push(format!(
                "journaled campaign suspended at {rounds_done}/{total_rounds}"
            ));
            None
        }
        Err(e) => {
            out.problems.push(format!("journaled campaign failed: {e}"));
            None
        }
    }
}

fn traffic(rec: &mut Recorder, world: &World, ctx: &Ctx<'_>) -> TrafficResult {
    let cfg = ctx.cfg;
    if !rec.traced() {
        return run_isp_traffic_threads(world, cfg, ctx.threads);
    }
    let ((result, walls), wall) = rec.timed("scenario.traffic", || {
        run_isp_traffic_threads_timed(world, cfg, ctx.threads)
    });
    rec.traffic = Some(TrafficTrace {
        wall,
        walls,
        ticks: rounds(cfg.traffic_start, cfg.traffic_end, cfg.traffic_tick),
        flows: result.flows.len() as u64,
        snmp_samples: result.snmp.samples().count() as u64,
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn dense_probing_is_576k_resolutions() {
        let cfg = Workload::DenseProbing.config(paper_seed());
        let n = cfg.global_probes as u64
            * rounds(cfg.global_start, cfg.global_end, cfg.global_dns_interval);
        assert_eq!(n, 576_000);
    }

    #[test]
    fn seed_feeds_probe_placement_and_faults() {
        let cfg = Workload::FaultedIspView.config(7);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.faults.seed, 7);
        assert_eq!(
            Workload::PaperRepro.config(paper_seed()).seed,
            ScenarioConfig::paper().seed
        );
    }
}
