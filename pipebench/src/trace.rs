//! The recorder a workload runs through: output digest always, spans and
//! per-layer side data only when tracing.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer's public function; the workload iteration is their parent.

use mcdn_analysis::Table;
use mcdn_faults::Fnv64;
use mcdn_obs::MetricsSnapshot;
use mcdn_scenario::DnsCampaignResult;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call. `parent` indexes [`Recorder::spans`]; the root span
/// (index 0, the workload iteration) has none.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function` of the call.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Offset from the root span's start.
    pub start: Duration,
    /// Wall time of the call.
    pub dur: Duration,
}

/// What a traced DNS campaign returned besides its result.
pub struct CampaignTrace {
    /// `global_dns` or `isp_dns`.
    pub stage: &'static str,
    /// Wall of the campaign call.
    pub wall: Duration,
    /// Per-shard walls, when the entry point returns them.
    pub walls: Option<Vec<Duration>>,
    /// The campaign's metrics snapshot.
    pub snap: MetricsSnapshot,
    /// Resolutions the campaign performed.
    pub resolutions: u64,
    /// Attempts including retries.
    pub attempts: u64,
    /// Cross-shard memo lookups and hits.
    pub memo: (u64, u64),
    /// Resolutions replayed by the reuse engine.
    pub reused: u64,
}

impl CampaignTrace {
    /// Collects a traced campaign's side data.
    pub fn new(
        stage: &'static str,
        wall: Duration,
        walls: Option<Vec<Duration>>,
        snap: MetricsSnapshot,
        result: &DnsCampaignResult,
    ) -> CampaignTrace {
        CampaignTrace {
            stage,
            wall,
            walls,
            snap,
            resolutions: result.resolutions,
            attempts: result.attempts,
            memo: (result.memo_lookups, result.memo_hits),
            reused: result.reused_resolutions,
        }
    }
}

/// What the traced traffic stage returned besides its result.
pub struct TrafficTrace {
    /// Wall of the traffic call.
    pub wall: Duration,
    /// Per-shard phase-B walls.
    pub walls: Vec<Duration>,
    /// Ticks in the traffic window.
    pub ticks: u64,
    /// Sampled flow records collected.
    pub flows: u64,
    /// SNMP samples collected.
    pub snmp_samples: u64,
}

/// Digest of every emitted line, plus the trace when enabled.
pub struct Recorder {
    traced: bool,
    origin: Instant,
    digest: Fnv64,
    /// Spans of this iteration; index 0 is the root once [`finish`] ran.
    pub spans: Vec<Span>,
    /// Traced DNS campaigns, in call order.
    pub campaigns: Vec<CampaignTrace>,
    /// The traced traffic stage, if the workload has one.
    pub traffic: Option<TrafficTrace>,
    /// Journal size in bytes after a journaled campaign.
    pub journal_bytes: Option<u64>,
}

impl Recorder {
    /// Starts an iteration; the root span opens now.
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            traced,
            origin: Instant::now(),
            digest: Fnv64::new(),
            spans: vec![Span {
                name: "workload",
                parent: None,
                start: Duration::ZERO,
                dur: Duration::ZERO,
            }],
            campaigns: Vec::new(),
            traffic: None,
            journal_bytes: None,
        }
    }

    /// Whether this iteration records spans and side data.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs `f` inside a span named `name` (when tracing) and returns its
    /// result with the call's wall time.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        if !self.traced {
            return (f(), Duration::ZERO);
        }
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed();
        self.spans.push(Span {
            name,
            parent: Some(0),
            start: t0 - self.origin,
            dur,
        });
        (r, dur)
    }

    /// [`Recorder::timed`] without the duration.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// Computes a table and renders it into the digest, both inside one
    /// span: rendering is the table's output.
    pub fn table(&mut self, name: &'static str, f: impl FnOnce() -> Table) -> Table {
        let mut digest = self.digest;
        let table = self.call(name, || {
            let t = f();
            write!(digest, "{t}").expect("hashing cannot fail");
            t
        });
        self.digest = digest;
        table
    }

    /// Emits one line of text output into the digest.
    pub fn line(&mut self, text: std::fmt::Arguments<'_>) {
        writeln!(self.digest, "{text}").expect("hashing cannot fail");
    }

    /// Closes the root span and returns the output digest.
    pub fn finish(&mut self) -> u64 {
        self.spans[0].dur = self.origin.elapsed();
        self.digest.finish()
    }

    /// Sum of the durations of spans named with `prefix`.
    pub fn span_sum(&self, prefix: &str) -> Duration {
        self.spans[1..]
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur)
            .sum()
    }
}
