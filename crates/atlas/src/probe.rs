//! Measurement probes: located clients with their own caching resolvers.

use mcdn_dnssim::{
    BailiwickPolicy, CompiledNamespace, FaultModel, ICacheExportEntry, IResolutionError,
    IRoundMemo, InternedFaultModel, InternedMutationModel, InternedResolver, MutationModel,
    Namespace, NoInternedMutations, NoMutations, QueryContext, RecursiveResolver, ResolutionError,
    ResolutionTrace, ResolveScratch, RoundMemo,
};
use mcdn_dnswire::{Name, RecordType};
use mcdn_faults::RetryPolicy;
use mcdn_intern::NameId;
use mcdn_geo::{City, Duration, SimTime};
use mcdn_netsim::AsId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Where one probe lives: its city, host AS, and client address.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Host city (fixes coordinates and continent).
    pub city: &'static City,
    /// The access network hosting the probe.
    pub as_id: AsId,
    /// The probe's client address (inside the host AS's prefix).
    pub ip: Ipv4Addr,
}

/// A measurement probe. Each probe owns a resolver cache, so the TTL
/// dynamics of the mapping chain shape what it re-resolves each round —
/// exactly like a RIPE Atlas probe using its local resolver.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Fleet-unique id.
    pub id: u32,
    /// Placement.
    pub spec: ProbeSpec,
    resolver: RecursiveResolver,
    iresolver: InternedResolver,
}

impl Probe {
    /// Creates a probe.
    pub fn new(id: u32, spec: ProbeSpec) -> Probe {
        Probe { id, spec, resolver: RecursiveResolver::new(), iresolver: InternedResolver::new() }
    }

    /// The query context this probe presents at `now`.
    pub fn context(&self, now: SimTime) -> QueryContext {
        QueryContext {
            client_ip: self.spec.ip,
            locode: self.spec.city.locode,
            coord: self.spec.city.coord,
            continent: self.spec.city.continent,
            now,
        }
    }

    /// Runs one DNS measurement, returning the trace (and any error — a
    /// probe logs failures rather than aborting a campaign).
    pub fn measure(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
    ) -> (ResolutionTrace, Result<(), ResolutionError>) {
        self.resolver.resolve(ns, qname, qtype, &self.context(now))
    }

    /// Runs one DNS measurement under a fault model, retrying transient
    /// failures (SERVFAIL, timeout) per `retry` with capped exponential
    /// backoff. Each retry happens later in simulated time by the
    /// accumulated backoff, so TTL expiry during backoff behaves
    /// faithfully. Permanent failures (NXDOMAIN, over-long chains) are
    /// never retried. Under a quiet fault model the first attempt always
    /// succeeds, making this bit-identical to [`Probe::measure`].
    pub fn measure_with(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn FaultModel,
        retry: &RetryPolicy,
    ) -> MeasureOutcome {
        self.measure_impl(ns, qname, qtype, now, faults, retry, None)
    }

    /// Like [`Probe::measure_with`], threading a per-round
    /// [`RoundMemo`] through every resolution so scope-stable zone answers
    /// are replayed rather than re-derived. Bit-identical to
    /// [`Probe::measure_with`] (the memo only replays answers whose zones
    /// declared them scope-stable, and faulted queries bypass it).
    #[allow(clippy::too_many_arguments)] // the memo-bearing superset of measure_with
    pub fn measure_memoized(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn FaultModel,
        retry: &RetryPolicy,
        memo: &mut RoundMemo,
    ) -> MeasureOutcome {
        self.measure_impl(ns, qname, qtype, now, faults, retry, Some(memo))
    }

    #[allow(clippy::too_many_arguments)] // private driver behind the two entry points
    fn measure_impl(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn FaultModel,
        retry: &RetryPolicy,
        memo: Option<&mut RoundMemo>,
    ) -> MeasureOutcome {
        self.measure_adversarial_impl(
            ns,
            qname,
            qtype,
            now,
            faults,
            &NoMutations,
            BailiwickPolicy::Enforce,
            retry,
            memo,
        )
    }

    /// [`Probe::measure_memoized`] with an answer-mutation model and an
    /// explicit [`BailiwickPolicy`] threaded through every attempt.
    /// Truncated answers are transient, so they burn retry budget exactly
    /// like timeouts.
    #[allow(clippy::too_many_arguments)] // the adversarial superset of measure_with
    pub fn measure_adversarial(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn FaultModel,
        mutations: &dyn MutationModel,
        bailiwick: BailiwickPolicy,
        retry: &RetryPolicy,
        memo: Option<&mut RoundMemo>,
    ) -> MeasureOutcome {
        self.measure_adversarial_impl(ns, qname, qtype, now, faults, mutations, bailiwick, retry, memo)
    }

    #[allow(clippy::too_many_arguments)] // private driver behind every string entry point
    fn measure_adversarial_impl(
        &mut self,
        ns: &Namespace,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn FaultModel,
        mutations: &dyn MutationModel,
        bailiwick: BailiwickPolicy,
        retry: &RetryPolicy,
        mut memo: Option<&mut RoundMemo>,
    ) -> MeasureOutcome {
        let mut wait = Duration::secs(0);
        let max = retry.max_attempts.max(1);
        for attempt in 0..max {
            wait = wait + retry.backoff_before(attempt);
            let ctx = self.context(now + wait);
            let (trace, result) = self.resolver.resolve_adversarial(
                ns,
                qname,
                qtype,
                &ctx,
                faults,
                mutations,
                bailiwick,
                attempt,
                memo.as_deref_mut(),
            );
            let retryable = matches!(&result, Err(e) if e.is_transient());
            if !retryable || attempt + 1 == max {
                return MeasureOutcome { trace, result, attempts: attempt + 1 };
            }
        }
        unreachable!("loop always returns on the last attempt")
    }

    /// Like [`Probe::measure_memoized`] on the interned hot path: same
    /// retry/backoff schedule, same fault-before-memo ordering, zero
    /// steady-state allocations. The trace of the final attempt is left
    /// in `scratch.trace()`; the probe's interned cache persists across
    /// rounds exactly like the string resolver's.
    #[allow(clippy::too_many_arguments)] // the interned face of measure_impl
    pub fn measure_interned(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn InternedFaultModel,
        retry: &RetryPolicy,
        memo: &mut IRoundMemo,
    ) -> (Result<(), IResolutionError>, u32) {
        self.measure_interned_adversarial(
            ns,
            scratch,
            qname,
            qtype,
            now,
            faults,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            retry,
            memo,
        )
    }

    /// [`Probe::measure_interned`] with an answer-mutation model and an
    /// explicit [`BailiwickPolicy`] — the interned face of
    /// [`Probe::measure_adversarial`], same retry schedule, same
    /// hook ordering.
    #[allow(clippy::too_many_arguments)] // the adversarial superset of measure_interned
    pub fn measure_interned_adversarial(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        now: SimTime,
        faults: &dyn InternedFaultModel,
        mutations: &dyn InternedMutationModel,
        bailiwick: BailiwickPolicy,
        retry: &RetryPolicy,
        memo: &mut IRoundMemo,
    ) -> (Result<(), IResolutionError>, u32) {
        let mut wait = Duration::secs(0);
        let max = retry.max_attempts.max(1);
        for attempt in 0..max {
            wait = wait + retry.backoff_before(attempt);
            let ctx = self.context(now + wait);
            let result = self.iresolver.resolve_adversarial(
                ns,
                scratch,
                qname,
                qtype,
                &ctx,
                faults,
                mutations,
                bailiwick,
                attempt,
                Some(memo),
            );
            let retryable = matches!(&result, Err(e) if e.is_transient());
            if !retryable || attempt + 1 == max {
                return (result, attempt + 1);
            }
        }
        unreachable!("loop always returns on the last attempt")
    }

    /// Resolver cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.resolver.cache_stats()
    }

    /// Interned-resolver cache statistics `(hits, misses)`.
    pub fn interned_cache_stats(&self) -> (u64, u64) {
        self.iresolver.cache_stats()
    }

    /// Exports the interned-resolver cache for checkpointing: sorted
    /// entries plus `(hits, misses)` counters. See
    /// [`InternedResolver::cache_export`].
    pub fn interned_cache_export(&self) -> (Vec<ICacheExportEntry>, u64, u64) {
        self.iresolver.cache_export()
    }

    /// Restores the interned-resolver cache captured by
    /// [`interned_cache_export`](Self::interned_cache_export), making a
    /// rebuilt probe's TTL behaviour bit-identical to the original's.
    pub fn interned_cache_restore(
        &mut self,
        entries: Vec<ICacheExportEntry>,
        hits: u64,
        misses: u64,
    ) {
        self.iresolver.cache_restore(entries, hits, misses);
    }
}

/// What one fault-aware measurement produced.
#[derive(Debug, Clone)]
pub struct MeasureOutcome {
    /// The trace of the final attempt (even on failure).
    pub trace: ResolutionTrace,
    /// The final attempt's outcome.
    pub result: Result<(), ResolutionError>,
    /// Attempts spent, including the first (1 when nothing was retried).
    pub attempts: u32,
}

/// Builds probes from specs, ids assigned in order.
pub fn build_fleet(specs: Vec<ProbeSpec>) -> Vec<Probe> {
    specs.into_iter().enumerate().map(|(i, s)| Probe::new(i as u32, s)).collect()
}

/// Spreads `n` probe specs across weighted cities, deterministically under
/// `seed`. `place` maps a city to its host AS and a fresh client address.
pub fn spread_specs(
    n: usize,
    cities: &[(&'static City, f64)],
    seed: u64,
    mut place: impl FnMut(&'static City, usize) -> (AsId, Ipv4Addr),
) -> Vec<ProbeSpec> {
    assert!(!cities.is_empty(), "need at least one city");
    let total: f64 = cities.iter().map(|(_, w)| w).sum();
    assert!(total > 0.0, "weights must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = cities[0].0;
            for (city, w) in cities {
                if pick < *w {
                    chosen = city;
                    break;
                }
                pick -= w;
            }
            let (as_id, ip) = place(chosen, i);
            ProbeSpec { city: chosen, as_id, ip }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_dnssim::Zone;
    use mcdn_geo::{Continent, Locode, Registry};

    fn city(code: &str) -> &'static City {
        Registry::by_locode(Locode::parse(code).unwrap()).unwrap()
    }

    fn tiny_ns() -> Namespace {
        let mut ns = Namespace::new();
        let mut z = Zone::new(Name::parse("apple.com").unwrap());
        z.add_a("appldnld.apple.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        ns.add_zone(z);
        ns
    }

    #[test]
    fn probe_context_carries_location() {
        let p = Probe::new(
            0,
            ProbeSpec { city: city("deber"), as_id: AsId(1), ip: Ipv4Addr::new(10, 0, 0, 1) },
        );
        let ctx = p.context(SimTime::from_ymd(2017, 9, 12));
        assert_eq!(ctx.continent, Continent::Europe);
        assert_eq!(ctx.locode.as_str(), "deber");
    }

    #[test]
    fn probe_measures_and_caches() {
        let ns = tiny_ns();
        let mut p = Probe::new(
            0,
            ProbeSpec { city: city("deber"), as_id: AsId(1), ip: Ipv4Addr::new(10, 0, 0, 1) },
        );
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let name = Name::parse("appldnld.apple.com").unwrap();
        let (trace, res) = p.measure(&ns, &name, RecordType::A, t0);
        res.unwrap();
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 253, 1, 1)]);
        // Re-measure within TTL: cache hit.
        let (_, res) = p.measure(&ns, &name, RecordType::A, t0 + mcdn_geo::Duration::secs(5));
        res.unwrap();
        assert_eq!(p.cache_stats().0, 1);
    }

    /// Times out the first `failures` attempts of every query, then heals.
    struct FlakyUpstream {
        failures: u32,
    }

    impl FaultModel for FlakyUpstream {
        fn upstream_fault(
            &self,
            _zone: &Name,
            _qname: &Name,
            _ctx: &QueryContext,
            attempt: u32,
        ) -> Option<mcdn_dnssim::UpstreamFault> {
            (attempt < self.failures).then_some(mcdn_dnssim::UpstreamFault::Timeout)
        }
    }

    fn probe() -> Probe {
        Probe::new(
            0,
            ProbeSpec { city: city("deber"), as_id: AsId(1), ip: Ipv4Addr::new(10, 0, 0, 1) },
        )
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let ns = tiny_ns();
        let mut p = probe();
        let name = Name::parse("appldnld.apple.com").unwrap();
        let retry = RetryPolicy::standard();
        let out = p.measure_with(
            &ns,
            &name,
            RecordType::A,
            SimTime::from_ymd(2017, 9, 12),
            &FlakyUpstream { failures: 2 },
            &retry,
        );
        out.result.unwrap();
        assert_eq!(out.attempts, 3);
        assert_eq!(out.trace.addresses(), vec![Ipv4Addr::new(17, 253, 1, 1)]);
    }

    #[test]
    fn retry_budget_exhausts_on_persistent_faults() {
        let ns = tiny_ns();
        let mut p = probe();
        let name = Name::parse("appldnld.apple.com").unwrap();
        let retry = RetryPolicy::standard();
        let out = p.measure_with(
            &ns,
            &name,
            RecordType::A,
            SimTime::from_ymd(2017, 9, 12),
            &FlakyUpstream { failures: u32::MAX },
            &retry,
        );
        assert_eq!(out.attempts, retry.max_attempts);
        assert!(matches!(out.result, Err(ResolutionError::Timeout(_))));
        // The failed attempt's trace still records what the probe saw.
        assert_eq!(out.trace.steps.len(), 1);
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let ns = tiny_ns();
        let mut p = probe();
        let name = Name::parse("no.such.name.example").unwrap();
        let out = p.measure_with(
            &ns,
            &name,
            RecordType::A,
            SimTime::from_ymd(2017, 9, 12),
            &mcdn_dnssim::NoFaults,
            &RetryPolicy::standard(),
        );
        assert_eq!(out.attempts, 1);
        assert!(matches!(out.result, Err(ResolutionError::NxDomain(_))));
    }

    #[test]
    fn quiet_faults_match_plain_measure() {
        let ns = tiny_ns();
        let name = Name::parse("appldnld.apple.com").unwrap();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let mut a = probe();
        let mut b = probe();
        let (trace_plain, res_plain) = a.measure(&ns, &name, RecordType::A, t0);
        let out = b.measure_with(
            &ns,
            &name,
            RecordType::A,
            t0,
            &mcdn_dnssim::NoFaults,
            &RetryPolicy::standard(),
        );
        assert_eq!(out.attempts, 1);
        assert_eq!(trace_plain, out.trace);
        assert_eq!(res_plain, out.result);
    }

    #[test]
    fn spread_is_deterministic_and_weighted() {
        let cities = [(city("deber"), 3.0), (city("usnyc"), 1.0)];
        let place = |_: &'static City, i: usize| {
            (AsId(1), Ipv4Addr::from(0x0A00_0000 + i as u32))
        };
        let a = spread_specs(400, &cities, 42, place);
        let b = spread_specs(400, &cities, 42, place);
        assert_eq!(a.len(), 400);
        let berlin_a = a.iter().filter(|s| s.city.name == "Berlin").count();
        let berlin_b = b.iter().filter(|s| s.city.name == "Berlin").count();
        assert_eq!(berlin_a, berlin_b, "same seed, same spread");
        // 3:1 weighting → roughly 300 in Berlin.
        assert!((250..=350).contains(&berlin_a), "got {berlin_a}");
    }

    #[test]
    fn fleet_ids_are_sequential() {
        let cities = [(city("deber"), 1.0)];
        let specs = spread_specs(5, &cities, 7, |_, i| {
            (AsId(1), Ipv4Addr::from(0x0A00_0000 + i as u32))
        });
        let fleet = build_fleet(specs);
        for (i, p) in fleet.iter().enumerate() {
            assert_eq!(p.id, i as u32);
        }
    }
}
