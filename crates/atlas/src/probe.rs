//! Measurement probes: located clients with their own caching resolvers.

use mcdn_dnssim::{
    BailiwickPolicy, CompiledNamespace, ICacheExportEntry, IResolutionError, IRoundMemo,
    InternedFaultModel, InternedMutationModel, InternedResolver, NoInternedMutations, QueryContext,
    ResolveScratch,
};
use mcdn_dnswire::RecordType;
use mcdn_faults::RetryPolicy;
use mcdn_geo::{City, Duration, SimTime};
use mcdn_intern::NameId;
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
    resolver: InternedResolver,
}

impl Probe {
    /// Creates a probe.
    pub fn new(id: u32, spec: ProbeSpec) -> Probe {
        Probe {
            id,
            spec,
            resolver: InternedResolver::new(),
        }
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

    /// Runs one DNS measurement under a fault model, retrying transient
    /// failures (SERVFAIL, timeout, truncation) per `retry` with capped
    /// exponential backoff. Each retry happens later in simulated time by
    /// the accumulated backoff, so TTL expiry during backoff behaves
    /// faithfully. Permanent failures (NXDOMAIN, over-long chains) are
    /// never retried. A per-round `memo` replays scope-stable zone
    /// answers (faulted queries bypass it). The trace of the final
    /// attempt is left in `scratch.trace()`; the probe's cache persists
    /// across rounds, and steady state allocates nothing. Returns the
    /// final attempt's outcome and the attempts spent (1 when nothing
    /// was retried).
    #[allow(clippy::too_many_arguments)] // the quiet-mutation face of measure_interned_adversarial
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
    /// explicit [`BailiwickPolicy`] threaded through every attempt.
    /// Truncated answers are transient, so they burn retry budget exactly
    /// like timeouts.
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
            let result = self.resolver.resolve_adversarial(
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

    /// Interned-resolver cache statistics `(hits, misses)`.
    pub fn interned_cache_stats(&self) -> (u64, u64) {
        self.resolver.cache_stats()
    }

    /// Exports the interned-resolver cache for checkpointing: sorted
    /// entries plus `(hits, misses)` counters. See
    /// [`InternedResolver::cache_export`].
    pub fn interned_cache_export(&self) -> (Vec<ICacheExportEntry>, u64, u64) {
        self.resolver.cache_export()
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
        self.resolver.cache_restore(entries, hits, misses);
    }
}

/// Builds probes from specs, ids assigned in order.
pub fn build_fleet(specs: Vec<ProbeSpec>) -> Vec<Probe> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, s)| Probe::new(i as u32, s))
        .collect()
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
            ProbeSpec {
                city: chosen,
                as_id,
                ip,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_dnssim::{
        Namespace, NoInternedFaults, RecursiveResolver, ResolutionError, ResolutionTrace,
        UpstreamFault, Zone,
    };
    use mcdn_dnswire::Name;
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
        let p = probe();
        let ctx = p.context(SimTime::from_ymd(2017, 9, 12));
        assert_eq!(ctx.continent, Continent::Europe);
        assert_eq!(ctx.locode.as_str(), "deber");
    }

    /// Times out the first `failures` attempts of every query, then heals.
    fn flaky_upstream(
        failures: u32,
    ) -> impl Fn(NameId, u64, NameId, u64, &QueryContext, u32) -> Option<UpstreamFault> {
        move |_, _, _, _, _, attempt| (attempt < failures).then_some(UpstreamFault::Timeout)
    }

    fn probe() -> Probe {
        Probe::new(
            0,
            ProbeSpec {
                city: city("deber"),
                as_id: AsId(1),
                ip: Ipv4Addr::new(10, 0, 0, 1),
            },
        )
    }

    /// Measures `qname` on `p` at `now`, returning the rendered final
    /// trace, its outcome and the attempts spent.
    fn measure(
        p: &mut Probe,
        ns: &Namespace,
        qname: &str,
        now: SimTime,
        faults: &dyn InternedFaultModel,
    ) -> (ResolutionTrace, Result<(), ResolutionError>, u32) {
        let cns = CompiledNamespace::compile(ns);
        let mut scratch = ResolveScratch::new();
        let id = cns.intern_in(&mut scratch, &Name::parse(qname).unwrap());
        let retry = RetryPolicy::standard();
        let mut memo = IRoundMemo::new();
        let (result, attempts) = p.measure_interned(
            &cns,
            &mut scratch,
            id,
            RecordType::A,
            now,
            faults,
            &retry,
            &mut memo,
        );
        let trace = cns.materialize_trace(&scratch, scratch.trace());
        (
            trace,
            result.map_err(|e| cns.materialize_err(&scratch, e)),
            attempts,
        )
    }

    #[test]
    fn probe_measures_and_caches() {
        let ns = tiny_ns();
        let mut p = probe();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let (trace, res, _) = measure(&mut p, &ns, "appldnld.apple.com", t0, &NoInternedFaults);
        res.unwrap();
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 253, 1, 1)]);
        // Re-measure within TTL: cache hit.
        let later = t0 + mcdn_geo::Duration::secs(5);
        let (_, res, _) = measure(&mut p, &ns, "appldnld.apple.com", later, &NoInternedFaults);
        res.unwrap();
        assert_eq!(p.interned_cache_stats().0, 1);
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let ns = tiny_ns();
        let mut p = probe();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let (trace, res, attempts) =
            measure(&mut p, &ns, "appldnld.apple.com", t0, &flaky_upstream(2));
        res.unwrap();
        assert_eq!(attempts, 3);
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 253, 1, 1)]);
    }

    #[test]
    fn retry_budget_exhausts_on_persistent_faults() {
        let ns = tiny_ns();
        let mut p = probe();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let (trace, res, attempts) = measure(
            &mut p,
            &ns,
            "appldnld.apple.com",
            t0,
            &flaky_upstream(u32::MAX),
        );
        assert_eq!(attempts, RetryPolicy::standard().max_attempts);
        assert!(matches!(res, Err(ResolutionError::Timeout(_))));
        // The failed attempt's trace still records what the probe saw.
        assert_eq!(trace.steps.len(), 1);
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let ns = tiny_ns();
        let mut p = probe();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let (_, res, attempts) =
            measure(&mut p, &ns, "no.such.name.example", t0, &NoInternedFaults);
        assert_eq!(attempts, 1);
        assert!(matches!(res, Err(ResolutionError::NxDomain(_))));
    }

    #[test]
    fn quiet_faults_match_a_plain_resolution() {
        let ns = tiny_ns();
        let t0 = SimTime::from_ymd(2017, 9, 12);
        let mut p = probe();
        let plain = RecursiveResolver::new(&ns).resolve(
            &Name::parse("appldnld.apple.com").unwrap(),
            RecordType::A,
            &p.context(t0),
        );
        let (trace, res, attempts) =
            measure(&mut p, &ns, "appldnld.apple.com", t0, &NoInternedFaults);
        assert_eq!(attempts, 1);
        assert_eq!(plain, (trace, res));
    }

    #[test]
    fn spread_is_deterministic_and_weighted() {
        let cities = [(city("deber"), 3.0), (city("usnyc"), 1.0)];
        let place = |_: &'static City, i: usize| (AsId(1), Ipv4Addr::from(0x0A00_0000 + i as u32));
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
