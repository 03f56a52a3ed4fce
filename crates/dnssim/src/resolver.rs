//! Name-keyed recursive resolution: the trace and error types every
//! resolution is rendered into, and [`RecursiveResolver`], the adapter
//! that drives the interned engine from [`Name`]s.

use crate::context::QueryContext;
use crate::interned::{CompiledNamespace, InternedResolver, NoInternedFaults, ResolveScratch};
use crate::zone::Namespace;
use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
use std::net::Ipv4Addr;

/// Longest CNAME chain we will follow. The Apple mapping chain of Figure 2
/// has at most five edges; real resolvers commonly cap around 8–16.
pub const MAX_CHAIN: usize = 16;

/// One step of a resolution: a single question asked of one zone (or served
/// from cache).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The name asked.
    pub qname: Name,
    /// The type asked.
    pub qtype: RecordType,
    /// Records received (empty = NODATA).
    pub records: Vec<ResourceRecord>,
    /// Whether this step was answered from the resolver cache.
    pub from_cache: bool,
    /// Origin of the answering zone (`None` if cached or NXDOMAIN'd at root).
    pub zone: Option<Name>,
}

/// The complete record of one recursive resolution.
///
/// The sequence of CNAME edges with their TTLs in `steps` is the measured
/// object behind Figure 2; [`ResolutionTrace::addresses`] are the cache IPs
/// counted in Figures 4 and 5.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResolutionTrace {
    /// Steps in order.
    pub steps: Vec<TraceStep>,
}

impl ResolutionTrace {
    /// All terminal A-record addresses.
    pub fn addresses(&self) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        for step in &self.steps {
            for rr in &step.records {
                if let RData::A(a) = rr.rdata {
                    out.push(a);
                }
            }
        }
        out
    }

    /// The CNAME chain as `(owner, target, ttl)` edges, in resolution order.
    pub fn cname_edges(&self) -> Vec<(Name, Name, u32)> {
        let mut out = Vec::new();
        for step in &self.steps {
            for rr in &step.records {
                if let RData::Cname(target) = &rr.rdata {
                    out.push((rr.name.clone(), target.clone(), rr.ttl));
                }
            }
        }
        out
    }

    /// The final name that produced the terminal records (last qname).
    pub fn terminal_name(&self) -> Option<&Name> {
        self.steps.last().map(|s| &s.qname)
    }
}

/// Why a resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionError {
    /// A name in the chain does not exist.
    NxDomain(Name),
    /// The CNAME chain exceeded [`MAX_CHAIN`] hops.
    ChainTooLong,
    /// An authoritative zone answered SERVFAIL while resolving this name
    /// (injected via an [`InternedFaultModel`](crate::InternedFaultModel);
    /// transient — retryable).
    ServFail(Name),
    /// An upstream query for this name timed out (injected via an
    /// [`InternedFaultModel`](crate::InternedFaultModel); transient —
    /// retryable).
    Timeout(Name),
    /// The authoritative answer for this name arrived truncated or garbled
    /// beyond use (injected via an
    /// [`InternedMutationModel`](crate::InternedMutationModel); transient —
    /// retryable, like a real resolver falling back after a malformed UDP
    /// response).
    Truncated(Name),
}

impl ResolutionError {
    /// Whether this failure is transient, i.e. a retry may succeed.
    /// NXDOMAIN and over-long chains are authoritative facts; SERVFAIL and
    /// timeouts are weather.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ResolutionError::ServFail(_)
                | ResolutionError::Timeout(_)
                | ResolutionError::Truncated(_)
        )
    }
}

impl core::fmt::Display for ResolutionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResolutionError::NxDomain(n) => write!(f, "NXDOMAIN for {n}"),
            ResolutionError::ChainTooLong => write!(f, "CNAME chain too long"),
            ResolutionError::ServFail(n) => write!(f, "SERVFAIL while resolving {n}"),
            ResolutionError::Timeout(n) => write!(f, "upstream timeout while resolving {n}"),
            ResolutionError::Truncated(n) => {
                write!(f, "truncated/malformed answer while resolving {n}")
            }
        }
    }
}

impl std::error::Error for ResolutionError {}

/// A name-keyed recursive resolver: the display adapter over the
/// interned engine, for callers that speak in [`Name`]s (the Figure 2
/// crawl, the quickstart report, tests). It compiles its namespace once,
/// at construction, and owns one [`InternedResolver`] cache plus its
/// scratch, so every resolution is the campaign engine's resolution
/// rendered back to names.
#[derive(Debug)]
pub struct RecursiveResolver<'a> {
    ns: CompiledNamespace<'a>,
    resolver: InternedResolver,
    scratch: ResolveScratch,
}

impl<'a> RecursiveResolver<'a> {
    /// A resolver over `ns` with a cold cache.
    pub fn new(ns: &'a Namespace) -> RecursiveResolver<'a> {
        RecursiveResolver {
            ns: CompiledNamespace::compile(ns),
            resolver: InternedResolver::new(),
            scratch: ResolveScratch::new(),
        }
    }

    /// Resolves `qname`/`qtype`, chasing CNAMEs, consulting and filling
    /// the cache. Returns the trace even on failure (callers log what the
    /// probe saw before the error).
    pub fn resolve(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
    ) -> (ResolutionTrace, Result<(), ResolutionError>) {
        let id = self.ns.intern_in(&mut self.scratch, qname);
        let result = self.resolver.resolve(
            &self.ns,
            &mut self.scratch,
            id,
            qtype,
            ctx,
            &NoInternedFaults,
            0,
            None,
        );
        let trace = self
            .ns
            .materialize_trace(&self.scratch, self.scratch.trace());
        (
            trace,
            result.map_err(|e| self.ns.materialize_err(&self.scratch, e)),
        )
    }

    /// Cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.resolver.cache_stats()
    }

    /// Empties the cache (counters survive).
    pub fn flush(&mut self) {
        self.resolver.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{MAX_CACHE_TTL, NEGATIVE_TTL};
    use crate::faults::UpstreamFault;
    use crate::interned::{IRoundMemo, InternedFaultModel, NoInternedFaults};
    use crate::mutation::{BailiwickPolicy, ITamper, InternedMutationModel, NoInternedMutations};
    use crate::zone::Zone;
    use mcdn_geo::{Continent, Coord, Duration, Locode, SimTime};
    use mcdn_intern::NameId;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ctx_at(now: SimTime) -> QueryContext {
        QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, 1),
            locode: Locode::parse("defra").unwrap(),
            coord: Coord::new(50.1, 8.7),
            continent: Continent::Europe,
            now,
        }
    }

    /// A miniature three-zone chain mirroring the Apple mapping shape.
    fn namespace() -> Namespace {
        let mut ns = Namespace::new();
        let mut apple = Zone::new(n("apple.com"));
        apple.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        ns.add_zone(apple);
        let mut akadns = Zone::new(n("akadns.net"));
        akadns.add_cname(
            "appldnld.apple.com.akadns.net",
            "appldnld.g.applimg.com",
            120,
        );
        ns.add_zone(akadns);
        let mut applimg = Zone::new(n("applimg.com"));
        applimg.add_cname("appldnld.g.applimg.com", "a.gslb.applimg.com", 15);
        applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 37, 16), 20);
        ns.add_zone(applimg);
        ns
    }

    /// The interned engine with name-keyed results, for the fault,
    /// tamper and memo hooks the adapter does not expose.
    struct Hooked<'a> {
        ns: CompiledNamespace<'a>,
        resolver: InternedResolver,
        scratch: ResolveScratch,
    }

    impl<'a> Hooked<'a> {
        fn new(ns: &'a Namespace) -> Hooked<'a> {
            let extra = [crate::attacker_owner(), crate::attacker_ns()];
            Hooked {
                ns: CompiledNamespace::compile_with_extra(ns, &extra),
                resolver: InternedResolver::new(),
                scratch: ResolveScratch::new(),
            }
        }

        fn id(&self, name: &str) -> NameId {
            self.ns
                .table()
                .get(&n(name))
                .expect("name is in the namespace")
        }

        fn resolve(
            &mut self,
            ctx: &QueryContext,
            faults: &dyn InternedFaultModel,
            mutations: &dyn InternedMutationModel,
            bailiwick: BailiwickPolicy,
            memo: Option<&mut IRoundMemo>,
        ) -> (ResolutionTrace, Result<(), ResolutionError>) {
            let q = self.id("appldnld.apple.com");
            let result = self.resolver.resolve_adversarial(
                &self.ns,
                &mut self.scratch,
                q,
                RecordType::A,
                ctx,
                faults,
                mutations,
                bailiwick,
                0,
                memo,
            );
            let trace = self
                .ns
                .materialize_trace(&self.scratch, self.scratch.trace());
            (
                trace,
                result.map_err(|e| self.ns.materialize_err(&self.scratch, e)),
            )
        }

        fn resolve_faulted(
            &mut self,
            ctx: &QueryContext,
            faults: &dyn InternedFaultModel,
        ) -> (ResolutionTrace, Result<(), ResolutionError>) {
            self.resolve(
                ctx,
                faults,
                &NoInternedMutations,
                BailiwickPolicy::Enforce,
                None,
            )
        }
    }

    /// Faults every upstream query to `zone` (cache hits unaffected).
    fn zone_down(
        zone: NameId,
        fault: UpstreamFault,
    ) -> impl Fn(NameId, u64, NameId, u64, &QueryContext, u32) -> Option<UpstreamFault> {
        move |z, _, _, _, _, _| (z == zone).then_some(fault)
    }

    /// Tampers with every answer from `zone`.
    fn tamper_at(
        zone: NameId,
        tamper: ITamper,
    ) -> impl Fn(NameId, u64, NameId, u64, &QueryContext, u32) -> Option<ITamper> {
        move |z, _, _, _, _, _| (z == zone).then_some(tamper)
    }

    #[test]
    fn follows_full_chain() {
        let ns = namespace();
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) = r.resolve(&n("appldnld.apple.com"), RecordType::A, &ctx_at(t0));
        res.unwrap();
        assert_eq!(trace.addresses(), vec![Ipv4Addr::new(17, 253, 37, 16)]);
        let edges = trace.cname_edges();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].2, 21600);
        assert_eq!(edges[1].2, 120);
        assert_eq!(edges[2].2, 15);
        assert_eq!(trace.terminal_name(), Some(&n("a.gslb.applimg.com")));
        assert!(trace.steps.iter().all(|s| !s.from_cache));
    }

    #[test]
    fn second_resolution_hits_cache_selectively() {
        let ns = namespace();
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let _ = r.resolve(&n("appldnld.apple.com"), RecordType::A, &ctx_at(t0));
        // 30 s later: entry (21600) and akadns (120) CNAMEs still cached;
        // the 15 s selector and the 20 s A record have expired.
        let (trace, res) = r.resolve(
            &n("appldnld.apple.com"),
            RecordType::A,
            &ctx_at(t0 + Duration::secs(30)),
        );
        res.unwrap();
        let cached: Vec<bool> = trace.steps.iter().map(|s| s.from_cache).collect();
        assert_eq!(cached, vec![true, true, false, false]);
    }

    #[test]
    fn nxdomain_reported_with_trace() {
        let ns = namespace();
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) = r.resolve(&n("missing.apple.com"), RecordType::A, &ctx_at(t0));
        assert_eq!(res, Err(ResolutionError::NxDomain(n("missing.apple.com"))));
        assert_eq!(trace.steps.len(), 1);
    }

    #[test]
    fn chain_loop_detected() {
        let mut ns = Namespace::new();
        let mut z = Zone::new(n("loop.test"));
        z.add_cname("a.loop.test", "b.loop.test", 60);
        z.add_cname("b.loop.test", "a.loop.test", 60);
        ns.add_zone(z);
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (_, res) = r.resolve(&n("a.loop.test"), RecordType::A, &ctx_at(t0));
        assert_eq!(res, Err(ResolutionError::ChainTooLong));
    }

    #[test]
    fn aaaa_returns_nodata_not_error() {
        let ns = namespace();
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) = r.resolve(&n("appldnld.apple.com"), RecordType::Aaaa, &ctx_at(t0));
        res.unwrap();
        // The chain is followed, but no AAAA exists at the end.
        assert!(trace.addresses().is_empty());
    }

    #[test]
    fn cname_query_does_not_chase() {
        let ns = namespace();
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (trace, res) = r.resolve(&n("appldnld.apple.com"), RecordType::Cname, &ctx_at(t0));
        res.unwrap();
        assert_eq!(trace.steps.len(), 1);
    }

    #[test]
    fn servfail_zone_fails_resolution_with_trace() {
        let ns = namespace();
        let mut r = Hooked::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let down = zone_down(r.id("akadns.net"), UpstreamFault::ServFail);
        let (trace, res) = r.resolve_faulted(&ctx_at(t0), &down);
        assert_eq!(
            res,
            Err(ResolutionError::ServFail(n(
                "appldnld.apple.com.akadns.net"
            )))
        );
        assert!(res.unwrap_err().is_transient());
        // The apple.com hop succeeded before the faulted akadns hop.
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[1].zone, Some(n("akadns.net")));
        assert!(trace.steps[1].records.is_empty());
    }

    #[test]
    fn timeouts_are_transient_and_nxdomain_is_not() {
        let ns = namespace();
        let mut r = Hooked::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let down = zone_down(r.id("apple.com"), UpstreamFault::Timeout);
        let (_, res) = r.resolve_faulted(&ctx_at(t0), &down);
        let err = res.unwrap_err();
        assert_eq!(err, ResolutionError::Timeout(n("appldnld.apple.com")));
        assert!(err.is_transient());
        assert!(!ResolutionError::NxDomain(n("x.y")).is_transient());
        assert!(!ResolutionError::ChainTooLong.is_transient());
    }

    #[test]
    fn cached_chain_survives_total_zone_outage() {
        // A warm cache masks an authoritative outage until TTLs expire —
        // the graceful-degradation property real resolvers provide.
        let ns = namespace();
        let mut r = Hooked::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let (_, res) = r.resolve_faulted(&ctx_at(t0), &NoInternedFaults);
        res.unwrap();
        let down = zone_down(r.id("akadns.net"), UpstreamFault::ServFail);
        // 10 s later every hop is still cached: resolution succeeds even
        // though akadns.net is down.
        let (trace, res) = r.resolve_faulted(&ctx_at(t0 + Duration::secs(10)), &down);
        res.unwrap();
        assert!(!trace.addresses().is_empty());
        // After the akadns TTL (120 s) expires, the outage becomes visible.
        let (_, res) = r.resolve_faulted(&ctx_at(t0 + Duration::secs(300)), &down);
        assert!(matches!(res, Err(ResolutionError::ServFail(_))));
    }

    #[test]
    fn memoized_resolution_is_bit_identical_and_replays_scoped_answers() {
        use crate::zone::{PolicyAnswer, PolicyScope};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // A namespace whose akadns hop is a City-scoped policy that counts
        // how often the authoritative side is actually asked.
        let authoritative_queries = Arc::new(AtomicU64::new(0));
        let build_ns = |counter: Arc<AtomicU64>| {
            let mut ns = Namespace::new();
            let mut apple = Zone::new(n("apple.com"));
            apple.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
            ns.add_zone(apple);
            let mut akadns = Zone::new(n("akadns.net"));
            akadns.set_policy_scoped(
                n("appldnld.apple.com.akadns.net"),
                vec![n("a.gslb.applimg.com")],
                Arc::new(
                    move |_: RecordType, _: &QueryContext, out: &mut PolicyAnswer| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        out.cname(0, 120);
                    },
                ),
                PolicyScope::City,
            );
            ns.add_zone(akadns);
            let mut applimg = Zone::new(n("applimg.com"));
            applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 37, 16), 20);
            ns.add_zone(applimg);
            ns
        };
        let ns = build_ns(authoritative_queries.clone());
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let client = |i: u8| {
            let mut ctx = ctx_at(t0);
            ctx.client_ip = Ipv4Addr::new(198, 51, 100, i);
            ctx
        };

        // Plain resolution for reference (fresh resolver per client).
        let plain: Vec<_> = (0..4u8)
            .map(|i| {
                RecursiveResolver::new(&ns).resolve(
                    &n("appldnld.apple.com"),
                    RecordType::A,
                    &client(i),
                )
            })
            .collect();
        let before = authoritative_queries.load(Ordering::Relaxed);

        // Memoized resolution: same city → the City-scoped hop is asked
        // authoritatively once, replayed three times, bit-identically.
        let mut memo = IRoundMemo::new();
        let memoized: Vec<_> = (0..4u8)
            .map(|i| {
                Hooked::new(&ns).resolve(
                    &client(i),
                    &NoInternedFaults,
                    &NoInternedMutations,
                    BailiwickPolicy::Enforce,
                    Some(&mut memo),
                )
            })
            .collect();
        assert_eq!(
            plain, memoized,
            "memo on/off must not change any resolution"
        );
        let after = authoritative_queries.load(Ordering::Relaxed);
        assert_eq!(before, 4, "plain: every client walks the policy");
        assert_eq!(after - before, 1, "memoized: one walk, three replays");
        assert!(memo.hits() > 0);
        // Global statics (entry CNAME, terminal A) memoize too: 3 keys.
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.lookups(), 12);
        assert_eq!(memo.hits(), 9);
    }

    #[test]
    fn spoofed_records_are_dropped_under_enforce_and_land_under_accept() {
        let ns = namespace();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let attacker = crate::mutation::attacker_owner();
        let attacker_addr = Ipv4Addr::new(198, 18, 0, 9);
        let mut r = Hooked::new(&ns);
        let spoof = tamper_at(
            r.id("akadns.net"),
            ITamper::SpoofA {
                owner: r.id("phish.attacker.invalid"),
                addr: attacker_addr,
                ttl: 600,
            },
        );
        // Enforce drops the out-of-bailiwick record before anything sees
        // it: the whole resolution is bit-identical to the clean one.
        let clean = RecursiveResolver::new(&ns).resolve(
            &n("appldnld.apple.com"),
            RecordType::A,
            &ctx_at(t0),
        );
        let enforced = r.resolve(
            &ctx_at(t0),
            &NoInternedFaults,
            &spoof,
            BailiwickPolicy::Enforce,
            None,
        );
        assert_eq!(
            clean, enforced,
            "enforcement must neutralize the spoof exactly"
        );
        // Accept: the attacker A record satisfies the terminal check at
        // the tampered hop, so the chase halts there mis-mapped.
        let mut r = Hooked::new(&ns);
        let (trace, res) = r.resolve(
            &ctx_at(t0),
            &NoInternedFaults,
            &spoof,
            BailiwickPolicy::Accept,
            None,
        );
        res.unwrap();
        assert!(trace.addresses().contains(&attacker_addr));
        assert!(trace
            .steps
            .iter()
            .any(|s| s.records.iter().any(|rr| rr.name == attacker)));
    }

    #[test]
    fn truncation_fails_transiently_with_trace() {
        let ns = namespace();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let mut r = Hooked::new(&ns);
        let trunc = tamper_at(r.id("applimg.com"), ITamper::Truncate);
        let (trace, res) = r.resolve(
            &ctx_at(t0),
            &NoInternedFaults,
            &trunc,
            BailiwickPolicy::Enforce,
            None,
        );
        let err = res.unwrap_err();
        assert_eq!(err, ResolutionError::Truncated(n("appldnld.g.applimg.com")));
        assert!(err.is_transient());
        let last = trace.steps.last().unwrap();
        assert_eq!(last.zone, Some(n("applimg.com")));
        assert!(last.records.is_empty());
    }

    #[test]
    fn tampered_queries_bypass_the_round_memo() {
        let ns = namespace();
        let t0 = SimTime::from_ymd(2017, 9, 15);
        let mut clean_memo = IRoundMemo::new();
        let _ = Hooked::new(&ns).resolve(
            &ctx_at(t0),
            &NoInternedFaults,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            Some(&mut clean_memo),
        );
        assert_eq!(clean_memo.len(), 4, "all four chain hops memoize cleanly");
        let mut r = Hooked::new(&ns);
        let inflate = tamper_at(r.id("akadns.net"), ITamper::InflateTtl { factor: 1000 });
        let mut memo = IRoundMemo::new();
        let _ = r.resolve(
            &ctx_at(t0),
            &NoInternedFaults,
            &inflate,
            BailiwickPolicy::Enforce,
            Some(&mut memo),
        );
        assert_eq!(memo.len(), 3, "the tampered hop must not enter the memo");
    }

    /// One zone holding a single A name with `ttl`, plus a CNAME-less name
    /// for NODATA.
    fn one_zone(ttls: &[u32]) -> Namespace {
        let mut ns = Namespace::new();
        let mut z = Zone::new(n("apple.com"));
        for &ttl in ttls {
            z.add_a("x.apple.com", Ipv4Addr::new(17, 1, 1, 1), ttl);
        }
        ns.add_zone(z);
        ns
    }

    fn from_cache(
        r: &mut RecursiveResolver<'_>,
        qtype: RecordType,
        now: SimTime,
    ) -> Option<Vec<u32>> {
        let (trace, res) = r.resolve(&n("x.apple.com"), qtype, &ctx_at(now));
        res.unwrap();
        let step = &trace.steps[0];
        step.from_cache
            .then(|| step.records.iter().map(|rr| rr.ttl).collect())
    }

    #[test]
    fn cache_hits_until_expiry_and_rewrites_remaining_ttl() {
        let ns = one_zone(&[100]);
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        assert_eq!(from_cache(&mut r, RecordType::A, t0), None);
        // A hit surfaces the remaining TTL, as a real cache does.
        assert_eq!(
            from_cache(&mut r, RecordType::A, t0 + Duration::secs(40)),
            Some(vec![60])
        );
        assert_eq!(
            from_cache(&mut r, RecordType::A, t0 + Duration::secs(99)),
            Some(vec![1])
        );
        assert_eq!(
            from_cache(&mut r, RecordType::A, t0 + Duration::secs(100)),
            None
        );
        assert_eq!(r.cache_stats(), (2, 2));
    }

    #[test]
    fn rrset_expires_on_minimum_ttl() {
        let ns = one_zone(&[300, 20]);
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        from_cache(&mut r, RecordType::A, t0);
        assert_eq!(
            from_cache(&mut r, RecordType::A, t0 + Duration::secs(19)),
            Some(vec![1, 1])
        );
        assert_eq!(
            from_cache(&mut r, RecordType::A, t0 + Duration::secs(21)),
            None
        );
    }

    #[test]
    fn nodata_is_negative_cached_and_types_are_independent() {
        let ns = one_zone(&[100]);
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        // A cached A answer does not answer an AAAA question.
        from_cache(&mut r, RecordType::A, t0);
        assert_eq!(from_cache(&mut r, RecordType::Aaaa, t0), None);
        // The NODATA answer is held for NEGATIVE_TTL, then re-asked.
        let negative = Duration::secs(NEGATIVE_TTL as u64);
        assert_eq!(
            from_cache(&mut r, RecordType::Aaaa, t0 + negative - Duration::secs(1)),
            Some(vec![])
        );
        assert_eq!(from_cache(&mut r, RecordType::Aaaa, t0 + negative), None);
    }

    #[test]
    fn nxdomain_is_never_cached() {
        let ns = namespace();
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        for secs in [0, 1] {
            let (trace, res) = r.resolve(
                &n("missing.apple.com"),
                RecordType::A,
                &ctx_at(t0 + Duration::secs(secs)),
            );
            assert!(matches!(res, Err(ResolutionError::NxDomain(_))));
            assert!(!trace.steps[0].from_cache);
        }
        assert_eq!(r.cache_stats(), (0, 2));
    }

    #[test]
    fn ttl_cap_bounds_inflated_records() {
        let ns = one_zone(&[u32::MAX]);
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        from_cache(&mut r, RecordType::A, t0);
        assert_eq!(
            from_cache(&mut r, RecordType::A, t0),
            Some(vec![MAX_CACHE_TTL])
        );
        // And the entry itself expires at the cap, not at u32::MAX.
        let cap = Duration::secs(MAX_CACHE_TTL as u64);
        assert_eq!(from_cache(&mut r, RecordType::A, t0 + cap), None);
    }

    #[test]
    fn flush_empties_the_cache_but_keeps_counters() {
        let ns = one_zone(&[100]);
        let mut r = RecursiveResolver::new(&ns);
        let t0 = SimTime::from_ymd(2017, 9, 15);
        from_cache(&mut r, RecordType::A, t0);
        assert!(from_cache(&mut r, RecordType::A, t0).is_some());
        r.flush();
        assert_eq!(from_cache(&mut r, RecordType::A, t0), None);
        assert_eq!(r.cache_stats(), (1, 2));
    }
}
