//! Authoritative zones with static records and dynamic mapping policies.

use crate::context::QueryContext;
use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A dynamic record source attached to a name in a zone.
///
/// This is the extension point through which the Meta-CDN is built: the CDN
/// selector at `appldnld.g.applimg.com`, the geo split at
/// `appldnld.apple.com.akadns.net`, and the GSLBs at
/// `{a|b}.gslb.applimg.com` are all `MappingPolicy` implementations
/// registered by the `metacdn` crate.
///
/// A policy answers into a reusable [`PolicyAnswer`] rather than building
/// records: the owner is always the policy's own name, and a CNAME points
/// at one of the targets declared with [`Zone::set_policy`], by index. The
/// interned engine resolves those targets to name ids once, at compile
/// time, so answering a query costs no name clones and no allocation.
pub trait MappingPolicy: Send + Sync {
    /// Writes the answer for `qtype` under `ctx` into `out`, which the
    /// caller hands over empty. Leaving it empty yields a NODATA answer
    /// (the observed behaviour of Apple's mapping for AAAA queries).
    fn respond(&self, qtype: RecordType, ctx: &QueryContext, out: &mut PolicyAnswer);
}

impl<F> MappingPolicy for F
where
    F: Fn(RecordType, &QueryContext, &mut PolicyAnswer) + Send + Sync,
{
    fn respond(&self, qtype: RecordType, ctx: &QueryContext, out: &mut PolicyAnswer) {
        self(qtype, ctx, out)
    }
}

/// One mapping-policy answer: a TTL shared by every record, an optional
/// CNAME given as an index into the policy's declared targets, and A
/// addresses. Materialized in that order — the CNAME first, then one A
/// record per address — with the policy's own name as every owner.
#[derive(Debug, Default)]
pub struct PolicyAnswer {
    ttl: u32,
    cname: Option<usize>,
    addrs: Vec<Ipv4Addr>,
}

impl PolicyAnswer {
    /// Empties the answer, keeping the address buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.ttl = 0;
        self.cname = None;
        self.addrs.clear();
    }

    /// Answers with a CNAME to the policy's `target`-th declared target.
    pub fn cname(&mut self, target: usize, ttl: u32) {
        self.cname = Some(target);
        self.ttl = ttl;
    }

    /// Answers with A records of `ttl`: returns the address buffer to
    /// fill.
    pub fn a(&mut self, ttl: u32) -> &mut Vec<Ipv4Addr> {
        self.ttl = ttl;
        &mut self.addrs
    }

    /// The TTL of every record in the answer.
    pub(crate) fn ttl(&self) -> u32 {
        self.ttl
    }

    /// The A-record addresses, in answer order.
    pub(crate) fn addrs(&self) -> &[Ipv4Addr] {
        &self.addrs
    }

    /// The declared target the CNAME points at, resolved through
    /// `targets` (names or ids). Panics, naming the policy's `owner`, if
    /// the index lies outside the declared targets.
    pub(crate) fn cname_in<'t, T>(&self, owner: &Name, targets: &'t [T]) -> Option<&'t T> {
        self.cname.map(|i| {
            targets.get(i).unwrap_or_else(|| {
                panic!(
                    "mapping policy at {owner} answered CNAME target #{i}, \
                     but declared {} target(s)",
                    targets.len()
                )
            })
        })
    }
}

/// How much of the [`QueryContext`] a name's answer actually depends on —
/// the contract that makes per-round answer memoization sound.
///
/// Static records depend on nothing and are implicitly [`Global`]
/// (`PolicyScope::Global`). Dynamic policies default to the conservative
/// [`Client`](PolicyScope::Client) (never memoized); a policy registered
/// through [`Zone::set_policy_scoped`] *declares* a broader scope, promising
/// that two queries agreeing on the scope's inputs (and on `now`, which is
/// fixed within a round) receive identical records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyScope {
    /// The answer is the same for every client (static records, fixed
    /// CNAMEs, the China/India divert targets).
    Global,
    /// The answer depends only on the client's city (`ctx.locode`), not on
    /// its address — e.g. the Akamai geo split.
    City,
    /// The answer may depend on the full context, including `client_ip`
    /// (selectors, GSLBs, load-balancer rotations). Never memoized.
    Client,
}

/// Key for the static record map: owner name + record type wire value.
type RecordKey = (Name, u16);

/// A mapping policy as registered at one owner name.
struct PolicyEntry {
    policy: Arc<dyn MappingPolicy>,
    /// The names the policy may answer a CNAME to, by index.
    targets: Vec<Name>,
    scope: PolicyScope,
}

/// One authoritative zone.
pub struct Zone {
    origin: Name,
    records: HashMap<RecordKey, Vec<ResourceRecord>>,
    names: HashMap<Name, ()>,
    policies: HashMap<Name, PolicyEntry>,
}

impl std::fmt::Debug for Zone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Zone")
            .field("origin", &self.origin)
            .field(
                "static_records",
                &self.records.values().map(Vec::len).sum::<usize>(),
            )
            .field("policies", &self.policies.len())
            .finish()
    }
}

impl Zone {
    /// An empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Zone {
        Zone {
            origin,
            records: HashMap::new(),
            names: HashMap::new(),
            policies: HashMap::new(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Adds a static record. The owner must lie within the zone.
    pub fn add(&mut self, rr: ResourceRecord) {
        assert!(
            rr.name.is_within(&self.origin),
            "{} outside zone {}",
            rr.name,
            self.origin
        );
        self.names.insert(rr.name.clone(), ());
        self.records
            .entry((rr.name.clone(), rr.rtype().to_u16()))
            .or_default()
            .push(rr);
    }

    /// Convenience: adds a static CNAME.
    pub fn add_cname(&mut self, owner: &str, target: &str, ttl: u32) {
        let owner = Name::parse(owner).expect("valid owner name");
        let target = Name::parse(target).expect("valid target name");
        self.add(ResourceRecord::new(owner, ttl, RData::Cname(target)));
    }

    /// Convenience: adds a static A record.
    pub fn add_a(&mut self, owner: &str, addr: std::net::Ipv4Addr, ttl: u32) {
        let owner = Name::parse(owner).expect("valid owner name");
        self.add(ResourceRecord::new(owner, ttl, RData::A(addr)));
    }

    /// Attaches a dynamic policy at `owner` (replacing any previous one).
    /// `targets` are the names its answers may CNAME to, addressed by
    /// index through [`PolicyAnswer::cname`]. The policy gets the
    /// conservative [`PolicyScope::Client`] scope.
    pub fn set_policy(&mut self, owner: Name, targets: Vec<Name>, policy: Arc<dyn MappingPolicy>) {
        self.set_policy_scoped(owner, targets, policy, PolicyScope::Client);
    }

    /// Attaches a dynamic policy at `owner` declaring how much of the
    /// query context its answers depend on (see [`PolicyScope`]). Declaring
    /// anything broader than `Client` is a promise the caller must keep:
    /// the per-round memo will replay one client's answer to another.
    pub fn set_policy_scoped(
        &mut self,
        owner: Name,
        targets: Vec<Name>,
        policy: Arc<dyn MappingPolicy>,
        scope: PolicyScope,
    ) {
        assert!(
            owner.is_within(&self.origin),
            "{} outside zone {}",
            owner,
            self.origin
        );
        self.names.insert(owner.clone(), ());
        self.policies.insert(
            owner,
            PolicyEntry {
                policy,
                targets,
                scope,
            },
        );
    }

    /// The declared scope of answers at `qname`: the policy's declared
    /// scope if a policy is attached, otherwise [`PolicyScope::Global`]
    /// (static records and existence facts depend on no context).
    pub fn scope_of(&self, qname: &Name) -> PolicyScope {
        self.policies
            .get(qname)
            .map_or(PolicyScope::Global, |p| p.scope)
    }

    /// Whether any record or policy exists at `name` (for NXDOMAIN vs NODATA).
    fn name_exists(&self, name: &Name) -> bool {
        self.names.contains_key(name)
    }

    /// Public form of the existence check, for snapshot compilers that
    /// replicate the zone's NXDOMAIN/NODATA split outside this module.
    pub fn contains_name(&self, name: &Name) -> bool {
        self.name_exists(name)
    }

    /// Iterates the static record sets as `(owner, wire qtype, records)`.
    /// Iteration order is unspecified (callers that need determinism sort
    /// by the key, as [`Zone::static_records`] does).
    pub fn record_sets(&self) -> impl Iterator<Item = (&Name, u16, &[ResourceRecord])> {
        self.records
            .iter()
            .map(|((name, qtype), rrs)| (name, *qtype, rrs.as_slice()))
    }

    /// Iterates `(owner, policy, declared CNAME targets)` for every
    /// dynamic mapping policy. Iteration order is unspecified.
    pub fn policy_entries(&self) -> impl Iterator<Item = (&Name, &dyn MappingPolicy, &[Name])> {
        self.policies
            .iter()
            .map(|(owner, p)| (owner, &*p.policy, p.targets.as_slice()))
    }

    /// All static records, in deterministic (name, type) order.
    pub fn static_records(&self) -> Vec<&ResourceRecord> {
        let mut keys: Vec<&RecordKey> = self.records.keys().collect();
        keys.sort();
        keys.iter().flat_map(|k| self.records[k].iter()).collect()
    }

    /// Names carrying dynamic policies, sorted.
    pub fn policy_names(&self) -> Vec<&Name> {
        let mut names: Vec<&Name> = self.policies.keys().collect();
        names.sort();
        names
    }

    /// Renders a zone-file-style listing: static records in master-file
    /// syntax, dynamic mapping policies as annotated comments (they have no
    /// static representation — which is rather the point of a Meta-CDN).
    pub fn to_zonefile(&self) -> String {
        let mut out = String::new();
        self.write_zonefile(&mut out)
            .expect("fmt::Write to String cannot fail");
        out
    }

    /// Streams the zone-file listing into `out`. Each record renders
    /// directly through the writer, so callers with a reusable buffer pay
    /// no intermediate per-line allocations.
    pub fn write_zonefile<W: core::fmt::Write>(&self, out: &mut W) -> core::fmt::Result {
        writeln!(out, "$ORIGIN {}.", self.origin)?;
        for rr in self.static_records() {
            writeln!(out, "{rr}")?;
        }
        for name in self.policy_names() {
            writeln!(out, "; {name} -> [dynamic mapping policy]")?;
        }
        Ok(())
    }

    /// Answers a question this zone is authoritative for.
    pub fn answer(&self, qname: &Name, qtype: RecordType, ctx: &QueryContext) -> ZoneAnswer {
        // Dynamic policy takes precedence: it is the zone's mapping function.
        if let Some(p) = self.policies.get(qname) {
            let mut ans = PolicyAnswer::default();
            p.policy.respond(qtype, ctx, &mut ans);
            let ttl = ans.ttl();
            let cname = ans.cname_in(qname, &p.targets);
            let rrs = cname
                .map(|t| ResourceRecord::new(qname.clone(), ttl, RData::Cname(t.clone())))
                .into_iter()
                .chain(
                    ans.addrs()
                        .iter()
                        .map(|a| ResourceRecord::new(qname.clone(), ttl, RData::A(*a))),
                )
                .collect();
            return ZoneAnswer::Records(rrs);
        }
        if let Some(rrs) = self.records.get(&(qname.clone(), qtype.to_u16())) {
            return ZoneAnswer::Records(rrs.clone());
        }
        // CNAME applies to every type except itself.
        if qtype != RecordType::Cname {
            if let Some(cnames) = self
                .records
                .get(&(qname.clone(), RecordType::Cname.to_u16()))
            {
                return ZoneAnswer::Records(cnames.clone());
            }
        }
        if self.name_exists(qname) {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::NxDomain
        }
    }
}

/// Outcome of asking a zone one question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Records to return (possibly a CNAME redirect; possibly empty, which
    /// callers should treat as NODATA).
    Records(Vec<ResourceRecord>),
    /// The name exists but has no records of the asked type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
}

/// The collection of all authoritative zones in the simulated Internet.
#[derive(Debug, Default)]
pub struct Namespace {
    zones: Vec<Zone>,
}

impl Namespace {
    /// An empty namespace.
    pub fn new() -> Namespace {
        Namespace::default()
    }

    /// Installs a zone.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.push(zone);
    }

    /// Mutable access to the zone with exactly this origin.
    pub fn zone_mut(&mut self, origin: &Name) -> Option<&mut Zone> {
        self.zones.iter_mut().find(|z| z.origin() == origin)
    }

    /// The most specific zone containing `name`, mirroring DNS delegation.
    pub fn authority_for(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_within(z.origin()))
            .max_by_key(|z| z.origin().label_count())
    }

    /// Answers `qname`/`qtype`, also reporting which zone answered.
    pub fn query(
        &self,
        qname: &Name,
        qtype: RecordType,
        ctx: &QueryContext,
    ) -> (ZoneAnswer, Option<&Name>) {
        match self.authority_for(qname) {
            Some(zone) => (zone.answer(qname, qtype, ctx), Some(zone.origin())),
            None => (ZoneAnswer::NxDomain, None),
        }
    }

    /// The declared answer scope at `name`: the authoritative zone's
    /// [`Zone::scope_of`], or [`PolicyScope::Global`] when no zone is
    /// authoritative (NXDOMAIN is the same for everyone — though the memo
    /// never stores error answers anyway).
    pub fn scope_of(&self, name: &Name) -> PolicyScope {
        self.authority_for(name)
            .map_or(PolicyScope::Global, |z| z.scope_of(name))
    }

    /// Number of installed zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// The installed zones, in installation order (the order
    /// [`Namespace::authority_for`] breaks label-count ties in).
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::{Continent, Coord, Locode, SimTime};
    use std::net::Ipv4Addr;

    fn ctx() -> QueryContext {
        QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, 7),
            locode: Locode::parse("defra").unwrap(),
            coord: Coord::new(50.1, 8.7),
            continent: Continent::Europe,
            now: SimTime::from_ymd(2017, 9, 15),
        }
    }

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn static_records_and_nodata_nxdomain() {
        let mut z = Zone::new(n("apple.com"));
        z.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        // A query hits the CNAME.
        match z.answer(&n("appldnld.apple.com"), RecordType::A, &ctx()) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert_eq!(rrs[0].ttl, 21600);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The name exists, so an unsupported type at it that has a CNAME
        // still follows the CNAME; a name without records is NXDOMAIN.
        assert_eq!(
            z.answer(&n("nothere.apple.com"), RecordType::A, &ctx()),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn nodata_for_typed_miss_without_cname() {
        let mut z = Zone::new(n("apple.com"));
        z.add_a("mesu.apple.com", Ipv4Addr::new(17, 1, 1, 1), 300);
        assert_eq!(
            z.answer(&n("mesu.apple.com"), RecordType::Txt, &ctx()),
            ZoneAnswer::NoData
        );
    }

    #[test]
    fn cname_query_returns_cname_itself() {
        let mut z = Zone::new(n("apple.com"));
        z.add_cname("appldnld.apple.com", "x.akadns.net", 100);
        match z.answer(&n("appldnld.apple.com"), RecordType::Cname, &ctx()) {
            ZoneAnswer::Records(rrs) => assert_eq!(rrs[0].rtype(), RecordType::Cname),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn record_outside_zone_rejected() {
        let mut z = Zone::new(n("apple.com"));
        z.add_cname("example.org", "x.akadns.net", 100);
    }

    #[test]
    fn policy_overrides_statics_and_sees_context() {
        let mut z = Zone::new(n("applimg.com"));
        z.add_a("appldnld.g.applimg.com", Ipv4Addr::new(9, 9, 9, 9), 15);
        z.set_policy(
            n("appldnld.g.applimg.com"),
            vec![n("a.gslb.applimg.com"), n("b.gslb.applimg.com")],
            Arc::new(
                |qtype: RecordType, ctx: &QueryContext, out: &mut PolicyAnswer| {
                    if qtype != RecordType::A {
                        return; // IPv4-only mapping, like the paper observed
                    }
                    let target = match ctx.continent {
                        Continent::Europe => 0,
                        _ => 1,
                    };
                    out.cname(target, 15);
                },
            ),
        );
        match z.answer(&n("appldnld.g.applimg.com"), RecordType::A, &ctx()) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(
                    rrs,
                    vec![ResourceRecord::new(
                        n("appldnld.g.applimg.com"),
                        15,
                        RData::Cname(n("a.gslb.applimg.com")),
                    )],
                    "the policy's own name owns the record",
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // AAAA yields an empty (NODATA-like) answer through the policy.
        match z.answer(&n("appldnld.g.applimg.com"), RecordType::Aaaa, &ctx()) {
            ZoneAnswer::Records(rrs) => assert!(rrs.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn policy_addresses_follow_the_cname_under_one_ttl() {
        let mut z = Zone::new(n("applimg.com"));
        z.set_policy(
            n("a.gslb.applimg.com"),
            vec![n("b.gslb.applimg.com")],
            Arc::new(|_: RecordType, _: &QueryContext, out: &mut PolicyAnswer| {
                out.cname(0, 20);
                out.a(20)
                    .extend([Ipv4Addr::new(17, 253, 1, 1), Ipv4Addr::new(17, 253, 1, 2)]);
            }),
        );
        let owner = n("a.gslb.applimg.com");
        let expected = vec![
            ResourceRecord::new(owner.clone(), 20, RData::Cname(n("b.gslb.applimg.com"))),
            ResourceRecord::new(owner.clone(), 20, RData::A(Ipv4Addr::new(17, 253, 1, 1))),
            ResourceRecord::new(owner.clone(), 20, RData::A(Ipv4Addr::new(17, 253, 1, 2))),
        ];
        assert_eq!(
            z.answer(&owner, RecordType::A, &ctx()),
            ZoneAnswer::Records(expected)
        );
    }

    #[test]
    #[should_panic(expected = "mapping policy at rogue.applimg.com answered CNAME target #2")]
    fn cname_index_outside_declared_targets_panics() {
        let mut z = Zone::new(n("applimg.com"));
        z.set_policy(
            n("rogue.applimg.com"),
            vec![n("a.gslb.applimg.com"), n("b.gslb.applimg.com")],
            Arc::new(|_: RecordType, _: &QueryContext, out: &mut PolicyAnswer| out.cname(2, 15)),
        );
        let _ = z.answer(&n("rogue.applimg.com"), RecordType::A, &ctx());
    }

    #[test]
    fn namespace_picks_most_specific_zone() {
        let mut ns = Namespace::new();
        ns.add_zone(Zone::new(n("apple.com")));
        let mut akadns = Zone::new(n("apple.com.akadns.net"));
        akadns.add_cname(
            "appldnld.apple.com.akadns.net",
            "appldnld.g.applimg.com",
            120,
        );
        ns.add_zone(akadns);
        let (ans, origin) = ns.query(&n("appldnld.apple.com.akadns.net"), RecordType::A, &ctx());
        assert_eq!(origin, Some(&n("apple.com.akadns.net")));
        assert!(matches!(ans, ZoneAnswer::Records(_)));
        // Unknown TLD → NXDOMAIN with no zone.
        let (ans, origin) = ns.query(&n("nowhere.invalid"), RecordType::A, &ctx());
        assert_eq!(ans, ZoneAnswer::NxDomain);
        assert_eq!(origin, None);
    }
}

#[cfg(test)]
mod zonefile_tests {
    use super::*;
    use mcdn_dnswire::Name;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    #[test]
    fn zonefile_lists_statics_and_policies() {
        let mut z = Zone::new(Name::parse("applimg.com").unwrap());
        z.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        z.add_cname("alias.applimg.com", "a.gslb.applimg.com", 60);
        z.set_policy(
            Name::parse("appldnld.g.applimg.com").unwrap(),
            Vec::new(),
            Arc::new(|_: mcdn_dnswire::RecordType, _: &QueryContext, _: &mut PolicyAnswer| {}),
        );
        let text = z.to_zonefile();
        assert!(text.starts_with("$ORIGIN applimg.com.\n"));
        assert!(text.contains("a.gslb.applimg.com 20 IN A 17.253.1.1"));
        assert!(text.contains("alias.applimg.com 60 IN CNAME a.gslb.applimg.com"));
        assert!(text.contains("; appldnld.g.applimg.com -> [dynamic mapping policy]"));
    }

    #[test]
    fn write_zonefile_reuses_caller_buffer() {
        let mut z = Zone::new(Name::parse("applimg.com").unwrap());
        z.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        let mut buf = String::with_capacity(256);
        z.write_zonefile(&mut buf).unwrap();
        assert_eq!(buf, z.to_zonefile());
        // A second render into the same buffer appends after the first —
        // the writer owns placement, the zone never allocates a String.
        let first_len = buf.len();
        z.write_zonefile(&mut buf).unwrap();
        assert_eq!(buf.len(), 2 * first_len);
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut z = Zone::new(Name::parse("x.test").unwrap());
            for i in 0..20u8 {
                z.add_a(&format!("h{i}.x.test"), Ipv4Addr::new(10, 0, 0, i), 60);
            }
            z.to_zonefile()
        };
        assert_eq!(build(), build());
    }
}
