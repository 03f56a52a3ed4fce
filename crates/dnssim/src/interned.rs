//! The interned, zero-allocation resolution engine — the workspace's
//! only resolver.
//!
//! Keying caches, memos and traces by [`Name`] would clone names on every
//! hop of every resolution. This module compiles a [`Namespace`] into an
//! id-keyed form once and runs the whole resolution loop on `u32`
//! [`NameId`]s:
//!
//! * [`CompiledNamespace`] interns every name the namespace can mention
//!   into a shared [`NameTable`] and precomputes, per name, its
//!   authoritative zone, declared [`PolicyScope`], existence bit, and
//!   display-form FNV-1a digest (the fault-key prefix). Static record
//!   sets become flat arena slices; dynamic [`MappingPolicy`] hooks are
//!   kept as borrowed trait objects beside their declared CNAME targets,
//!   resolved to ids, so a policy's [`PolicyAnswer`] turns into
//!   [`IRecord`]s without touching a name.
//! * [`InternedResolver`] runs the resolution decision sequence — cache,
//!   fault hook, mutation hook, memo, authoritative query, bailiwick
//!   filter — against id-keyed structures, writing answers and trace
//!   steps into a caller-owned [`ResolveScratch`] instead of allocating.
//!   Once its per-probe [`ICache`] and the scratch buffers are warm, a
//!   resolution performs **zero heap allocations**, whether its hops hit
//!   the cache or reach the mapping policies (the warm and cold audits in
//!   `bench_campaigns` assert both).
//! * [`IRoundMemo`] memoizes one round's scope-stable answers per shard
//!   under [`IMemoKey`]s. Only compiled-table names are memoized, so a
//!   key means the same question in every shard and the engine's
//!   cross-shard counter merge (and therefore output) does not depend on
//!   the thread count.
//!
//! Names leave the engine only at the edges:
//! [`CompiledNamespace::materialize_trace`] and
//! [`CompiledNamespace::materialize_err`] render a resolution back to a
//! [`ResolutionTrace`] and [`ResolutionError`], which is all the
//! name-keyed [`RecursiveResolver`](crate::RecursiveResolver) adapter
//! does on top of this engine.
//!
//! Names that are *not* in the compiled table (a caller querying a name
//! the namespace never mentions) spill into a per-scratch overlay
//! interner; the workspace namespaces intern everything at compile time,
//! so the overlay stays empty on the hot path. Overlay ids are
//! shard-local, so the resolver never memoizes an overlay name.
//!
//! The campaign-level output is pinned by frozen digests in
//! `mcdn-scenario`; resolution behaviour is pinned by the tests here and
//! in [`crate::resolver`].

use crate::cache::{MAX_CACHE_TTL, NEGATIVE_TTL};
use crate::context::QueryContext;
use crate::faults::UpstreamFault;
use crate::memo::{IMemoKey, MemoScope};
use crate::mutation::{
    apply_itamper, BailiwickPolicy, ITamper, InternedMutationModel, NoInternedMutations,
};
use crate::resolver::{ResolutionError, ResolutionTrace, TraceStep, MAX_CHAIN};
use crate::zone::{MappingPolicy, Namespace, PolicyAnswer, PolicyScope, ZoneAnswer};
use mcdn_dnswire::{Name, RData, RecordType, ResourceRecord};
use mcdn_geo::{Duration, SimTime};
use mcdn_intern::{display_fnv, FnvBuildHasher, NameId, NameTable};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Interned record data: the two variants the resolver inspects, plus an
/// opaque catch-all carrying the wire type (enough for terminal-answer
/// checks; the payload of non-A/CNAME records is never read on the hot
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IRData {
    /// An IPv4 address record.
    A(Ipv4Addr),
    /// A CNAME redirect to another interned name.
    Cname(NameId),
    /// An NS delegation to another interned name (carried structurally so
    /// bailiwick audits can see injected delegations; never chased).
    Ns(NameId),
    /// Any other record type, by wire value.
    Opaque(u16),
}

/// An interned resource record. `Copy`, so answer buffers and arenas
/// move records without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IRecord {
    /// Owner name.
    pub name: NameId,
    /// Time to live, seconds.
    pub ttl: u32,
    /// The record data.
    pub rdata: IRData,
}

impl IRecord {
    /// The record type's wire value (A = 1, CNAME = 5, else the stored
    /// opaque value).
    pub fn rtype_u16(&self) -> u16 {
        match self.rdata {
            IRData::A(_) => RecordType::A.to_u16(),
            IRData::Cname(_) => RecordType::Cname.to_u16(),
            IRData::Ns(_) => RecordType::Ns.to_u16(),
            IRData::Opaque(t) => t,
        }
    }
}

/// Per-name facts precomputed at compile time (and lazily for overlay
/// names): which zone answers for it, how its answers scope, and whether
/// it exists there (NXDOMAIN vs NODATA).
#[derive(Debug, Clone, Copy)]
struct CompiledMeta {
    /// Index into [`CompiledNamespace::zones`] of the authoritative zone.
    authority: Option<u16>,
    /// Declared answer scope at this name ([`Zone::scope_of`](crate::Zone::scope_of)).
    scope: PolicyScope,
    /// Whether the authoritative zone has any record or policy here.
    exists: bool,
}

/// A mapping policy in compiled form: the borrowed hook plus its declared
/// CNAME targets, resolved to ids once.
struct CompiledPolicy<'a> {
    policy: &'a dyn MappingPolicy,
    targets: Vec<NameId>,
}

/// One zone in compiled form: statics as arena slices, policies as
/// borrowed hooks.
struct CompiledZone<'a> {
    /// Interned zone origin.
    origin: NameId,
    /// Dynamic mapping policies by interned owner id.
    policies: HashMap<u32, CompiledPolicy<'a>, FnvBuildHasher>,
    /// Static record sets: `(owner id, wire qtype) → arena range`.
    statics: HashMap<(u32, u16), (u32, u32), FnvBuildHasher>,
    /// Backing storage for all static record sets.
    arena: Vec<IRecord>,
}

/// Internal query outcome; records (for the `Records` case) are written
/// into the caller's buffer.
enum IAnswer {
    Records,
    NoData,
    NxDomain,
}

/// The result of replicating [`Namespace::authority_for`]: index of the
/// most specific zone, breaking label-count ties like
/// `Iterator::max_by_key` (last maximum wins).
fn authority_index(ns: &Namespace, name: &Name) -> Option<u16> {
    let mut best: Option<(usize, usize)> = None;
    for (i, z) in ns.zones().iter().enumerate() {
        if name.is_within(z.origin()) {
            let labels = z.origin().label_count();
            let better = match best {
                Some((best_labels, _)) => labels >= best_labels,
                None => true,
            };
            if better {
                best = Some((labels, i));
            }
        }
    }
    best.map(|(_, i)| i as u16)
}

fn meta_for(ns: &Namespace, name: &Name) -> CompiledMeta {
    let authority = authority_index(ns, name);
    let (scope, exists) = match authority {
        Some(i) => {
            let z = &ns.zones()[i as usize];
            (z.scope_of(name), z.contains_name(name))
        }
        None => (PolicyScope::Global, false),
    };
    CompiledMeta {
        authority,
        scope,
        exists,
    }
}

/// Overflow interner for names outside the compiled table, owned by a
/// [`ResolveScratch`]. Ids continue past the table (`table.len() + i`).
/// The workspace namespaces intern everything at compile time, so this
/// stays empty in the campaign engine; it exists so arbitrary queries
/// (tests, ad-hoc probes) remain correct rather than panicking.
#[derive(Debug, Default)]
pub struct Overlay {
    ids: HashMap<Name, u32, FnvBuildHasher>,
    names: Vec<Name>,
    fnvs: Vec<u64>,
    meta: Vec<CompiledMeta>,
}

impl Overlay {
    /// Names interned past the shared table, in id order.
    pub fn names(&self) -> &[Name] {
        &self.names
    }
}

/// A namespace compiled for the interned hot path. Borrows the
/// [`Namespace`] (policies stay where they live); build one per campaign
/// and share it read-only across shards.
pub struct CompiledNamespace<'a> {
    ns: &'a Namespace,
    table: NameTable,
    meta: Vec<CompiledMeta>,
    zones: Vec<CompiledZone<'a>>,
}

impl std::fmt::Debug for CompiledNamespace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledNamespace")
            .field("names", &self.table.len())
            .field("zones", &self.zones.len())
            .finish()
    }
}

fn compiled_rr(table: &NameTable, rr: &ResourceRecord) -> IRecord {
    let name = table
        .get(&rr.name)
        .expect("owner interned during compile pass 1");
    let rdata = match &rr.rdata {
        RData::A(a) => IRData::A(*a),
        RData::Cname(t) => {
            IRData::Cname(table.get(t).expect("target interned during compile pass 1"))
        }
        RData::Ns(t) => IRData::Ns(table.get(t).expect("target interned during compile pass 1")),
        other => IRData::Opaque(other.rtype().to_u16()),
    };
    IRecord {
        name,
        ttl: rr.ttl,
        rdata,
    }
}

impl<'a> CompiledNamespace<'a> {
    /// Compiles `ns`: interns every origin, record owner, CNAME target,
    /// policy owner and declared policy target, then freezes static record
    /// sets into per-zone arenas and precomputes per-name
    /// authority/scope/existence/FNV.
    pub fn compile(ns: &'a Namespace) -> CompiledNamespace<'a> {
        Self::compile_with_extra(ns, &[])
    }

    /// [`CompiledNamespace::compile`] with extra names interned into the
    /// shared table after the namespace's own (deterministic ids, so
    /// cache export/restore stays valid). Adversarial campaigns intern
    /// the attacker owner names here so injected records never touch the
    /// per-scratch overlay on the hot path.
    pub fn compile_with_extra(ns: &'a Namespace, extra: &[Name]) -> CompiledNamespace<'a> {
        let mut table = NameTable::new();
        // Pass 1: intern, in a deterministic order (zone installation
        // order, then sorted record-set keys / policy owners — the
        // underlying maps iterate in arbitrary order).
        for zone in ns.zones() {
            table.intern(zone.origin());
            let mut sets: Vec<(&Name, u16, &[ResourceRecord])> = zone.record_sets().collect();
            sets.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
            for (name, _, rrs) in &sets {
                table.intern(name);
                for rr in *rrs {
                    match &rr.rdata {
                        RData::Cname(target) | RData::Ns(target) => {
                            table.intern(target);
                        }
                        _ => {}
                    }
                }
            }
            let mut owners: Vec<&Name> = zone.policy_entries().map(|(n, _, _)| n).collect();
            owners.sort();
            for owner in owners {
                table.intern(owner);
            }
        }
        for name in extra {
            table.intern(name);
        }
        // Declared policy targets go last, so declaring a target never
        // shifts another name's id: a target already named elsewhere (as
        // every workspace target is) keeps its id and adds nothing.
        for zone in ns.zones() {
            let mut policies: Vec<(&Name, &[Name])> = zone
                .policy_entries()
                .map(|(owner, _, targets)| (owner, targets))
                .collect();
            policies.sort_by_key(|&(owner, _)| owner);
            for target in policies.into_iter().flat_map(|(_, targets)| targets) {
                table.intern(target);
            }
        }
        table.shrink_to_fit();
        // Pass 2: freeze each zone.
        let zones: Vec<CompiledZone<'a>> = ns
            .zones()
            .iter()
            .map(|zone| {
                let origin = table.get(zone.origin()).expect("origin interned");
                let mut sets: Vec<(&Name, u16, &[ResourceRecord])> = zone.record_sets().collect();
                sets.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
                let mut arena = Vec::with_capacity(sets.iter().map(|(_, _, rrs)| rrs.len()).sum());
                let mut statics = HashMap::with_capacity_and_hasher(sets.len(), FnvBuildHasher);
                for (name, qtype, rrs) in sets {
                    let id = table.get(name).expect("owner interned");
                    let start = arena.len() as u32;
                    arena.extend(rrs.iter().map(|rr| compiled_rr(&table, rr)));
                    statics.insert((id.0, qtype), (start, arena.len() as u32));
                }
                let policies = zone
                    .policy_entries()
                    .map(|(name, policy, targets)| {
                        let targets = targets
                            .iter()
                            .map(|t| table.get(t).expect("policy target interned"))
                            .collect();
                        (
                            table.get(name).expect("owner interned").0,
                            CompiledPolicy { policy, targets },
                        )
                    })
                    .collect();
                CompiledZone {
                    origin,
                    policies,
                    statics,
                    arena,
                }
            })
            .collect();
        // Pass 3: per-name metadata.
        let meta = table.iter().map(|(_, name)| meta_for(ns, name)).collect();
        CompiledNamespace {
            ns,
            table,
            meta,
            zones,
        }
    }

    /// The shared name table (read-only after compile).
    pub fn table(&self) -> &NameTable {
        &self.table
    }

    /// The namespace this was compiled from.
    pub fn namespace(&self) -> &'a Namespace {
        self.ns
    }

    /// The id for `name`, interning into the scratch overlay if the
    /// compiled table does not know it.
    pub fn intern_in(&self, scratch: &mut ResolveScratch, name: &Name) -> NameId {
        self.id_of(&mut scratch.overlay, name)
    }

    fn id_of(&self, overlay: &mut Overlay, name: &Name) -> NameId {
        if let Some(id) = self.table.get(name) {
            return id;
        }
        let base = self.table.len() as u32;
        if let Some(&off) = overlay.ids.get(name) {
            return NameId(base + off);
        }
        let off = overlay.names.len() as u32;
        overlay.ids.insert(name.clone(), off);
        overlay.names.push(name.clone());
        overlay.fnvs.push(display_fnv(name));
        overlay.meta.push(meta_for(self.ns, name));
        NameId(base + off)
    }

    fn meta_of(&self, overlay: &Overlay, id: NameId) -> CompiledMeta {
        let idx = id.index();
        if idx < self.table.len() {
            self.meta[idx]
        } else {
            overlay.meta[idx - self.table.len()]
        }
    }

    /// The FNV-1a digest of the name's display form (the fault-key
    /// prefix), precomputed at intern time.
    pub fn fnv_in(&self, scratch: &ResolveScratch, id: NameId) -> u64 {
        let idx = id.index();
        if idx < self.table.len() {
            self.table.fnv(id)
        } else {
            scratch.overlay.fnvs[idx - self.table.len()]
        }
    }

    /// The name behind `id`, whether table or overlay.
    pub fn name_in<'s>(&'s self, scratch: &'s ResolveScratch, id: NameId) -> &'s Name {
        self.name_of(&scratch.overlay, id)
    }

    /// [`CompiledNamespace::name_in`] against a bare overlay — lets the
    /// resolver borrow the overlay and the answer buffer of one scratch
    /// disjointly (bailiwick filtering reads names while retaining).
    fn name_of<'s>(&'s self, overlay: &'s Overlay, id: NameId) -> &'s Name {
        let idx = id.index();
        if idx < self.table.len() {
            self.table.name(id)
        } else {
            &overlay.names[idx - self.table.len()]
        }
    }

    fn runtime_rr(&self, overlay: &mut Overlay, rr: &ResourceRecord) -> IRecord {
        let name = self.id_of(overlay, &rr.name);
        let rdata = match &rr.rdata {
            RData::A(a) => IRData::A(*a),
            RData::Cname(t) => IRData::Cname(self.id_of(overlay, t)),
            RData::Ns(t) => IRData::Ns(self.id_of(overlay, t)),
            other => IRData::Opaque(other.rtype().to_u16()),
        };
        IRecord {
            name,
            ttl: rr.ttl,
            rdata,
        }
    }

    /// Replicates [`Namespace::query`] against the compiled form, writing
    /// any records into `scratch.answer`. A mapping policy answers into
    /// `scratch.policy`, and its records are emitted from there under the
    /// owner and target ids fixed at compile time.
    fn query_into(
        &self,
        scratch: &mut ResolveScratch,
        current: NameId,
        qtype: RecordType,
        ctx: &QueryContext,
    ) -> (IAnswer, Option<NameId>) {
        let ResolveScratch {
            overlay,
            answer: out,
            policy: ans,
            ..
        } = scratch;
        out.clear();
        let meta = self.meta_of(overlay, current);
        let Some(zi) = meta.authority else {
            return (IAnswer::NxDomain, None);
        };
        let zone = &self.zones[zi as usize];
        let origin = zone.origin;
        let idx = current.index();
        if idx < self.table.len() {
            if let Some(p) = zone.policies.get(&current.0) {
                ans.clear();
                p.policy.respond(qtype, ctx, ans);
                let ttl = ans.ttl();
                if let Some(&target) = ans.cname_in(self.table.name(current), &p.targets) {
                    out.push(IRecord {
                        name: current,
                        ttl,
                        rdata: IRData::Cname(target),
                    });
                }
                out.extend(ans.addrs().iter().map(|&a| IRecord {
                    name: current,
                    ttl,
                    rdata: IRData::A(a),
                }));
                return (IAnswer::Records, Some(origin));
            }
            if let Some(&(s, e)) = zone.statics.get(&(current.0, qtype.to_u16())) {
                out.extend_from_slice(&zone.arena[s as usize..e as usize]);
                return (IAnswer::Records, Some(origin));
            }
            if qtype != RecordType::Cname {
                if let Some(&(s, e)) = zone.statics.get(&(current.0, RecordType::Cname.to_u16())) {
                    out.extend_from_slice(&zone.arena[s as usize..e as usize]);
                    return (IAnswer::Records, Some(origin));
                }
            }
            if meta.exists {
                (IAnswer::NoData, Some(origin))
            } else {
                (IAnswer::NxDomain, Some(origin))
            }
        } else {
            // Overlay name: cold path through the name-keyed zone.
            let name = overlay.names[idx - self.table.len()].clone();
            match self.ns.zones()[zi as usize].answer(&name, qtype, ctx) {
                ZoneAnswer::Records(rrs) => {
                    for rr in &rrs {
                        let ir = self.runtime_rr(overlay, rr);
                        out.push(ir);
                    }
                    (IAnswer::Records, Some(origin))
                }
                ZoneAnswer::NoData => (IAnswer::NoData, Some(origin)),
                ZoneAnswer::NxDomain => (IAnswer::NxDomain, Some(origin)),
            }
        }
    }

    /// Renders an interned trace as a name-keyed [`ResolutionTrace`]
    /// (display edges, tests, debugging — allocates freely). Lossy
    /// only for non-A/CNAME rdata, which materializes as an empty
    /// `RData::Other` of the same wire type.
    pub fn materialize_trace(&self, scratch: &ResolveScratch, trace: &ITrace) -> ResolutionTrace {
        let steps = trace
            .steps()
            .iter()
            .map(|step| TraceStep {
                qname: self.name_in(scratch, step.qname).clone(),
                qtype: step.qtype,
                records: trace
                    .records_of(step)
                    .iter()
                    .map(|r| {
                        let rdata = match r.rdata {
                            IRData::A(a) => RData::A(a),
                            IRData::Cname(t) => RData::Cname(self.name_in(scratch, t).clone()),
                            IRData::Ns(t) => RData::Ns(self.name_in(scratch, t).clone()),
                            IRData::Opaque(t) => RData::Other(t, Vec::new()),
                        };
                        ResourceRecord::new(self.name_in(scratch, r.name).clone(), r.ttl, rdata)
                    })
                    .collect(),
                from_cache: step.from_cache,
                zone: step.zone.map(|z| self.name_in(scratch, z).clone()),
            })
            .collect();
        ResolutionTrace { steps }
    }

    /// Renders an interned resolution error with the names it refers to.
    pub fn materialize_err(
        &self,
        scratch: &ResolveScratch,
        e: IResolutionError,
    ) -> ResolutionError {
        let name = |id| self.name_in(scratch, id).clone();
        match e {
            IResolutionError::NxDomain(id) => ResolutionError::NxDomain(name(id)),
            IResolutionError::ChainTooLong => ResolutionError::ChainTooLong,
            IResolutionError::ServFail(id) => ResolutionError::ServFail(name(id)),
            IResolutionError::Timeout(id) => ResolutionError::Timeout(name(id)),
            IResolutionError::Truncated(id) => ResolutionError::Truncated(name(id)),
        }
    }
}

/// One step of an interned trace; records live in the trace's arena.
#[derive(Debug, Clone, Copy)]
pub struct ITraceStep {
    /// The name queried at this step.
    pub qname: NameId,
    /// The type queried.
    pub qtype: RecordType,
    rec_start: u32,
    rec_end: u32,
    /// Whether the answer came from the probe's cache.
    pub from_cache: bool,
    /// Origin of the answering zone (authoritative answers only).
    pub zone: Option<NameId>,
}

/// An interned resolution trace: steps plus a flat record arena, both
/// reused across resolutions.
#[derive(Debug, Default)]
pub struct ITrace {
    steps: Vec<ITraceStep>,
    records: Vec<IRecord>,
}

impl ITrace {
    fn clear(&mut self) {
        self.steps.clear();
        self.records.clear();
    }

    fn push(
        &mut self,
        qname: NameId,
        qtype: RecordType,
        records: &[IRecord],
        from_cache: bool,
        zone: Option<NameId>,
    ) {
        let rec_start = self.records.len() as u32;
        self.records.extend_from_slice(records);
        self.steps.push(ITraceStep {
            qname,
            qtype,
            rec_start,
            rec_end: self.records.len() as u32,
            from_cache,
            zone,
        });
    }

    /// The steps, in resolution order.
    pub fn steps(&self) -> &[ITraceStep] {
        &self.steps
    }

    /// The records answered at `step`.
    pub fn records_of(&self, step: &ITraceStep) -> &[IRecord] {
        &self.records[step.rec_start as usize..step.rec_end as usize]
    }

    /// Every A-record address in the trace, in step-then-record order —
    /// the interned [`ResolutionTrace::addresses`].
    pub fn addresses(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.records.iter().filter_map(|r| match r.rdata {
            IRData::A(a) => Some(a),
            _ => None,
        })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Caller-owned scratch state for interned resolution: the answer
/// buffer, the mapping-policy answer, the trace arena, and the overlay
/// interner. One per shard, reused across every probe and round — this
/// is what makes the resolution loop allocation-free.
#[derive(Debug, Default)]
pub struct ResolveScratch {
    overlay: Overlay,
    answer: Vec<IRecord>,
    policy: PolicyAnswer,
    trace: ITrace,
}

impl ResolveScratch {
    /// Fresh scratch state.
    pub fn new() -> ResolveScratch {
        ResolveScratch::default()
    }

    /// The trace of the most recent resolution.
    pub fn trace(&self) -> &ITrace {
        &self.trace
    }

    /// The overlay interner (names outside the compiled table).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }
}

#[derive(Debug, Clone)]
struct IEntry {
    records: Vec<IRecord>,
    expires: SimTime,
}

/// The per-probe TTL cache, keyed by `(name id, qtype)`: entries expire
/// at an absolute instant (the minimum record TTL, clamped to
/// [`MAX_CACHE_TTL`]; [`NEGATIVE_TTL`] for empty answers), and a hit
/// rewrites each record TTL to the remaining lifetime. Entry buffers are
/// reused on re-store, and the buffer of an entry dropped at expiry waits
/// on a free list for the next store, so a warm cache neither allocates
/// nor frees.
#[derive(Debug, Clone, Default)]
pub struct ICache {
    entries: HashMap<(u32, u16), IEntry, FnvBuildHasher>,
    /// Record buffers of expired entries, reused by the next new entry.
    /// Never exported: checkpoints see only `entries`.
    spare: Vec<Vec<IRecord>>,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// Looks up `id`/`qtype` at `now`, writing the records (TTLs clamped
    /// to the remaining lifetime) into `out` on a hit. Returns whether it
    /// hit.
    fn get_into(&mut self, id: NameId, qtype: u16, now: SimTime, out: &mut Vec<IRecord>) -> bool {
        let key = (id.0, qtype);
        match self.entries.get(&key) {
            Some(e) if now < e.expires => {
                self.hits += 1;
                mcdn_obs::record(mcdn_obs::id::CACHE_HITS, 1);
                let remaining = e.expires.since(now).as_secs() as u32;
                out.clear();
                out.extend(e.records.iter().map(|r| IRecord {
                    ttl: r.ttl.min(remaining),
                    ..*r
                }));
                true
            }
            _ => {
                self.misses += 1;
                mcdn_obs::record(mcdn_obs::id::CACHE_MISSES, 1);
                // Present but past expiry.
                if let Some(expired) = self.entries.remove(&key) {
                    mcdn_obs::record(mcdn_obs::id::CACHE_EXPIRED, 1);
                    self.spare.push(expired.records);
                }
                false
            }
        }
    }

    /// Stores an answer, returning the entry's effective TTL (the min
    /// clamped record TTL; [`NEGATIVE_TTL`] for empty answers) — the
    /// seconds until a lookup of this key flips back to a miss.
    fn put(&mut self, id: NameId, qtype: u16, records: &[IRecord], now: SimTime) -> u32 {
        // Inflated TTLs are capped on the way in, so they cannot pin
        // entries past the ceiling.
        let ttl = records
            .iter()
            .map(|r| r.ttl.min(MAX_CACHE_TTL))
            .min()
            .unwrap_or(NEGATIVE_TTL);
        let expires = now + Duration::secs(ttl as u64);
        match self.entries.entry((id.0, qtype)) {
            MapEntry::Occupied(mut o) => {
                let e = o.get_mut();
                e.records.clear();
                e.records.extend(records.iter().map(|r| IRecord {
                    ttl: r.ttl.min(MAX_CACHE_TTL),
                    ..*r
                }));
                e.expires = expires;
            }
            MapEntry::Vacant(v) => {
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.clear();
                buf.extend(records.iter().map(|r| IRecord {
                    ttl: r.ttl.min(MAX_CACHE_TTL),
                    ..*r
                }));
                v.insert(IEntry {
                    records: buf,
                    expires,
                });
            }
        }
        ttl
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of live plus expired entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[derive(Debug)]
struct IMemoEntry {
    start: u32,
    end: u32,
    zone: Option<NameId>,
    /// Queries served under this key, including the miss that stored it.
    lookups: u64,
}

/// One round's scope-stable answers, id-keyed, with a shared record
/// arena (see [`crate::memo`] for what is memoizable and why results are
/// bit-identical with the memo on or off). [`IRoundMemo::clear`] resets
/// it for the next round while keeping capacity; [`IRoundMemo::lookups`]
/// and [`IRoundMemo::keys`] are what the engine's cross-shard counter
/// merge reads, so every output is independent of the thread count.
#[derive(Debug, Default)]
pub struct IRoundMemo {
    entries: HashMap<IMemoKey, IMemoEntry, FnvBuildHasher>,
    arena: Vec<IRecord>,
}

impl IRoundMemo {
    /// An empty memo.
    pub fn new() -> IRoundMemo {
        IRoundMemo::default()
    }

    /// Resets for a new round, retaining allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.arena.clear();
    }

    fn replay_into(&mut self, key: &IMemoKey, out: &mut Vec<IRecord>) -> Option<Option<NameId>> {
        self.entries.get_mut(key).map(|e| {
            e.lookups += 1;
            out.clear();
            out.extend_from_slice(&self.arena[e.start as usize..e.end as usize]);
            e.zone
        })
    }

    fn store(&mut self, key: IMemoKey, records: &[IRecord], zone: Option<NameId>) {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(records);
        self.entries.insert(
            key,
            IMemoEntry {
                start,
                end: self.arena.len() as u32,
                zone,
                lookups: 1,
            },
        );
    }

    /// Number of distinct memoized answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total lookups of memoizable keys (hits plus storing misses).
    pub fn lookups(&self) -> u64 {
        self.entries.values().map(|e| e.lookups).sum()
    }

    /// Lookups served from the memo (this shard's local view).
    pub fn hits(&self) -> u64 {
        self.lookups() - self.entries.len() as u64
    }

    /// The keys memoized this round, for the engine's cross-shard union
    /// of distinct keys.
    pub fn keys(&self) -> impl Iterator<Item = IMemoKey> + '_ {
        self.entries.keys().copied()
    }
}

/// A resolution failure with id-typed names; see [`ResolutionError`]
/// for the rendered form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IResolutionError {
    /// A name in the chain does not exist.
    NxDomain(NameId),
    /// The CNAME chain exceeded [`MAX_CHAIN`] hops.
    ChainTooLong,
    /// The authoritative side failed (injected fault).
    ServFail(NameId),
    /// The query timed out (injected fault).
    Timeout(NameId),
    /// The answer arrived truncated/garbled (injected answer mutation).
    Truncated(NameId),
}

impl IResolutionError {
    /// Whether a retry could plausibly succeed — exactly
    /// [`ResolutionError::is_transient`].
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IResolutionError::ServFail(_)
                | IResolutionError::Timeout(_)
                | IResolutionError::Truncated(_)
        )
    }
}

/// The resolver's upstream fault hook, consulted before every
/// authoritative query (cache hits are never faulted — caches mask
/// authoritative outages, as in the real DNS). The resolver hands over
/// the precomputed display-FNV digests of the zone origin and query name,
/// so fault models derive stable keys without formatting anything.
/// Implementations must be pure functions of their inputs so campaigns
/// stay reproducible.
pub trait InternedFaultModel {
    /// Consulted once per authoritative query; returning a fault aborts
    /// the resolution with the corresponding transient error.
    fn upstream_fault(
        &self,
        zone: NameId,
        zone_fnv: u64,
        qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<UpstreamFault>;
}

/// The quiet fault model: never faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInternedFaults;

impl InternedFaultModel for NoInternedFaults {
    fn upstream_fault(
        &self,
        _zone: NameId,
        _zone_fnv: u64,
        _qname: NameId,
        _qname_fnv: u64,
        _ctx: &QueryContext,
        _attempt: u32,
    ) -> Option<UpstreamFault> {
        None
    }
}

impl<F> InternedFaultModel for F
where
    F: Fn(NameId, u64, NameId, u64, &QueryContext, u32) -> Option<UpstreamFault> + Send + Sync,
{
    fn upstream_fault(
        &self,
        zone: NameId,
        zone_fnv: u64,
        qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<UpstreamFault> {
        self(zone, zone_fnv, qname, qname_fnv, ctx, attempt)
    }
}

/// The recursive resolver: cache → fault hook → mutation hook → memo →
/// authoritative query → bailiwick filter, chasing CNAMEs up to
/// [`MAX_CHAIN`] hops (NXDOMAIN is never cached or memoized). Owns the
/// per-probe [`ICache`]; everything else comes in through the
/// [`ResolveScratch`].
#[derive(Debug, Clone, Default)]
pub struct InternedResolver {
    cache: ICache,
}

/// One exported cache cell: `(name id, qtype, absolute expiry, records)`.
/// See [`InternedResolver::cache_export`].
pub type ICacheExportEntry = (u32, u16, SimTime, Vec<IRecord>);

impl InternedResolver {
    /// A resolver with an empty cache.
    pub fn new() -> InternedResolver {
        InternedResolver::default()
    }

    /// Resolves `qname`/`qtype`, leaving the trace in `scratch.trace()`.
    /// Once the cache and scratch buffers are warm this performs zero heap
    /// allocations, on cache hits and misses alike.
    #[allow(clippy::too_many_arguments)] // the fault-and-memo face of resolve_inner
    pub fn resolve(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn InternedFaultModel,
        attempt: u32,
        memo: Option<&mut IRoundMemo>,
    ) -> Result<(), IResolutionError> {
        self.resolve_inner(
            ns,
            scratch,
            qname,
            qtype,
            ctx,
            faults,
            &NoInternedMutations,
            BailiwickPolicy::Enforce,
            attempt,
            memo,
        )
    }

    /// The full adversarial entry point: fault model, answer-mutation
    /// model, explicit [`BailiwickPolicy`], optional memo. A tampered
    /// query bypasses the memo, so replayed answers are always untampered
    /// authoritative ones. [`InternedResolver::resolve`] is this with
    /// [`NoInternedMutations`] and [`BailiwickPolicy::Enforce`].
    #[allow(clippy::too_many_arguments)] // the superset of every entry point
    pub fn resolve_adversarial(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn InternedFaultModel,
        mutations: &dyn InternedMutationModel,
        bailiwick: BailiwickPolicy,
        attempt: u32,
        memo: Option<&mut IRoundMemo>,
    ) -> Result<(), IResolutionError> {
        self.resolve_inner(
            ns, scratch, qname, qtype, ctx, faults, mutations, bailiwick, attempt, memo,
        )
    }

    #[allow(clippy::too_many_arguments)] // private driver behind the entry points
    fn resolve_inner(
        &mut self,
        ns: &CompiledNamespace<'_>,
        scratch: &mut ResolveScratch,
        qname: NameId,
        qtype: RecordType,
        ctx: &QueryContext,
        faults: &dyn InternedFaultModel,
        mutations: &dyn InternedMutationModel,
        bailiwick: BailiwickPolicy,
        attempt: u32,
        mut memo: Option<&mut IRoundMemo>,
    ) -> Result<(), IResolutionError> {
        scratch.trace.clear();
        let mut current = qname;
        for _ in 0..MAX_CHAIN {
            let from_cache;
            let mut zone = None;
            if self
                .cache
                .get_into(current, qtype.to_u16(), ctx.now, &mut scratch.answer)
            {
                from_cache = true;
            } else {
                from_cache = false;
                let meta = ns.meta_of(&scratch.overlay, current);
                let mut tamper = None;
                if let Some(zi) = meta.authority {
                    let zorigin = ns.zones[zi as usize].origin;
                    let zone_fnv = ns.fnv_in(scratch, zorigin);
                    let qname_fnv = ns.fnv_in(scratch, current);
                    if let Some(fault) =
                        faults.upstream_fault(zorigin, zone_fnv, current, qname_fnv, ctx, attempt)
                    {
                        scratch
                            .trace
                            .push(current, qtype, &[], false, Some(zorigin));
                        return Err(match fault {
                            UpstreamFault::ServFail => {
                                mcdn_obs::record(mcdn_obs::id::FAULT_SERVFAIL, 1);
                                IResolutionError::ServFail(current)
                            }
                            UpstreamFault::Timeout => {
                                mcdn_obs::record(mcdn_obs::id::FAULT_TIMEOUT, 1);
                                IResolutionError::Timeout(current)
                            }
                        });
                    }
                    // Mutation hook after the fault hook: a query that
                    // never reaches the zone cannot see a tampered answer.
                    tamper = mutations
                        .answer_mutation(zorigin, zone_fnv, current, qname_fnv, ctx, attempt);
                    if let Some(t) = &tamper {
                        mcdn_obs::record(
                            match t {
                                ITamper::SpoofA { .. } => mcdn_obs::id::TAMPER_SPOOF_A,
                                ITamper::InjectNs { .. } => mcdn_obs::id::TAMPER_INJECT_NS,
                                ITamper::Truncate => mcdn_obs::id::TAMPER_TRUNCATE,
                                ITamper::InflateTtl { .. } => mcdn_obs::id::TAMPER_INFLATE_TTL,
                            },
                            1,
                        );
                    }
                    if matches!(tamper, Some(ITamper::Truncate)) {
                        scratch
                            .trace
                            .push(current, qtype, &[], false, Some(zorigin));
                        return Err(IResolutionError::Truncated(current));
                    }
                }
                // Tampered queries bypass the memo entirely, and so do
                // overlay names: their ids are shard-local, so only a
                // compiled-table id keys the same question in every shard.
                let memo_key =
                    if memo.is_some() && tamper.is_none() && current.index() < ns.table.len() {
                        MemoScope::for_query(meta.scope, ctx.locode)
                            .map(|scope| (current, qtype, scope, ctx.now))
                    } else {
                        None
                    };
                let mut replayed = None;
                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key.as_ref()) {
                    replayed = m.replay_into(key, &mut scratch.answer);
                }
                match replayed {
                    Some(z) => {
                        mcdn_obs::record(mcdn_obs::id::MEMO_REPLAYS, 1);
                        let ttl = self
                            .cache
                            .put(current, qtype.to_u16(), &scratch.answer, ctx.now);
                        mcdn_obs::record_put(ttl as u64);
                        zone = z;
                    }
                    None => {
                        let (ans, z) = ns.query_into(scratch, current, qtype, ctx);
                        match ans {
                            IAnswer::Records => {
                                if let Some(t) = &tamper {
                                    apply_itamper(&mut scratch.answer, t);
                                }
                                // Bailiwick enforcement: drop out-of-zone
                                // owners before the cache, memo, or trace
                                // see them (a no-op for every well-formed
                                // answer). Name reads go through the
                                // overlay borrow so the retain stays in
                                // place, allocation-free.
                                if bailiwick == BailiwickPolicy::Enforce {
                                    if let Some(zo) = z {
                                        let ov = &scratch.overlay;
                                        let origin_name = ns.name_of(ov, zo);
                                        let before = scratch.answer.len();
                                        scratch.answer.retain(|r| {
                                            ns.name_of(ov, r.name).is_within(origin_name)
                                        });
                                        let dropped = before - scratch.answer.len();
                                        if dropped > 0 {
                                            mcdn_obs::record(
                                                mcdn_obs::id::BAILIWICK_DROPS,
                                                dropped as u64,
                                            );
                                        }
                                    }
                                }
                                let ttl = self.cache.put(
                                    current,
                                    qtype.to_u16(),
                                    &scratch.answer,
                                    ctx.now,
                                );
                                mcdn_obs::record_put(ttl as u64);
                                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key) {
                                    m.store(key, &scratch.answer, z);
                                }
                                zone = z;
                            }
                            IAnswer::NoData => {
                                scratch.answer.clear();
                                let ttl = self.cache.put(current, qtype.to_u16(), &[], ctx.now);
                                mcdn_obs::record_put(ttl as u64);
                                if let (Some(m), Some(key)) = (memo.as_deref_mut(), memo_key) {
                                    m.store(key, &[], z);
                                }
                                zone = z;
                            }
                            IAnswer::NxDomain => {
                                scratch.answer.clear();
                                scratch.trace.push(current, qtype, &[], false, None);
                                return Err(IResolutionError::NxDomain(current));
                            }
                        }
                    }
                }
            }
            let next = if qtype != RecordType::Cname {
                scratch.answer.iter().find_map(|r| match r.rdata {
                    IRData::Cname(t) => Some(t),
                    _ => None,
                })
            } else {
                None
            };
            let terminal = scratch
                .answer
                .iter()
                .any(|r| r.rtype_u16() == qtype.to_u16());
            scratch
                .trace
                .push(current, qtype, &scratch.answer, from_cache, zone);
            match next {
                Some(target) if !terminal => current = target,
                _ => return Ok(()),
            }
        }
        Err(IResolutionError::ChainTooLong)
    }

    /// Resolver cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Drops all cached entries (counters survive).
    pub fn flush(&mut self) {
        self.cache.entries.clear();
    }

    /// Exports the cache for checkpointing: every entry (live or expired)
    /// sorted by `(name id, qtype)`, plus the `(hits, misses)` counters.
    /// Record [`NameId`]s refer to the campaign's compiled table; the
    /// caller validates them against that table when re-encoding.
    pub fn cache_export(&self) -> (Vec<ICacheExportEntry>, u64, u64) {
        let mut entries: Vec<ICacheExportEntry> = self
            .cache
            .entries
            .iter()
            .map(|(&(id, qtype), e)| (id, qtype, e.expires, e.records.clone()))
            .collect();
        entries.sort_by_key(|&(id, qtype, _, _)| (id, qtype));
        let (hits, misses) = self.cache.stats();
        (entries, hits, misses)
    }

    /// Restores state previously captured by
    /// [`cache_export`](Self::cache_export) — the exact inverse, counters
    /// included, so a resumed campaign's cache behaviour *and* its
    /// reported statistics are bit-identical to an uninterrupted run.
    pub fn cache_restore(&mut self, entries: Vec<ICacheExportEntry>, hits: u64, misses: u64) {
        self.cache.entries.clear();
        for (id, qtype, expires, records) in entries {
            self.cache
                .entries
                .insert((id, qtype), IEntry { records, expires });
        }
        self.cache.hits = hits;
        self.cache.misses = misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use mcdn_geo::{Continent, Coord, Locode};
    use std::sync::Arc;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ctx(last_octet: u8, locode: &str, continent: Continent, now: SimTime) -> QueryContext {
        QueryContext {
            client_ip: Ipv4Addr::new(198, 51, 100, last_octet),
            locode: Locode::parse(locode).unwrap(),
            coord: Coord::new(0.0, 0.0),
            continent,
            now,
        }
    }

    /// A miniature Meta-CDN chain: static entry CNAME → City-scoped geo
    /// split → Client-scoped GSLB → static A records.
    fn build_ns() -> Namespace {
        let mut ns = Namespace::new();

        let mut apple = Zone::new(n("apple.com"));
        apple.add_cname("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600);
        apple.add_a("static.apple.com", Ipv4Addr::new(17, 1, 1, 1), 300);
        ns.add_zone(apple);

        let mut akadns = Zone::new(n("apple.com.akadns.net"));
        akadns.set_policy_scoped(
            n("appldnld.apple.com.akadns.net"),
            vec![n("eu.g.applimg.com"), n("us.g.applimg.com")],
            Arc::new(
                |qtype: RecordType, ctx: &QueryContext, out: &mut PolicyAnswer| {
                    if qtype != RecordType::A {
                        return; // IPv4-only mapping
                    }
                    let target = match ctx.continent {
                        Continent::Europe => 0,
                        _ => 1,
                    };
                    out.cname(target, 120);
                },
            ),
            PolicyScope::City,
        );
        ns.add_zone(akadns);

        let mut applimg = Zone::new(n("applimg.com"));
        for region in ["eu", "us"] {
            applimg.set_policy(
                n(&format!("{region}.g.applimg.com")),
                vec![n("a.gslb.applimg.com"), n("b.gslb.applimg.com")],
                Arc::new(
                    |qtype: RecordType, ctx: &QueryContext, out: &mut PolicyAnswer| {
                        if qtype != RecordType::A {
                            return;
                        }
                        let gslb = if ctx.client_ip.octets()[3].is_multiple_of(2) {
                            0
                        } else {
                            1
                        };
                        out.cname(gslb, 15);
                    },
                ),
            );
        }
        applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 1), 20);
        applimg.add_a("a.gslb.applimg.com", Ipv4Addr::new(17, 253, 1, 2), 20);
        applimg.add_a("b.gslb.applimg.com", Ipv4Addr::new(17, 253, 9, 9), 20);
        ns.add_zone(applimg);

        ns
    }

    fn key(name: NameId, scope: MemoScope) -> IMemoKey {
        (name, RecordType::A, scope, SimTime::from_ymd(2017, 9, 19))
    }

    #[test]
    fn memo_replay_counts_lookups_and_returns_stored_answer() {
        let mut memo = IRoundMemo::new();
        let k = key(NameId(3), MemoScope::Global);
        let mut out = Vec::new();
        assert!(memo.replay_into(&k, &mut out).is_none());
        let rr = IRecord {
            name: NameId(3),
            ttl: 20,
            rdata: IRData::A(Ipv4Addr::new(17, 1, 1, 1)),
        };
        memo.store(k, &[rr], Some(NameId(0)));
        assert_eq!(memo.replay_into(&k, &mut out), Some(Some(NameId(0))));
        assert_eq!(out, vec![rr]);
        assert_eq!(memo.lookups(), 2);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn memo_city_scopes_are_distinct_keys() {
        let mut memo = IRoundMemo::new();
        let fra = MemoScope::City(Locode::parse("defra").unwrap());
        let nyc = MemoScope::City(Locode::parse("usnyc").unwrap());
        let mut out = Vec::new();
        memo.store(key(NameId(1), fra), &[], None);
        assert!(memo.replay_into(&key(NameId(1), nyc), &mut out).is_none());
        assert!(memo.replay_into(&key(NameId(1), fra), &mut out).is_some());
    }

    #[test]
    fn memo_counts_merge_into_canonical_counters() {
        // Two "shards" each memoize the same key: shard-local hits differ
        // from what one shard would have seen, but the summed lookups and
        // the union of keys give the canonical figures.
        let ns = build_ns();
        let cns = CompiledNamespace::compile(&ns);
        let k = key(
            cns.table().get(&n("static.apple.com")).unwrap(),
            MemoScope::Global,
        );
        let mut a = IRoundMemo::new();
        a.store(k, &[], None);
        a.replay_into(&k, &mut Vec::new());
        let mut b = IRoundMemo::new();
        b.store(k, &[], None);
        let lookups = a.lookups() + b.lookups();
        let union: std::collections::HashSet<IMemoKey, FnvBuildHasher> =
            a.keys().chain(b.keys()).collect();
        let hits = lookups - union.len() as u64;
        assert_eq!((lookups, hits), (3, 2), "one true miss, two canonical hits");
        assert_eq!(union.into_iter().collect::<Vec<_>>(), vec![k]);
    }

    #[test]
    fn names_outside_the_compiled_table_are_never_memoized() {
        // Overlay ids are shard-local, so a key built from one would not
        // name the same question in another shard.
        let ns = build_ns();
        let cns = CompiledNamespace::compile(&ns);
        let mut scratch = ResolveScratch::new();
        let stranger = cns.intern_in(&mut scratch, &n("stranger.apple.com"));
        assert!(stranger.index() >= cns.table().len());
        let mut memo = IRoundMemo::new();
        let c = ctx(
            1,
            "deber",
            Continent::Europe,
            SimTime::from_ymd(2017, 9, 18),
        );
        let result = InternedResolver::new().resolve(
            &cns,
            &mut scratch,
            stranger,
            RecordType::A,
            &c,
            &NoInternedFaults,
            0,
            Some(&mut memo),
        );
        assert_eq!(result, Err(IResolutionError::NxDomain(stranger)));
        assert!(memo.is_empty());
    }

    #[test]
    fn memo_clear_retains_capacity_and_resets_counts() {
        let mut m = IRoundMemo::new();
        let key = (
            NameId(0),
            RecordType::A,
            MemoScope::Global,
            SimTime::from_ymd(2017, 9, 19),
        );
        m.store(key, &[], None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.lookups(), 0);
        assert!(m.is_empty());
    }

    /// The cache clamps stores to [`MAX_CACHE_TTL`]: a 60-day record is served from cache until exactly
    /// seven days after the store, and re-resolved at that instant.
    #[test]
    fn interned_cache_clamps_ttl_to_seven_days() {
        let mut ns = Namespace::new();
        let mut z = Zone::new(n("apple.com"));
        z.add_a("pin.apple.com", Ipv4Addr::new(17, 9, 9, 9), 60 * 86_400);
        ns.add_zone(z);
        let cns = CompiledNamespace::compile(&ns);
        let mut scratch = ResolveScratch::new();
        let mut r = InternedResolver::new();
        let id = cns.intern_in(&mut scratch, &n("pin.apple.com"));
        let t0 = SimTime::from_ymd(2017, 9, 18);
        let clamp = Duration::secs(MAX_CACHE_TTL as u64);
        for (t, hit) in [
            (t0, false),
            (t0 + clamp - Duration::secs(1), true),
            (t0 + clamp, false),
        ] {
            let c = ctx(1, "deber", Continent::Europe, t);
            r.resolve(
                &cns,
                &mut scratch,
                id,
                RecordType::A,
                &c,
                &NoInternedFaults,
                0,
                None,
            )
            .unwrap();
            let step = &scratch.trace().steps()[0];
            assert_eq!(step.from_cache, hit, "cache hit at {t:?}");
            if hit {
                // The hit serves the clamped entry's last remaining second.
                assert_eq!(scratch.trace().records_of(step)[0].ttl, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mapping policy at rogue.apple.com answered CNAME target #5")]
    fn compiled_cname_index_outside_declared_targets_panics() {
        let mut ns = Namespace::new();
        let mut z = Zone::new(n("apple.com"));
        z.set_policy(
            n("rogue.apple.com"),
            vec![n("static.apple.com")],
            Arc::new(|_: RecordType, _: &QueryContext, out: &mut PolicyAnswer| out.cname(5, 30)),
        );
        ns.add_zone(z);
        let cns = CompiledNamespace::compile(&ns);
        let mut scratch = ResolveScratch::new();
        let id = cns.intern_in(&mut scratch, &n("rogue.apple.com"));
        let c = ctx(
            1,
            "deber",
            Continent::Europe,
            SimTime::from_ymd(2017, 9, 18),
        );
        let _ = InternedResolver::new().resolve(
            &cns,
            &mut scratch,
            id,
            RecordType::A,
            &c,
            &NoInternedFaults,
            0,
            None,
        );
    }

    #[test]
    fn declared_targets_intern_after_every_other_name() {
        // Targets already named elsewhere leave the table as it was; a
        // target named nowhere else is interned after every other name.
        let ns = build_ns();
        let cns = CompiledNamespace::compile(&ns);
        let ids: Vec<Name> = cns.table().iter().map(|(_, name)| name.clone()).collect();
        let mut with_extra = build_ns();
        let mut z = Zone::new(n("example.net"));
        z.set_policy(
            n("www.example.net"),
            vec![n("static.apple.com"), n("elsewhere.example.org")],
            Arc::new(|_: RecordType, _: &QueryContext, out: &mut PolicyAnswer| out.cname(1, 30)),
        );
        with_extra.add_zone(z);
        let cns2 = CompiledNamespace::compile(&with_extra);
        let ids2: Vec<Name> = cns2.table().iter().map(|(_, name)| name.clone()).collect();
        assert_eq!(&ids2[..ids.len()], &ids[..], "existing ids unchanged");
        assert_eq!(ids2.last(), Some(&n("elsewhere.example.org")));
    }

    #[test]
    fn overlay_interning_is_idempotent_and_past_table() {
        let ns = build_ns();
        let cns = CompiledNamespace::compile(&ns);
        let mut scratch = ResolveScratch::new();
        let stranger = n("stranger.example.net");
        let a = cns.intern_in(&mut scratch, &stranger);
        let b = cns.intern_in(&mut scratch, &stranger);
        assert_eq!(a, b);
        assert!(a.index() >= cns.table().len());
        assert_eq!(cns.name_in(&scratch, a), &stranger);
        assert_eq!(cns.fnv_in(&scratch, a), display_fnv(&stranger));
        // Table names keep their table ids.
        let origin = cns.intern_in(&mut scratch, &n("apple.com"));
        assert!(origin.index() < cns.table().len());
    }
}
