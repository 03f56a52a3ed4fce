//! Byzantine answer mutations and bailiwick enforcement policy.
//!
//! Where [`crate::faults`] models *absent* answers (SERVFAIL, timeouts),
//! this module models *wrong* ones: the record-level tampering a resolver
//! sees from spoofed, misconfigured, or hostile authoritative servers.
//! [`InternedMutationModel`] is the resolver's injection point, consulted
//! once per authoritative query right after the fault hook; the returned
//! [`ITamper`] is applied to the authoritative answer *before* bailiwick
//! filtering, caching, and memoization, so every layer downstream sees
//! exactly what a poisoned wire answer would have carried.
//!
//! [`BailiwickPolicy`] selects the resolver's defense posture:
//! [`BailiwickPolicy::Enforce`] (the default everywhere) drops records
//! whose owner lies outside the answering zone's bailiwick — which is a
//! strict no-op for every well-formed answer, a property the resolver
//! tests pin — while [`BailiwickPolicy::Accept`] models a naive resolver
//! that ingests whatever arrives, exposing the mis-mapping delta the
//! poisoning sweep measures.
//!
//! Like the fault hooks, mutation models must be pure functions of their
//! inputs so adversarial campaigns stay bit-reproducible and resumable;
//! `mcdn-faults::AnswerMutation` supplies the deterministic draws and the
//! campaign layer adapts them to this trait.

use crate::context::QueryContext;
use crate::interned::{IRData, IRecord};
use mcdn_dnswire::Name;
use mcdn_intern::NameId;
use std::net::Ipv4Addr;

/// How the resolver treats records outside the answering zone's bailiwick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BailiwickPolicy {
    /// Drop out-of-bailiwick records before they reach the trace, cache,
    /// or memo (hardened resolver; the default).
    Enforce,
    /// Ingest answers as-is (naive resolver; poisoning lands).
    Accept,
}

/// One concrete tampering applied to an authoritative answer, `Copy` like
/// everything on the resolution hot path. Owner/target names must be
/// interned in the campaign's compiled table (see
/// [`CompiledNamespace::compile_with_extra`](crate::CompiledNamespace::compile_with_extra)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ITamper {
    /// Append an A record (owned by `owner`, usually an attacker name out
    /// of every zone's bailiwick) steering traffic at `addr`.
    SpoofA {
        /// Owner id of the injected record.
        owner: NameId,
        /// The attacker-controlled address.
        addr: Ipv4Addr,
        /// TTL of the injected record.
        ttl: u32,
    },
    /// Append an out-of-bailiwick NS record delegating `owner` to an
    /// attacker name server.
    InjectNs {
        /// Owner id of the injected delegation.
        owner: NameId,
        /// The attacker name server id.
        target: NameId,
        /// TTL of the injected record.
        ttl: u32,
    },
    /// The answer is truncated/garbled beyond use: the resolver records
    /// the step and fails with a transient malformed-answer error instead
    /// of ingesting a partial RRset.
    Truncate,
    /// Multiply every record TTL by `factor` (saturating; 0 acts as 1),
    /// trying to pin the answer in caches far beyond its legitimate
    /// lifetime.
    InflateTtl {
        /// The multiplier.
        factor: u32,
    },
}

/// Decides whether one authoritative answer is tampered with. Like
/// [`InternedFaultModel`](crate::InternedFaultModel), the resolver hands
/// over the precomputed display-FNV digests of the zone origin and query
/// name so models derive stable keys without formatting anything.
/// Implementations must be pure functions of their inputs (plus frozen
/// configuration) so campaigns stay reproducible.
pub trait InternedMutationModel {
    /// Consulted once per authoritative query, after the fault hook.
    fn answer_mutation(
        &self,
        zone: NameId,
        zone_fnv: u64,
        qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<ITamper>;
}

/// The quiet interned mutation model: never tampers.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInternedMutations;

impl InternedMutationModel for NoInternedMutations {
    fn answer_mutation(
        &self,
        _zone: NameId,
        _zone_fnv: u64,
        _qname: NameId,
        _qname_fnv: u64,
        _ctx: &QueryContext,
        _attempt: u32,
    ) -> Option<ITamper> {
        None
    }
}

impl<F> InternedMutationModel for F
where
    F: Fn(NameId, u64, NameId, u64, &QueryContext, u32) -> Option<ITamper> + Send + Sync,
{
    fn answer_mutation(
        &self,
        zone: NameId,
        zone_fnv: u64,
        qname: NameId,
        qname_fnv: u64,
        ctx: &QueryContext,
        attempt: u32,
    ) -> Option<ITamper> {
        self(zone, zone_fnv, qname, qname_fnv, ctx, attempt)
    }
}

/// The canonical attacker-owned record name. Under `.invalid` (RFC 2606),
/// so it lies outside the bailiwick of every zone the simulator can
/// install — an Enforce-mode resolver always drops records it owns.
pub fn attacker_owner() -> Name {
    Name::parse("phish.attacker.invalid").expect("static attacker name parses")
}

/// The canonical attacker name-server name (see [`attacker_owner`]).
pub fn attacker_ns() -> Name {
    Name::parse("ns.attacker.invalid").expect("static attacker name parses")
}

/// Applies a record-editing tamper to an answer buffer in place.
/// [`ITamper::Truncate`] is not record-editing — the resolver handles it
/// before the query — so it is a no-op here.
pub fn apply_itamper(records: &mut Vec<IRecord>, tamper: &ITamper) {
    match tamper {
        ITamper::SpoofA { owner, addr, ttl } => {
            records.push(IRecord {
                name: *owner,
                ttl: *ttl,
                rdata: IRData::A(*addr),
            });
        }
        ITamper::InjectNs { owner, target, ttl } => {
            records.push(IRecord {
                name: *owner,
                ttl: *ttl,
                rdata: IRData::Ns(*target),
            });
        }
        ITamper::Truncate => {}
        ITamper::InflateTtl { factor } => {
            let f = (*factor).max(1);
            for rr in records {
                rr.ttl = rr.ttl.saturating_mul(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacker_names_are_outside_every_simulated_bailiwick() {
        for origin in [
            "apple.com",
            "akadns.net",
            "applimg.com",
            "edgesuite.net",
            "lvl3.net",
        ] {
            let z = Name::parse(origin).unwrap();
            assert!(!attacker_owner().is_within(&z), "{origin}");
            assert!(!attacker_ns().is_within(&z), "{origin}");
        }
    }

    #[test]
    fn tamper_application_edits_records_in_place() {
        let owner = NameId(7);
        let legit = IRecord {
            name: NameId(1),
            ttl: 20,
            rdata: IRData::A(Ipv4Addr::new(17, 253, 1, 1)),
        };
        let mut rrs = vec![legit];
        apply_itamper(
            &mut rrs,
            &ITamper::SpoofA {
                owner,
                addr: Ipv4Addr::new(198, 18, 0, 9),
                ttl: 600,
            },
        );
        assert_eq!(rrs.len(), 2);
        assert_eq!(rrs[1].name, owner);
        let mut rrs = vec![legit];
        apply_itamper(&mut rrs, &ITamper::InflateTtl { factor: 10_000 });
        assert_eq!(rrs[0].ttl, 200_000);
        let mut rrs = vec![legit];
        apply_itamper(&mut rrs, &ITamper::InflateTtl { factor: 0 });
        assert_eq!(rrs[0].ttl, 20, "factor 0 acts as 1");
        let mut rrs = vec![legit];
        apply_itamper(&mut rrs, &ITamper::Truncate);
        assert_eq!(rrs.len(), 1, "Truncate edits nothing at the record level");
    }
}
