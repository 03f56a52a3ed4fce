//! Upstream faults for the recursive resolver.
//!
//! Real recursive resolution fails in ways the clean simulator never shows:
//! an authoritative server times out, SERVFAILs under load, or serves a
//! lame delegation. [`InternedFaultModel`](crate::InternedFaultModel) is
//! the resolver's injection point for those conditions — consulted before
//! every *upstream* query (cache hits are never faulted, which is exactly
//! how caches mask authoritative outages in the real DNS) — and
//! [`UpstreamFault`] is what it returns.
//!
//! This crate only defines the hook; concrete deterministic fault sources
//! (hash-based loss rates, load-coupled SERVFAIL, lame windows) live in
//! `mcdn-faults` and are adapted to the hook by the campaign layer.

/// A transient failure of one upstream query to an authoritative zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpstreamFault {
    /// The zone answered SERVFAIL.
    ServFail,
    /// The query or answer was lost; the resolver gives up on this attempt
    /// after its timeout.
    Timeout,
}
