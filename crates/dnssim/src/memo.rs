//! Per-round memoization of scope-stable zone answers.
//!
//! Within one campaign round every query carries the same `now`, so a zone
//! answer that depends only on the client's *scope* — nothing
//! ([`PolicyScope::Global`]) or the client's city
//! ([`PolicyScope::City`]) — is identical for every probe sharing that
//! scope. An [`IRoundMemo`](crate::IRoundMemo) caches those answers for
//! the duration of a round so probes behind the same effective resolver
//! scope stop repeating identical delegation walks. Policies scoped
//! [`Client`](PolicyScope::Client) (selectors, GSLBs) are never memoized,
//! and the resolver consults its fault and mutation hooks *before* the
//! memo, so a query they perturb bypasses memoization entirely:
//! resolution results are bit-identical with the memo on or off.
//!
//! The memo is shard-local in the parallel engine — each worker owns one —
//! so raw hit counts would vary with the thread count (a key's first
//! lookup *per shard* is a miss). Only names in the compiled table are
//! memoized: their [`NameId`]s are fixed at compile time, so an
//! [`IMemoKey`] names the same question in every shard, while overlay ids
//! are shard-local and never become keys. The engine therefore derives
//! the canonical, thread-count-independent counters straight from the
//! shards' keys: `lookups` is the sum of the shards'
//! [`IRoundMemo::lookups`](crate::IRoundMemo::lookups) and
//! `hits = lookups − |union of the shards' keys|` (what a single shard
//! would have observed).

use crate::zone::PolicyScope;
use mcdn_dnswire::RecordType;
use mcdn_geo::{Locode, SimTime};
use mcdn_intern::NameId;

/// The client-scope component of a memo key, derived from a
/// [`PolicyScope`] declaration plus the querying context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoScope {
    /// Same answer for every client.
    Global,
    /// Same answer for every client in this city.
    City(Locode),
}

impl MemoScope {
    /// The memo scope for an answer declared with `scope`, as seen from a
    /// client in `locode`; `None` for [`PolicyScope::Client`] (never
    /// memoizable).
    pub fn for_query(scope: PolicyScope, locode: Locode) -> Option<MemoScope> {
        match scope {
            PolicyScope::Global => Some(MemoScope::Global),
            PolicyScope::City => Some(MemoScope::City(locode)),
            PolicyScope::Client => None,
        }
    }
}

/// A memo entry's identity: the question (a compiled-table name id and
/// type), the scope it is stable over, and the instant it was asked at.
/// The time component makes the memo airtight under retries — a
/// backoff-shifted retry queries at a later instant and gets its own key
/// rather than replaying (or seeding) another instant's answer, so memo
/// contents never depend on the order shards interleave probes and their
/// retries.
pub type IMemoKey = (NameId, RecordType, MemoScope, SimTime);
