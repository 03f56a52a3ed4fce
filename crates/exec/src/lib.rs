//! Deterministic sharded execution for the measurement plane, on a
//! **persistent worker pool**.
//!
//! The campaign and traffic loops fan work out over OS threads without
//! giving up bit-identical output: work items are split into **contiguous
//! shards** (never interleaved), each shard is processed by exactly one
//! worker, and the per-shard partial results are handed back **in shard
//! order** so the caller can merge them in the same canonical order a
//! serial loop would have produced. Because shard boundaries only group
//! neighbouring items — they never reorder them — any reduction that is
//! associative over contiguous runs (set union, counter addition,
//! append-in-order) yields the same result for 1, 2, 8, … threads.
//!
//! # Why a pool
//!
//! The first engine spawned a fresh `std::thread::scope` per round. At
//! campaign granularity a shard is 0.4–1.5 ms of work, so per-round
//! thread creation and teardown (tens to hundreds of microseconds per
//! worker) dominated the parallel wall clock and the engine ran *slower*
//! than serial. Workers are now created once per process, asleep on a
//! **shared run queue** between rounds, and handed work through a
//! two-step handshake:
//!
//! 1. **dispatch** — the caller pushes one type-erased [`Task`] per shard
//!    onto the run queue and wakes the workers (the job descriptor lives
//!    on the caller's stack); the caller is a worker too: it runs shard 0
//!    inline and then **helps**, draining its own job's remaining tasks
//!    from the queue until workers have claimed them all. On a saturated
//!    or single-core host this degrades towards plain serial execution
//!    with near-zero handoff cost instead of thrashing between timeshared
//!    workers;
//! 2. **round epoch** — each completed shard decrements the job's
//!    countdown; the worker that retires the last shard unparks the
//!    caller, which has been parked since it finished helping.
//!
//! Results are written into per-shard slots keyed by **shard index**, so
//! which worker ran which shard — and in what order they finished — can
//! never influence the merged output. The caller does not return until
//! the countdown hits zero, which is what makes lending it stack-borrowed
//! shards sound (the same argument scoped threads make, enforced here by
//! the epoch handshake instead of a scope guard).
//!
//! With `threads <= 1` (or a single shard) the shards run inline on the
//! caller's thread through the very same code path — no dispatch, no
//! park — which keeps the serial and parallel engines literally the same
//! code.
//!
//! # Panic recovery
//!
//! Supervised maps isolate shard panics with [`catch_unwind`] and recover
//! according to a [`Recovery`] policy: [`Recovery::Pristine`] clones the
//! shard into a **reusable per-worker pristine buffer** before the first
//! attempt and rolls back + retries deterministically (the buffer is one
//! allocation per worker, reused across every round it supervises);
//! [`Recovery::FailFast`] skips the clone entirely — the zero-copy fast
//! path for configurations that cannot panic — and converts a first panic
//! into a typed [`ShardFailure`]; [`Recovery::RetryUnrestored`] retries
//! without restoring, which is sound only for closures that never mutate
//! their shard.

#![deny(unsafe_code)]
#![deny(missing_docs)]

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "MCDN_THREADS";

/// The number of worker threads the engine should use: `MCDN_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The contiguous index ranges that split `n` items into at most `shards`
/// near-even parts: the first `n % shards` shards carry one extra item.
/// Empty ranges are never produced — with `n < shards` only `n`
/// single-item shards are returned. The concatenation of the ranges is
/// exactly `0..n`, in order, which is what makes shard-order merges
/// canonical.
pub fn shard_bounds(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Default retry budget of the retrying [`Recovery`] policies: one clean
/// rerun after the initial attempt, then one more — enough to outlast any
/// one-shot injected fault while still bounding a deterministic panic.
pub const DEFAULT_SHARD_RETRIES: u32 = 2;

/// How a supervised shard recovers from a panicking attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Clone the shard into the worker's reusable pristine buffer before
    /// the first attempt; a panicking attempt is rolled back to the clone
    /// and deterministically re-executed, up to `retries` extra times.
    /// The clone is the price of retrying closures that mutate their
    /// shard mid-attempt.
    Pristine {
        /// Extra attempts after the initial run.
        retries: u32,
    },
    /// No clone, no retry: the first panic fails the shard with a typed
    /// [`ShardFailure`]. The zero-copy fast path for configurations where
    /// nothing is expected to panic — a panic then signals a genuine bug,
    /// and retrying over possibly half-mutated state would be wrong.
    FailFast,
    /// No clone; a panicking attempt is re-executed over the shard
    /// exactly as the panic left it, up to `retries` extra times. Sound
    /// **only** when the closure never mutates its shard items (e.g. the
    /// traffic engine's read-only record building).
    RetryUnrestored {
        /// Extra attempts after the initial run.
        retries: u32,
    },
}

impl Recovery {
    /// Total attempts this policy budgets (initial run included).
    fn attempts(self) -> u32 {
        match self {
            Recovery::Pristine { retries } | Recovery::RetryUnrestored { retries } => {
                retries.saturating_add(1)
            }
            Recovery::FailFast => 1,
        }
    }
}

/// A shard that kept panicking until its retry budget ran out.
///
/// Surfaced instead of aborting the process so a long campaign can fail
/// *typed*: the caller decides whether to quarantine the result, persist a
/// checkpoint, or propagate the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Index of the failing shard (canonical shard order).
    pub shard: usize,
    /// Total attempts made (initial run + retries).
    pub attempts: u32,
    /// The panic payload of the final attempt, if it was a string.
    pub message: String,
}

impl core::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "shard {} panicked {} time(s): {}",
            self.shard, self.attempts, self.message
        )
    }
}

impl std::error::Error for ShardFailure {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// The worker's reusable pristine buffer (see [`Recovery::Pristine`]):
    /// one allocation per worker thread, reused across every shard and
    /// round that worker supervises, instead of a fresh `Vec` per shard
    /// attempt. Type-erased because pool workers outlive any one
    /// campaign's item type; a type change simply re-allocates once.
    static PRISTINE: RefCell<Option<Box<dyn Any + Send>>> = const { RefCell::new(None) };
}

/// Runs one shard's attempt loop under `recovery`.
///
/// `AssertUnwindSafe` is sound here because the only state `f` can reach
/// across the unwind boundary is the shard slice itself, and every policy
/// accounts for it: `Pristine` restores the pre-attempt contents before a
/// retry, `RetryUnrestored` is only used with non-mutating closures, and
/// `FailFast` discards the whole map (the caller never observes the
/// shard's partial state as a success).
fn supervise_shard<T, R, F>(
    index: usize,
    shard: &mut [T],
    recovery: Recovery,
    f: &F,
) -> Result<R, ShardFailure>
where
    T: Clone + Send + 'static,
    F: Fn(usize, &mut [T]) -> R,
{
    let attempts = recovery.attempts();
    if let Recovery::Pristine { .. } = recovery {
        PRISTINE.with(|slot| {
            // Reuse the worker's buffer when the item type matches; the
            // borrow is released before `f` runs so nested supervised maps
            // on this thread simply fall back to a fresh buffer.
            let mut pristine: Box<Vec<T>> = slot
                .borrow_mut()
                .take()
                .and_then(|b| b.downcast::<Vec<T>>().ok())
                .unwrap_or_default();
            pristine.clear();
            pristine.extend(shard.iter().cloned());
            let mut last_message = String::new();
            let mut result = None;
            for attempt in 0..attempts {
                match catch_unwind(AssertUnwindSafe(|| f(index, shard))) {
                    Ok(r) => {
                        result = Some(r);
                        break;
                    }
                    Err(payload) => {
                        last_message = panic_message(payload);
                        mcdn_obs::global_add(mcdn_obs::global::SHARD_PANICS, 1);
                        // Quarantine: throw away whatever the panicking
                        // attempt did to the shard and restore the pristine
                        // items, so a retry replays the exact same
                        // deterministic inputs.
                        if attempt + 1 < attempts {
                            shard.clone_from_slice(&pristine);
                            mcdn_obs::global_add(mcdn_obs::global::SHARD_RESTORES, 1);
                        }
                    }
                }
            }
            // Drop the clones eagerly (they can hold warm caches) but hand
            // the allocation back to the worker for the next round.
            pristine.clear();
            *slot.borrow_mut() = Some(pristine as Box<dyn Any + Send>);
            match result {
                Some(r) => Ok(r),
                None => Err(ShardFailure {
                    shard: index,
                    attempts,
                    message: last_message,
                }),
            }
        })
    } else {
        let mut last_message = String::new();
        for _ in 0..attempts {
            match catch_unwind(AssertUnwindSafe(|| f(index, shard))) {
                Ok(r) => return Ok(r),
                Err(payload) => {
                    last_message = panic_message(payload);
                    mcdn_obs::global_add(mcdn_obs::global::SHARD_PANICS, 1);
                }
            }
        }
        Err(ShardFailure {
            shard: index,
            attempts,
            message: last_message,
        })
    }
}

/// What one shard execution produced, keyed by shard index in the job's
/// result slots.
enum Outcome<R> {
    /// The closure returned; wall time covers every attempt.
    Done(R, Duration),
    /// A supervised shard exhausted its recovery budget.
    Failed(ShardFailure),
    /// An unsupervised shard panicked; the payload is re-thrown on the
    /// calling thread once the whole round has retired.
    Panicked(Box<dyn Any + Send>),
}

/// Live pool telemetry, for benches and the reuse tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers spawned since process start (never shrinks).
    pub spawned: usize,
    /// Workers currently asleep on the run queue (a sampled instant —
    /// workers in the middle of claiming a task are neither parked nor
    /// visibly busy).
    pub parked: usize,
    /// Parallel dispatches served (rounds that actually used workers).
    pub dispatches: u64,
}

/// Pre-spawns enough workers to serve a `threads`-wide dispatch, so the
/// first round of a campaign does not pay thread creation.
pub fn warm(threads: usize) {
    pool::warm(threads.saturating_sub(1));
}

/// A snapshot of the pool's counters.
pub fn pool_stats() -> PoolStats {
    pool::stats()
}

/// The persistent pool internals: the only module that handles the
/// type-erased task pointers. Safety rests on one invariant, stated at
/// every unsafe block: **a dispatched job outlives every task referring
/// to it**, because the dispatching thread parks until the job's
/// countdown retires all shards before its stack frame (which owns the
/// job, the closure, and the shard borrows) unwinds or returns.
#[allow(unsafe_code)]
mod pool {
    use super::{supervise_shard, Outcome, PoolStats, Recovery};
    use std::cell::UnsafeCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock};
    use std::time::Instant;

    /// One type-erased shard dispatch. `job` points at the concrete
    /// `Job<T, R, F>` on the dispatcher's stack; `run` is the thunk
    /// monomorphized for those types.
    struct Task {
        job: *const (),
        run: unsafe fn(*const (), usize),
        shard: usize,
    }

    // SAFETY: the raw pointer crosses threads only inside a dispatch,
    // and the dispatcher keeps the pointee alive (parked on the round
    // epoch) until every task completed.
    unsafe impl Send for Task {}

    struct PoolState {
        /// The shared run queue. Every dispatch pushes its shard tasks
        /// here; workers (and helping dispatchers) pop them. Tasks from
        /// concurrent jobs interleave freely — a task carries its job
        /// pointer, so who runs it never matters.
        queue: Mutex<VecDeque<Task>>,
        /// Workers sleep on this between rounds.
        work_ready: Condvar,
        spawned: AtomicUsize,
        idle: AtomicUsize,
        dispatches: AtomicU64,
    }

    fn state() -> &'static PoolState {
        static POOL: OnceLock<PoolState> = OnceLock::new();
        POOL.get_or_init(|| PoolState {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            spawned: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            dispatches: AtomicU64::new(0),
        })
    }

    /// Hard ceiling on pool size: enough for several concurrent
    /// campaigns (the test suite runs many in parallel) without letting a
    /// pathological caller spawn unboundedly. Beyond the cap, queued
    /// shards are drained by the helping dispatcher — slower, never wrong.
    fn worker_cap() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .saturating_mul(4)
            .max(64)
    }

    fn spawn_worker(id: usize) {
        std::thread::Builder::new()
            .name(format!("mcdn-pool-{id}"))
            .spawn(move || {
                let pool = state();
                loop {
                    let task = {
                        let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            if let Some(task) = queue.pop_front() {
                                break task;
                            }
                            // Parked between rounds: sleep until the next
                            // dispatch pushes work.
                            pool.idle.fetch_add(1, Ordering::Relaxed);
                            queue = pool
                                .work_ready
                                .wait(queue)
                                .unwrap_or_else(|e| e.into_inner());
                            pool.idle.fetch_sub(1, Ordering::Relaxed);
                        }
                    };
                    // SAFETY: the dispatcher that queued this task parks
                    // until the job's countdown retires every shard, so
                    // `task.job` is alive for the whole call; `task.run`
                    // was monomorphized for the job's concrete types and
                    // never unwinds (every thunk catches panics).
                    unsafe { (task.run)(task.job, task.shard) }
                }
            })
            .expect("spawn mcdn pool worker");
    }

    /// Pre-spawns enough workers for a dispatch that needs `want` helpers
    /// (they go straight to sleep on the run queue). Never exceeds the
    /// cap; repeated calls are free once the pool is warm.
    pub(super) fn warm(want: usize) {
        let pool = state();
        let target = want.min(worker_cap());
        loop {
            let spawned = pool.spawned.load(Ordering::Relaxed);
            if spawned >= target {
                return;
            }
            if pool
                .spawned
                .compare_exchange(spawned, spawned + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                spawn_worker(spawned);
                mcdn_obs::gauge_set(mcdn_obs::gauge::POOL_WORKERS, (spawned + 1) as u64);
            }
        }
    }

    pub(super) fn stats() -> PoolStats {
        let pool = state();
        PoolStats {
            spawned: pool.spawned.load(Ordering::Relaxed),
            parked: pool.idle.load(Ordering::Relaxed),
            dispatches: pool.dispatches.load(Ordering::Relaxed),
        }
    }

    /// One shard's slice, shipped as raw parts because the borrow checker
    /// cannot see through the epoch handshake.
    struct ShardSlot<T> {
        ptr: *mut T,
        len: usize,
    }

    /// The job descriptor a dispatch shares with its workers. Lives on
    /// the dispatching thread's stack for exactly the duration of the
    /// round.
    struct Job<T, R, F> {
        f: *const F,
        shards: Vec<ShardSlot<T>>,
        /// One slot per shard, written by exactly one worker each and read
        /// by the dispatcher only after the countdown hits zero (the
        /// release `fetch_sub` / acquire load pair orders the accesses).
        results: Vec<UnsafeCell<Option<Outcome<R>>>>,
        recovery: Option<Recovery>,
        remaining: AtomicUsize,
        waiter: std::thread::Thread,
    }

    /// Retires one shard: store its outcome, count it down, and wake the
    /// dispatcher when it was the last. The `Thread` handle is cloned
    /// *before* the decrement — after it, the dispatcher may already have
    /// observed zero and freed the job.
    unsafe fn retire<T, R, F>(job: &Job<T, R, F>, shard: usize, outcome: Outcome<R>) {
        // SAFETY (results slot): shard indices are unique per job, so this
        // is the only writer of `results[shard]`; the dispatcher reads it
        // only after the countdown below reaches zero.
        unsafe { *job.results[shard].get() = Some(outcome) };
        let waiter = job.waiter.clone();
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            waiter.unpark();
        }
    }

    /// The unsupervised thunk: one attempt, panics captured for re-throw.
    unsafe fn run_plain<T, R, F>(job: *const (), shard: usize)
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        // SAFETY: `job` was created from a live `Job<T, R, F>` by the
        // dispatcher, which outlives this call (epoch handshake).
        let job = unsafe { &*(job as *const Job<T, R, F>) };
        let slot = &job.shards[shard];
        // SAFETY: the slot was split from a unique `&mut [T]`; shards are
        // disjoint and each is executed exactly once per job.
        let items = unsafe { std::slice::from_raw_parts_mut(slot.ptr, slot.len) };
        // SAFETY: `f` outlives the job (it lives in the dispatcher's frame).
        let f = unsafe { &*job.f };
        let started = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(shard, items))) {
            Ok(r) => Outcome::Done(r, started.elapsed()),
            Err(payload) => {
                mcdn_obs::global_add(mcdn_obs::global::SHARD_PANICS, 1);
                Outcome::Panicked(payload)
            }
        };
        // SAFETY: per-shard slot invariant, see `retire`.
        unsafe { retire(job, shard, outcome) };
    }

    /// The supervised thunk: attempt loop under the job's recovery policy.
    unsafe fn run_supervised<T, R, F>(job: *const (), shard: usize)
    where
        T: Clone + Send + 'static,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        // SAFETY: identical to `run_plain` — job outlives the call, shards
        // are disjoint, `f` lives in the dispatcher's frame.
        let job = unsafe { &*(job as *const Job<T, R, F>) };
        let slot = &job.shards[shard];
        let items = unsafe { std::slice::from_raw_parts_mut(slot.ptr, slot.len) };
        let f = unsafe { &*job.f };
        let recovery = job
            .recovery
            .expect("supervised job carries a recovery policy");
        let started = Instant::now();
        let outcome = match supervise_shard(shard, items, recovery, f) {
            Ok(r) => Outcome::Done(r, started.elapsed()),
            Err(failure) => Outcome::Failed(failure),
        };
        unsafe { retire(job, shard, outcome) };
    }

    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Shards `items`, runs every shard through `run` (on pool workers
    /// where possible, inline otherwise), and returns the outcomes in
    /// canonical shard order. The core of every public map.
    fn execute<T, R, F>(
        items: &mut [T],
        threads: usize,
        recovery: Option<Recovery>,
        run: unsafe fn(*const (), usize),
        f: &F,
    ) -> Vec<Outcome<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let bounds = super::shard_bounds(items.len(), threads);
        let n = bounds.len();
        if n == 0 {
            return Vec::new();
        }
        let mut shards = Vec::with_capacity(n);
        let mut rest = items;
        for b in &bounds {
            let (shard, tail) = rest.split_at_mut(b.len());
            rest = tail;
            shards.push(ShardSlot {
                ptr: shard.as_mut_ptr(),
                len: shard.len(),
            });
        }
        let job = Job::<T, R, F> {
            f,
            shards,
            results: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            recovery,
            remaining: AtomicUsize::new(n),
            waiter: std::thread::current(),
        };
        let job_ptr = &job as *const Job<T, R, F> as *const ();
        if n == 1 || threads <= 1 {
            // Inline path: identical shard boundaries, no dispatch.
            for shard in 0..n {
                // SAFETY: same-thread execution; the job is alive for the
                // whole loop and each shard runs exactly once.
                unsafe { run(job_ptr, shard) };
            }
        } else {
            let dispatch_started = Instant::now();
            let pool = state();
            warm(n - 1);
            pool.dispatches.fetch_add(1, Ordering::Relaxed);
            mcdn_obs::global_add(mcdn_obs::global::DISPATCHES, 1);
            {
                let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                for shard in 1..n {
                    queue.push_back(Task {
                        job: job_ptr,
                        run,
                        shard,
                    });
                }
            }
            pool.work_ready.notify_all();
            // The dispatcher is a worker too: shard 0 first, then it
            // *helps* — it keeps draining its own job's tasks from the
            // shared queue until none are left. On a saturated (or
            // single-core) host this degrades gracefully towards serial
            // execution with near-zero handoff cost instead of thrashing
            // between timeshared workers; on a wide host the workers have
            // already emptied the queue and the loop exits immediately.
            // SAFETY: as above.
            unsafe { run(job_ptr, 0) };
            loop {
                let task = {
                    let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                    queue
                        .iter()
                        .position(|t| std::ptr::eq(t.job, job_ptr))
                        .and_then(|i| queue.remove(i))
                };
                match task {
                    // SAFETY: as above; each queued shard runs exactly once
                    // (removal under the queue lock makes this the unique
                    // executor of `task.shard`).
                    Some(task) => unsafe { (task.run)(task.job, task.shard) },
                    None => break,
                }
            }
            // Round epoch: park until the countdown retires every shard
            // still running on workers. Only after this may the job (and
            // the borrows inside it) die.
            while job.remaining.load(Ordering::Acquire) != 0 {
                std::thread::park();
            }
            mcdn_obs::global_hist(
                mcdn_obs::ghist::DISPATCH_WALL_US,
                dispatch_started.elapsed().as_micros() as u64,
            );
        }
        let Job { results, .. } = job;
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every shard retired an outcome"))
            .collect()
    }

    pub(super) fn execute_plain<T, R, F>(items: &mut [T], threads: usize, f: &F) -> Vec<Outcome<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        execute(items, threads, None, run_plain::<T, R, F>, f)
    }

    pub(super) fn execute_supervised<T, R, F>(
        items: &mut [T],
        threads: usize,
        recovery: Recovery,
        f: &F,
    ) -> Vec<Outcome<R>>
    where
        T: Clone + Send + 'static,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        execute(items, threads, Some(recovery), run_supervised::<T, R, F>, f)
    }
}

/// Runs `f` over contiguous shards of `items` on the worker pool and
/// returns the per-shard results **in shard order** (shard 0 first).
///
/// `f` receives the shard index and a mutable slice of that shard's
/// items; shards never overlap, so the borrow is race-free by
/// construction. With `threads <= 1` (or a single shard) the shards run
/// inline on the caller's thread. A panicking shard is re-thrown on the
/// caller **after** the whole round retired (lowest shard index wins when
/// several panic).
pub fn shard_map<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let outcomes = pool::execute_plain(items, threads, &f);
    let mut out = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Outcome::Done(r, _) => out.push(r),
            Outcome::Panicked(payload) => std::panic::resume_unwind(payload),
            Outcome::Failed(_) => unreachable!("plain maps carry no recovery policy"),
        }
    }
    out
}

/// [`shard_map`] with panic isolation under an explicit [`Recovery`]
/// policy: each shard runs under [`catch_unwind`] and recovers per the
/// policy. If any shard exhausts its budget the whole map returns the
/// failure of the **lowest-indexed** failing shard (canonical order),
/// instead of aborting the process.
///
/// Also reports each shard's wall time (attempts included), in canonical
/// shard order. The timings are side-band observability — bench harnesses
/// use them to spot shards that straggle — and never feed back into any
/// result, so determinism of the returned `Vec<R>` is untouched.
pub fn shard_map_recover<T, R, F>(
    items: &mut [T],
    threads: usize,
    recovery: Recovery,
    f: F,
) -> Result<(Vec<R>, Vec<Duration>), ShardFailure>
where
    T: Send + Clone + 'static,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let outcomes = pool::execute_supervised(items, threads, recovery, &f);
    let mut values = Vec::with_capacity(outcomes.len());
    let mut walls = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Outcome::Done(r, wall) => {
                values.push(r);
                walls.push(wall);
            }
            Outcome::Failed(failure) => return Err(failure),
            Outcome::Panicked(_) => unreachable!("supervised shards never re-throw"),
        }
    }
    Ok((values, walls))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_partition_exactly() {
        for n in [0usize, 1, 2, 7, 8, 9, 100] {
            for shards in [1usize, 2, 3, 8, 16] {
                let b = shard_bounds(n, shards);
                let covered: Vec<usize> = b.iter().cloned().flatten().collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} shards={shards}");
                assert!(
                    b.iter().all(|r| !r.is_empty()),
                    "no empty shards: n={n} shards={shards}"
                );
                if n > 0 {
                    let lens: Vec<usize> = b.iter().map(|r| r.len()).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "near-even: n={n} shards={shards} {lens:?}");
                }
            }
        }
    }

    #[test]
    fn shard_map_results_in_shard_order_for_any_thread_count() {
        let serial: Vec<Vec<u32>> = {
            let mut items: Vec<u32> = (0..103).collect();
            shard_map(&mut items, 1, |_, shard| shard.to_vec())
        };
        let flat_serial: Vec<u32> = serial.into_iter().flatten().collect();
        for threads in [2usize, 3, 8] {
            let mut items: Vec<u32> = (0..103).collect();
            let parts = shard_map(&mut items, threads, |_, shard| shard.to_vec());
            let flat: Vec<u32> = parts.into_iter().flatten().collect();
            assert_eq!(flat, flat_serial, "threads={threads}");
        }
    }

    #[test]
    fn shard_map_mutates_disjoint_shards() {
        let mut items = vec![0u64; 50];
        let sums = shard_map(&mut items, 4, |i, shard| {
            for x in shard.iter_mut() {
                *x = i as u64 + 1;
            }
            shard.iter().sum::<u64>()
        });
        assert_eq!(sums.len(), 4);
        assert!(items.iter().all(|&x| x > 0));
        assert_eq!(items.iter().sum::<u64>(), sums.iter().sum::<u64>());
    }

    #[test]
    fn more_threads_than_items_degrades_gracefully() {
        let mut items = vec![1u8, 2, 3];
        let parts = shard_map(&mut items, 16, |_, shard| shard.to_vec());
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.concat(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_no_shards() {
        let mut items: Vec<u8> = Vec::new();
        let parts: Vec<usize> = shard_map(&mut items, 4, |_, shard| shard.len());
        assert!(parts.is_empty());
    }

    use std::sync::atomic::{AtomicU32, Ordering};

    const PRISTINE: Recovery = Recovery::Pristine {
        retries: DEFAULT_SHARD_RETRIES,
    };

    #[test]
    fn supervised_matches_unsupervised_when_nothing_panics() {
        for threads in [1usize, 3, 8] {
            let mut a: Vec<u32> = (0..57).collect();
            let mut b = a.clone();
            let plain = shard_map(&mut a, threads, |i, s| (i, s.iter().sum::<u32>()));
            let (supervised, _) =
                shard_map_recover(&mut b, threads, PRISTINE, |i, s| (i, s.iter().sum::<u32>()))
                    .unwrap();
            assert_eq!(plain, supervised, "threads={threads}");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn panicking_shard_is_restored_and_retried_deterministically() {
        for threads in [1usize, 4] {
            let fired = AtomicU32::new(0);
            let mut items: Vec<u64> = (0..40).collect();
            let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
            let pristine = Recovery::Pristine { retries: 1 };
            let (parts, _) = shard_map_recover(&mut items, threads, pristine, |i, shard| {
                // Mutate first, then panic once mid-shard on shard 0: the
                // supervisor must roll the mutation back before retrying.
                for x in shard.iter_mut() {
                    *x += 1;
                }
                if i == 0 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected shard panic");
                }
                shard.iter().sum::<u64>()
            })
            .unwrap();
            assert_eq!(
                items, expected,
                "threads={threads}: mutation applied exactly once"
            );
            assert_eq!(
                parts.iter().sum::<u64>(),
                expected.iter().sum::<u64>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_failure_for_the_lowest_shard() {
        let mut items: Vec<u8> = (0..32).collect();
        let err = shard_map_recover(&mut items, 4, Recovery::Pristine { retries: 2 }, |i, _| {
            if i >= 1 {
                panic!("shard {i} always fails");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.shard, 1, "lowest failing shard wins");
        assert_eq!(err.attempts, 3);
        assert!(err.message.contains("always fails"), "{}", err.message);
        // Display is human-readable for logs.
        assert!(err.to_string().contains("shard 1"));
    }

    #[test]
    fn timed_supervision_matches_results_and_reports_one_wall_per_shard() {
        for threads in [1usize, 4] {
            let mut a: Vec<u32> = (0..57).collect();
            let mut b = a.clone();
            let plain = shard_map(&mut a, threads, |i, s| (i, s.iter().sum::<u32>()));
            let (timed, walls) =
                shard_map_recover(&mut b, threads, PRISTINE, |i, s| (i, s.iter().sum::<u32>()))
                    .unwrap();
            assert_eq!(plain, timed, "threads={threads}");
            assert_eq!(walls.len(), timed.len(), "threads={threads}");
        }
    }

    #[test]
    fn non_string_panic_payloads_do_not_crash_the_supervisor() {
        let mut items = vec![0u8; 4];
        let err = shard_map_recover(&mut items, 1, Recovery::Pristine { retries: 0 }, |_, _| {
            std::panic::panic_any(42u32);
        })
        .unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }

    // ------------------------------------------------ recovery policies ---

    #[test]
    fn fail_fast_reports_the_first_panic_without_retrying() {
        for threads in [1usize, 4] {
            let attempts = AtomicU32::new(0);
            let mut items: Vec<u32> = (0..16).collect();
            let err = shard_map_recover(&mut items, threads, Recovery::FailFast, |i, _| {
                attempts.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    panic!("fail fast");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.shard, 0, "threads={threads}");
            assert_eq!(err.attempts, 1, "fail-fast budgets exactly one attempt");
        }
    }

    #[test]
    fn fail_fast_matches_pristine_when_nothing_panics() {
        for threads in [1usize, 4] {
            let mut a: Vec<u32> = (0..41).collect();
            let mut b = a.clone();
            let (fast, _) = shard_map_recover(&mut a, threads, Recovery::FailFast, |i, s| {
                for x in s.iter_mut() {
                    *x = x.wrapping_mul(3) ^ i as u32;
                }
                s.iter().sum::<u32>()
            })
            .unwrap();
            let (pristine, _) = shard_map_recover(&mut b, threads, PRISTINE, |i, s| {
                for x in s.iter_mut() {
                    *x = x.wrapping_mul(3) ^ i as u32;
                }
                s.iter().sum::<u32>()
            })
            .unwrap();
            assert_eq!(fast, pristine, "threads={threads}");
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn retry_unrestored_retries_read_only_shards() {
        let fired = AtomicU32::new(0);
        let mut items: Vec<u32> = (0..20).collect();
        let (sums, _) = shard_map_recover(
            &mut items,
            4,
            Recovery::RetryUnrestored { retries: 1 },
            |i, s| {
                if i == 2 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient read-only panic");
                }
                s.iter().sum::<u32>()
            },
        )
        .unwrap();
        assert_eq!(sums.iter().sum::<u32>(), (0..20).sum::<u32>());
        // Shard 2 entered the closure twice: the panicking attempt plus
        // the successful unrestored retry.
        assert_eq!(fired.load(Ordering::SeqCst), 2, "one panic, one retry");
    }

    // ----------------------------------------------------- pool contract ---

    /// The serial oracle the pool is checked against: `f(i, &mut
    /// items[range])` over `shard_bounds(n, threads)`, in shard order on
    /// the calling thread.
    fn serial_oracle<T, R>(
        items: &mut [T],
        threads: usize,
        f: impl Fn(usize, &mut [T]) -> R,
    ) -> Vec<R> {
        shard_bounds(items.len(), threads)
            .into_iter()
            .enumerate()
            .map(|(i, range)| f(i, &mut items[range]))
            .collect()
    }

    #[test]
    fn pool_matches_serial_oracle_plain() {
        for threads in [2usize, 3, 8] {
            for n in [0usize, 1, 7, 64, 103] {
                let mut a: Vec<u32> = (0..n as u32).collect();
                let mut b = a.clone();
                let bump = |i: usize, s: &mut [u32]| {
                    for x in s.iter_mut() {
                        *x = x.wrapping_add(i as u32);
                    }
                    (i, s.to_vec())
                };
                let pooled = shard_map(&mut a, threads, bump);
                let serial = serial_oracle(&mut b, threads, bump);
                assert_eq!(pooled, serial, "threads={threads} n={n}");
                assert_eq!(a, b, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn pool_matches_serial_oracle_supervised() {
        for threads in [2usize, 4] {
            let fired = AtomicU32::new(0);
            // Already spent: the oracle's run never panics.
            let spent = AtomicU32::new(1);
            let mut a: Vec<u64> = (0..50).collect();
            let mut b = a.clone();
            fn run(fired: &AtomicU32) -> impl Fn(usize, &mut [u64]) -> u64 + Sync + '_ {
                move |i: usize, s: &mut [u64]| {
                    for x in s.iter_mut() {
                        *x += 7;
                    }
                    if i == 1 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("one-shot");
                    }
                    s.iter().sum::<u64>()
                }
            }
            let pristine = Recovery::Pristine { retries: 2 };
            let (pooled, _) = shard_map_recover(&mut a, threads, pristine, run(&fired)).unwrap();
            let serial = serial_oracle(&mut b, threads, run(&spent));
            assert_eq!(fired.load(Ordering::SeqCst), 2, "one panic, one retry");
            assert_eq!(pooled, serial, "threads={threads}");
            // The panicked attempt's +7 was rolled back: it lands once.
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn pool_reuses_workers_across_dispatches() {
        // Warm enough workers for the widest dispatch below, then check
        // that repeated rounds neither spawn nor leak.
        warm(8);
        let before = pool_stats();
        assert!(
            before.spawned >= 7,
            "warm(8) must leave >=7 workers: {before:?}"
        );
        for round in 0..32 {
            let mut items: Vec<u64> = (0..64).collect();
            let sums = shard_map(&mut items, 8, |i, s| (i, s.iter().sum::<u64>()));
            assert_eq!(sums.len(), 8, "round {round}");
        }
        let after = pool_stats();
        assert_eq!(
            after.spawned, before.spawned,
            "32 rounds over a warm pool must not spawn: {before:?} -> {after:?}"
        );
        assert!(after.dispatches >= before.dispatches + 32);
    }

    #[test]
    fn unsupervised_panic_is_rethrown_after_the_round_retires() {
        let mut items: Vec<u32> = (0..32).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shard_map(&mut items, 4, |i, s| {
                if i == 2 {
                    panic!("boom in shard 2");
                }
                s.len()
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(panic_message(payload), "boom in shard 2");
    }
}
