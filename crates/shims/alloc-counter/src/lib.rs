//! A counting global allocator for allocation-gating benchmarks.
//!
//! [`CountingAlloc`] forwards every request to [`std::alloc::System`]
//! while counting allocation events and allocated bytes in relaxed
//! atomics. A binary installs it with `#[global_allocator]` and brackets
//! the measured region with [`CountingAlloc::snapshot`]; the delta is the
//! region's true heap traffic, across all threads.
//!
//! Like the other `crates/shims` members this is hermetic — no registry
//! dependencies — but unlike them it shims no external crate: it exists
//! because the workspace's library crates `forbid(unsafe_code)`, and a
//! `GlobalAlloc` impl is necessarily unsafe, so it lives here where the
//! bench binaries can opt in without weakening the libraries.

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of the counters; subtract two to measure a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocation events (alloc + alloc_zeroed + realloc) since process
    /// start.
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

impl AllocCounts {
    /// The counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The counting allocator. Construct as a `static` and install with
/// `#[global_allocator]`.
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A zeroed counter set (const, so it can initialize a `static`).
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The current counters.
    pub fn snapshot(&self) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn count(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is an allocation event: a grow can move and always
        // implies the region was not steady-state.
        self.count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_delta() {
        let a = AllocCounts {
            allocs: 10,
            bytes: 400,
        };
        let b = AllocCounts {
            allocs: 13,
            bytes: 1424,
        };
        assert_eq!(
            b.since(a),
            AllocCounts {
                allocs: 3,
                bytes: 1024
            }
        );
    }

    #[test]
    fn counting_allocator_counts_direct_use() {
        // Exercise the allocator directly (not installed globally here —
        // the bench binary does that).
        let counter = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            let p2 = counter.realloc(p, layout, 128);
            assert!(!p2.is_null());
            let grown = Layout::from_size_align(128, 8).unwrap();
            counter.dealloc(p2, grown);
        }
        let counts = counter.snapshot();
        assert_eq!(counts.allocs, 2);
        assert_eq!(counts.bytes, 64 + 128);
    }
}
