//! Allocation accounting for phase-scoped profiling.
//!
//! The rest of the workspace is deliberately allocation-unaware: the
//! construction crates are pure functions, and the service measures time
//! through the `onesched-trace` `Clock` abstraction. This crate adds
//! the missing axis — *where does memory churn happen* — without
//! perturbing any of that:
//!
//! - [`CountingAlloc`] wraps [`System`] and bumps two process-global
//!   relaxed atomics (allocation count, bytes requested) on every
//!   allocation path. It changes **no** allocation decisions, sizes, or
//!   addresses, so schedules and fingerprints are bit-identical with or
//!   without it — an invariant the service integration tests pin.
//! - [`snapshot`] reads the counters; [`AllocSnapshot::delta_since`]
//!   turns two reads into a phase attribution. Probes snapshot at phase
//!   edges and attach the deltas to the `construct.*` spans.
//!
//! Registration is a binary decision, not a library one: linking this
//! crate costs nothing until some binary declares
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc::new();`
//! (in this workspace, behind the root package's `profiling` feature).
//! Without registration the counters stay zero and [`enabled`] reports
//! `false`, so library callers can cheaply skip attribution.
//!
//! This is the one crate in the tree that needs `unsafe` (the
//! [`GlobalAlloc`] contract); the implementation is four forwarding
//! calls with counter bumps, and nothing here allocates, locks, or
//! reenters the allocator.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Total successful allocations (+ reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested by those allocations.
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Set by the first allocation that goes through [`CountingAlloc`];
/// proof that a binary actually registered it.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// A counting wrapper around the system allocator.
///
/// Counts allocation *activity* (calls and bytes requested), not live
/// bytes: frees are not subtracted, so deltas between two snapshots
/// measure churn — the quantity that tracks construction cost — rather
/// than residency. `realloc` counts as one allocation of the new size.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A counting allocator (const, so it can be a `static`).
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the only additions are relaxed atomic counter
// bumps, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size);
        }
        p
    }
}

#[inline]
fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if !ACTIVE.load(Ordering::Relaxed) {
        ACTIVE.store(true, Ordering::Relaxed);
    }
}

/// Whether a [`CountingAlloc`] is actually installed in this process
/// (i.e. at least one allocation has been counted). When `false`,
/// snapshots are all-zero and attribution can be skipped.
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// A point-in-time read of the process-global allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocations counted so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counters accumulated between `earlier` and `self` (saturating, so
    /// a stale or swapped pair degrades to zero rather than wrapping).
    pub fn delta_since(&self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Read the current allocation counters. Two relaxed loads — cheap
/// enough to call on every phase edge. Counters from concurrent threads
/// are included; single-threaded construction (the deterministic default
/// everywhere in this workspace) gets exact per-phase attribution.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests run without the allocator registered (the test
    // harness binary does not install it), so they exercise the snapshot
    // arithmetic, not the counting path. The counting path is covered by
    // the `profiling`-feature integration test in the root package.

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let a = AllocSnapshot {
            allocs: 10,
            bytes: 100,
        };
        let b = AllocSnapshot {
            allocs: 25,
            bytes: 400,
        };
        assert_eq!(
            b.delta_since(a),
            AllocSnapshot {
                allocs: 15,
                bytes: 300
            }
        );
        assert_eq!(a.delta_since(b), AllocSnapshot::default(), "saturates");
    }

    #[test]
    fn snapshot_is_monotone() {
        let a = snapshot();
        let _v: Vec<u64> = (0..64).collect();
        let b = snapshot();
        assert!(b.allocs >= a.allocs);
        assert!(b.bytes >= a.bytes);
    }
}
