//! A counting wrapper around the system allocator, installed by
//! `tests/alloc_budget.rs` to pin heap allocations per query and by the
//! `bench/` package's traced binary to report them.
//!
//! The counters are process-wide relaxed atomics: cheap enough to leave in
//! the hot path of a benchmark run, and exact when the measured region is
//! single-threaded (both installers drive the measured queries on one
//! thread for precisely this reason). This crate is the workspace's only
//! `unsafe` surface — the [`GlobalAlloc`] trait requires it — and the
//! wrapper adds no behavior beyond counting: every call forwards to
//! [`System`] untouched, so installing it cannot change any simulated
//! metric.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts calls.
///
/// Install it with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// Total heap allocations (alloc + realloc + alloc_zeroed calls) since
/// process start. Monotone; diff two reads to meter a region.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested from the allocator since process start
/// (requests, not live bytes — frees are not subtracted).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// True when [`CountingAlloc`] is actually installed as the global
/// allocator in this process: a probe allocation must move the counter.
/// Callers use this to emit `null` instead of a misleading zero when the
/// library was built with counting support but the binary never installed
/// the allocator.
pub fn is_installed() -> bool {
    let before = allocation_count();
    // `black_box` keeps the probe observable: Rust allocations are
    // removable, and in release LLVM elides an unobserved Vec entirely —
    // counter side effects included — which would misreport "not
    // installed" forever.
    let probe = std::hint::black_box(vec![0u8; 1]);
    let moved = allocation_count() != before;
    drop(std::hint::black_box(probe));
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary for this crate installs the allocator so the
    // counters are live here even though the workspace default is off.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counters_move_and_probe_detects_installation() {
        assert!(is_installed());
        let (a0, b0) = (allocation_count(), allocated_bytes());
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(v.len(), 1000);
        assert!(allocation_count() > a0, "allocation uncounted");
        assert!(allocated_bytes() >= b0 + 8000, "bytes uncounted");
    }
}
