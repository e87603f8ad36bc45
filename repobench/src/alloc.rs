//! Heap high-water accounting over the measured window.
//!
//! [`WindowAlloc`] delegates every call to [`vc_obs::CountingAlloc`], so
//! the pipeline's own `mem.*` accounting keeps working, and additionally
//! tracks live bytes with a high-water mark that [`reset_peak`] can move to
//! "now". The process-wide high-water of `CountingAlloc` cannot be reset,
//! and would otherwise report the input generator's peak rather than the
//! pipeline's.

use std::{
    alloc::{
        GlobalAlloc,
        Layout, //
    },
    sync::atomic::{
        AtomicI64,
        Ordering::Relaxed, //
    },
};

use vc_obs::CountingAlloc;

// Statistics only: no other data is published through these, so `Relaxed`
// is enough.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

/// The benchmark's global allocator: `CountingAlloc` plus a resettable
/// live-byte high-water mark.
pub struct WindowAlloc;

// SAFETY: every call is forwarded unchanged to `CountingAlloc` (itself a
// pure delegation to `System`); the extra accounting touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for WindowAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        CountingAlloc.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = CountingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Starts a new window: the high-water mark drops to the current live
/// bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`]. Zero when
/// [`WindowAlloc`] is not the global allocator.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}
