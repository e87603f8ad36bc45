//! Allocation accounting: a zero-dependency counting [`GlobalAlloc`]
//! wrapper with thread-local *scope attribution*.
//!
//! Binaries opt in by installing the wrapper:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: vc_obs::alloc::CountingAlloc = vc_obs::alloc::CountingAlloc;
//! ```
//!
//! Every allocation/deallocation then updates (a) process-wide totals
//! (bytes allocated/freed, allocation count, live bytes, live high-water)
//! and (b) per-thread, per-*scope* counters, where the scope is a small
//! integer set by the innermost [`MemScope`] guard on that thread. The
//! pipeline wraps each stage (parse, pointer, detect, authorship, prune,
//! rank, …) and each sentinel worker unit in a scope, so `--stats` and
//! `--metrics-json` can answer "which stage allocates" the same way span
//! self-times answer "which stage burns time".
//!
//! When the guard drops it flushes the scope's deltas into the ambient
//! [`ObsSession`](crate::scope::ObsSession) as `mem.<scope>.*` histograms
//! and samples the global live-byte count into the tracer as a Chrome
//! counter event — but only when the wrapper is actually installed
//! ([`accounting_active`]), so library tests without it see no phantom
//! zero-valued metrics.
//!
//! Caveats, by design: frees are attributed to the scope that frees, not
//! the one that allocated (standard for scope-attributed accounting), and
//! the hot path is a handful of relaxed atomic adds plus `Cell` bumps — no
//! locks, no allocation, safe to run under the allocator itself.

use std::{
    alloc::{
        GlobalAlloc,
        Layout,
        System, //
    },
    cell::Cell,
    sync::atomic::{
        AtomicI64,
        AtomicU64,
        Ordering::Relaxed, //
    },
};

/// Unattributed work (thread default).
pub const SCOPE_OTHER: usize = 0;
/// Source parsing / program building.
pub const SCOPE_PARSE: usize = 1;
/// The whole-program Andersen solve.
pub const SCOPE_POINTER: usize = 2;
/// The detection stage (liveness + define sets), main thread.
pub const SCOPE_DETECT: usize = 3;
/// The authorship stage.
pub const SCOPE_AUTHORSHIP: usize = 4;
/// The pruning stage.
pub const SCOPE_PRUNE: usize = 5;
/// The ranking stage.
pub const SCOPE_RANK: usize = 6;
/// One sentinel worker scan unit (worker threads).
pub const SCOPE_WORKER: usize = 7;
/// Differential (delta) scan orchestration.
pub const SCOPE_DELTA: usize = 8;
/// Lifecycle (history) replay orchestration.
pub const SCOPE_HISTORY: usize = 9;
/// Number of scopes (array sizes below).
pub const N_SCOPES: usize = 10;

/// Stable lowercase label for a scope, used in `mem.<label>.*` metric
/// names.
pub fn scope_label(scope: usize) -> &'static str {
    match scope {
        SCOPE_PARSE => "parse",
        SCOPE_POINTER => "pointer",
        SCOPE_DETECT => "detect",
        SCOPE_AUTHORSHIP => "authorship",
        SCOPE_PRUNE => "prune",
        SCOPE_RANK => "rank",
        SCOPE_WORKER => "worker",
        SCOPE_DELTA => "delta",
        SCOPE_HISTORY => "history",
        _ => "other",
    }
}

// Process-wide totals.
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);

/// Per-thread, per-scope accounting. `Cell`s only — no `Drop` impl, so the
/// thread-local is const-initialized and its access never allocates (which
/// would recurse into the allocator).
struct ThreadMem {
    scope: Cell<usize>,
    allocs: [Cell<u64>; N_SCOPES],
    alloc_bytes: [Cell<u64>; N_SCOPES],
    freed_bytes: [Cell<u64>; N_SCOPES],
    live: [Cell<i64>; N_SCOPES],
    peak: [Cell<i64>; N_SCOPES],
}

thread_local! {
    static MEM: ThreadMem = const {
        ThreadMem {
            scope: Cell::new(SCOPE_OTHER),
            allocs: [const { Cell::new(0) }; N_SCOPES],
            alloc_bytes: [const { Cell::new(0) }; N_SCOPES],
            freed_bytes: [const { Cell::new(0) }; N_SCOPES],
            live: [const { Cell::new(0) }; N_SCOPES],
            peak: [const { Cell::new(0) }; N_SCOPES],
        }
    };
}

fn record_alloc(size: u64) {
    TOTAL_ALLOCS.fetch_add(1, Relaxed);
    TOTAL_ALLOC_BYTES.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Relaxed) + size as i64;
    HIGH_WATER_BYTES.fetch_max(live.max(0) as u64, Relaxed);
    // During thread teardown the TLS slot may be gone; totals still count.
    let _ = MEM.try_with(|m| {
        let s = m.scope.get().min(N_SCOPES - 1);
        m.allocs[s].set(m.allocs[s].get() + 1);
        m.alloc_bytes[s].set(m.alloc_bytes[s].get() + size);
        let live = m.live[s].get() + size as i64;
        m.live[s].set(live);
        if live > m.peak[s].get() {
            m.peak[s].set(live);
        }
    });
}

fn record_free(size: u64) {
    TOTAL_FREED_BYTES.fetch_add(size, Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Relaxed);
    let _ = MEM.try_with(|m| {
        let s = m.scope.get().min(N_SCOPES - 1);
        m.freed_bytes[s].set(m.freed_bytes[s].get() + size);
        m.live[s].set(m.live[s].get() - size as i64);
    });
}

/// The counting allocator. Delegates every operation to [`System`] and
/// records sizes on success.
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`; the accounting side effects touch
// only atomics and const-initialized TLS cells and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_free(layout.size() as u64);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record_free(layout.size() as u64);
            record_alloc(new_size as u64);
        }
        p
    }
}

/// Whether the counting allocator is installed in this process (true once
/// any allocation has been recorded — which, with the wrapper installed,
/// happens long before `main`).
pub fn accounting_active() -> bool {
    TOTAL_ALLOCS.load(Relaxed) > 0
}

/// Process-wide allocation totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total bytes freed.
    pub freed_bytes: u64,
    /// Currently live bytes (allocated minus freed).
    pub live_bytes: i64,
    /// Highest live-byte count ever observed.
    pub high_water_bytes: u64,
}

/// A point-in-time snapshot of the process totals.
pub fn global_stats() -> GlobalStats {
    GlobalStats {
        allocs: TOTAL_ALLOCS.load(Relaxed),
        alloc_bytes: TOTAL_ALLOC_BYTES.load(Relaxed),
        freed_bytes: TOTAL_FREED_BYTES.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        high_water_bytes: HIGH_WATER_BYTES.load(Relaxed),
    }
}

/// What one [`MemScope`] window observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeDelta {
    /// Allocations inside the window.
    pub allocs: u64,
    /// Bytes allocated inside the window.
    pub alloc_bytes: u64,
    /// Bytes freed inside the window.
    pub freed_bytes: u64,
    /// High-water of net-new live bytes relative to the window start.
    pub live_peak_bytes: u64,
}

/// Attributes this thread's allocations to `scope` until dropped, then
/// flushes the window's deltas as `mem.<scope>.*` histograms into the
/// ambient session (when the counting allocator is installed) and restores
/// the previous scope. The measured deltas are also available from
/// [`MemScope::finish`] for callers that want the numbers directly.
#[must_use = "dropping the guard immediately ends the attribution window"]
pub struct MemScope {
    scope: usize,
    prev: usize,
    base_allocs: u64,
    base_alloc_bytes: u64,
    base_freed_bytes: u64,
    base_live: i64,
}

impl MemScope {
    /// Opens an attribution window for `scope` on the current thread.
    pub fn enter(scope: usize) -> MemScope {
        let scope = scope.min(N_SCOPES - 1);
        MEM.try_with(|m| {
            let prev = m.scope.replace(scope);
            let base_live = m.live[scope].get();
            // Window-local peak: start the high-water mark at "now".
            m.peak[scope].set(base_live);
            MemScope {
                scope,
                prev,
                base_allocs: m.allocs[scope].get(),
                base_alloc_bytes: m.alloc_bytes[scope].get(),
                base_freed_bytes: m.freed_bytes[scope].get(),
                base_live,
            }
        })
        // `unwrap_or_else`, not `unwrap_or`: an eagerly-built fallback guard
        // would be *dropped* on the success path, and its `Drop` resets the
        // thread scope.
        .unwrap_or_else(|_| MemScope {
            scope,
            prev: SCOPE_OTHER,
            base_allocs: 0,
            base_alloc_bytes: 0,
            base_freed_bytes: 0,
            base_live: 0,
        })
    }

    /// The deltas observed so far in this window.
    pub fn delta(&self) -> ScopeDelta {
        MEM.try_with(|m| ScopeDelta {
            allocs: m.allocs[self.scope].get() - self.base_allocs,
            alloc_bytes: m.alloc_bytes[self.scope].get() - self.base_alloc_bytes,
            freed_bytes: m.freed_bytes[self.scope].get() - self.base_freed_bytes,
            live_peak_bytes: (m.peak[self.scope].get() - self.base_live).max(0) as u64,
        })
        .unwrap_or_default()
    }

    /// Ends the window now, returning its deltas (also flushed to the
    /// ambient session, exactly as the drop path does).
    pub fn finish(self) -> ScopeDelta {
        self.delta()
        // Drop runs here and flushes.
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        let delta = self.delta();
        let _ = MEM.try_with(|m| m.scope.set(self.prev));
        if !accounting_active() {
            return;
        }
        if let Some(session) = crate::scope::ObsSession::current() {
            let label = scope_label(self.scope);
            let reg = &session.registry;
            reg.observe(&crate::names::mem(label, "alloc_bytes"), delta.alloc_bytes);
            reg.observe(&crate::names::mem(label, "allocs"), delta.allocs);
            reg.observe(&crate::names::mem(label, "freed_bytes"), delta.freed_bytes);
            reg.observe(
                &crate::names::mem(label, "live_peak_bytes"),
                delta.live_peak_bytes,
            );
            let g = global_stats();
            reg.set_gauge(
                crate::names::MEM_HIGH_WATER_BYTES,
                g.high_water_bytes as f64,
            );
            reg.set_gauge(crate::names::MEM_LIVE_BYTES, g.live_bytes as f64);
            session
                .tracer
                .counter(crate::names::MEM_LIVE_BYTES, g.live_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary for this crate does NOT install the wrapper (unit
    // tests must not depend on link-time state), so exercise the recording
    // paths directly.

    #[test]
    fn record_paths_update_totals_and_scope_cells() {
        let before = global_stats();
        record_alloc(1000);
        record_free(400);
        let after = global_stats();
        assert_eq!(after.allocs - before.allocs, 1);
        assert_eq!(after.alloc_bytes - before.alloc_bytes, 1000);
        assert_eq!(after.freed_bytes - before.freed_bytes, 400);
        assert_eq!(after.live_bytes - before.live_bytes, 600);
        assert!(after.high_water_bytes >= 1000);
    }

    #[test]
    fn scope_window_measures_only_its_own_scope() {
        let outer = MemScope::enter(SCOPE_DETECT);
        record_alloc(100);
        {
            let inner = MemScope::enter(SCOPE_RANK);
            record_alloc(50);
            let d = inner.delta();
            assert_eq!(d.alloc_bytes, 50);
            assert_eq!(d.allocs, 1);
        }
        record_alloc(7);
        let d = outer.delta();
        assert_eq!(d.alloc_bytes, 107, "rank window bytes must not leak in");
        assert_eq!(d.allocs, 2);
    }

    #[test]
    fn live_peak_is_window_relative() {
        let w = MemScope::enter(SCOPE_PRUNE);
        record_alloc(300);
        record_free(300);
        record_alloc(120);
        let d = w.finish();
        assert_eq!(d.live_peak_bytes, 300);
        // A fresh window starts its peak from the current live level.
        let w2 = MemScope::enter(SCOPE_PRUNE);
        record_alloc(10);
        assert_eq!(w2.delta().live_peak_bytes, 10);
    }

    #[test]
    fn scope_labels_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..N_SCOPES {
            assert!(
                seen.insert(scope_label(s)),
                "duplicate label {}",
                scope_label(s)
            );
        }
        assert_eq!(scope_label(SCOPE_OTHER), "other");
        assert_eq!(scope_label(999), "other", "out-of-range clamps to other");
    }

    #[test]
    fn flush_reaches_installed_session_when_active() {
        // accounting_active() is true here iff some other test (or the
        // harness) already exercised record_alloc; force it.
        record_alloc(1);
        let session = crate::scope::ObsSession::new();
        {
            let _g = session.install();
            let w = MemScope::enter(SCOPE_AUTHORSHIP);
            record_alloc(2048);
            drop(w);
        }
        let snap = session.registry.snapshot();
        let hist = session
            .registry
            .histogram(&crate::names::mem("authorship", "alloc_bytes"));
        assert_eq!(hist.count, 1);
        assert!(hist.max >= 2048);
        assert!(snap
            .gauges
            .iter()
            .any(|(k, _)| k == crate::names::MEM_HIGH_WATER_BYTES));
        assert_eq!(session.tracer.counters().len(), 1);
    }
}
