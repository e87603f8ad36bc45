//! # vc-obs — observability substrate for the ValueCheck workspace
//!
//! The repo builds with **zero crates-io dependencies**, so everything the
//! pipeline needs for accounting lives here, hand-rolled on `std`:
//!
//! - [`metrics`] — a thread-safe registry of monotonic counters, gauges and
//!   log-scale histograms (p50/p95/max summaries), the substrate behind the
//!   paper's Tables 4–7 style funnel and timing accounting;
//! - [`trace`] — a span-based tracer recording nested timed spans,
//!   exportable as Chrome `trace_event` JSON (open the file in
//!   `chrome://tracing` or Perfetto);
//! - [`json`] — a minimal JSON value model, writer and parser shared by the
//!   metric and trace exporters and by the `history.json` / `truth.json`
//!   interchange formats;
//! - [`names`] — well-known metric name constants for metrics recorded in
//!   one crate and asserted or documented in another;
//! - [`profile`] — folded-stack (flamegraph) aggregation over completed
//!   span records, with exact self-time accounting and a canonical
//!   "logical" view that is identical regardless of worker count;
//! - [`alloc`] — a counting `#[global_allocator]` wrapper with per-thread
//!   scope attribution feeding `mem.*` histograms and trace counters;
//! - [`scope`] — an ambient per-thread [`ObsSession`] so hot paths deep in
//!   the analysis crates can record metrics without threading a registry
//!   through every signature;
//! - [`rng`] — a deterministic splitmix64 PRNG backing the workload
//!   generator and the seeded property-test loops;
//! - [`hash`] — FNV-1a, the one content hash of keys, checksums and
//!   fingerprints;
//! - [`budget`] — step/wall-clock budgets ([`Budget`], [`BudgetMeter`])
//!   enforced inside the dataflow and pointer fixpoint loops so pathological
//!   inputs degrade instead of hanging.
//!
//! All instrumentation is cheap when no session is installed: a thread-local
//! lookup and an immediate return.

pub mod alloc;
pub mod budget;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod names;
pub mod profile;
pub mod rng;
pub mod scope;
pub mod trace;

pub use alloc::{
    CountingAlloc,
    MemScope, //
};
pub use profile::{
    FoldedProfile,
    Weight, //
};

pub use budget::{
    Budget,
    BudgetMeter, //
};
pub use json::Json;
pub use metrics::{
    env_fingerprint,
    HistogramSummary,
    MetricsSnapshot,
    Registry,
    METRICS_SCHEMA_VERSION, //
};
pub use rng::SplitMix64;
pub use scope::{
    counter_add,
    counter_inc,
    gauge_set,
    observe,
    span,
    ObsSession,
    ScopeGuard, //
};
pub use trace::{
    Span,
    SpanRecord,
    Tracer,
    MAIN_TID, //
};
