//! Well-known metric names shared across crates.
//!
//! Counters are string-keyed, so a typo silently creates a second metric;
//! every name the pipeline emits lives here as a constant (or matches one
//! of the [`DYNAMIC_PREFIXES`] for families with a runtime-determined
//! suffix, like `funnel.pruned.<reason>`). The workload test-suite runs a
//! full scan + delta scan and asserts via [`is_known`] that nothing slipped
//! back into a stray string literal.

// ---------------------------------------------------------------------------
// Differential (delta) scanning.

/// Findings present in the new revision but not the old (differential scan).
pub const DELTA_NEW: &str = "delta.new";
/// Findings present in the old revision but gone from the new.
pub const DELTA_FIXED: &str = "delta.fixed";
/// Findings present in both revisions (matched by fingerprint or by
/// diff-mapped location).
pub const DELTA_PERSISTING: &str = "delta.persisting";
/// Would-be-new findings suppressed by a `--baseline` fingerprint set.
pub const DELTA_SUPPRESSED: &str = "delta.suppressed";
/// Persisting findings that needed the edit-script line-map fallback (their
/// fingerprint changed, but the diff maps the old location onto the new).
pub const DELTA_LINE_MAPPED: &str = "delta.line_mapped";
/// Findings present in both revisions whose location moved further than the
/// nearby-line threshold (same fingerprint, relocated definition).
pub const DELTA_CHURNED: &str = "delta.churned";

// ---------------------------------------------------------------------------
// Warning lifecycle (full-history replay, `vcheck history`).

/// Commits replayed by the lifecycle scanner.
pub const LIFE_COMMITS: &str = "life.commits";
/// Lifecycle `born` events (first sighting of a fingerprint).
pub const LIFE_BORN: &str = "life.born";
/// Lifecycle `persisting` events (finding survived a commit in place).
pub const LIFE_PERSISTING: &str = "life.persisting";
/// Lifecycle `churned` events (finding survived but relocated beyond the
/// nearby-line threshold).
pub const LIFE_CHURNED: &str = "life.churned";
/// Findings fixed during the replayed history (disappeared from the code).
pub const LIFE_FIXED: &str = "life.fixed";
/// Findings suppressed at the head revision (annotation or store entry).
pub const LIFE_SUPPRESSED: &str = "life.suppressed";
/// Findings still live (and unsuppressed) at the head revision.
pub const LIFE_LIVE: &str = "life.live";
/// Event records appended to the findings database.
pub const LIFE_DB_EVENTS: &str = "life.db.events";

// ---------------------------------------------------------------------------
// Suppression (inline `// vcheck:allow` annotations + the on-disk store).

/// Findings suppressed by an inline `// vcheck:allow(<scenario>)` annotation.
pub const SUPPRESS_INLINE: &str = "suppress.inline";
/// Findings suppressed by a store entry matched on its fingerprint.
pub const SUPPRESS_STORE: &str = "suppress.store";
/// Store matches that needed the nearby-line fallback (the suppressed
/// definition line was itself edited, moving its fingerprint).
pub const SUPPRESS_LINE_MAPPED: &str = "suppress.line_mapped";
/// Suppression stores recovered as cold (truncated/malformed/version skew).
pub const SUPPRESS_STORE_RECOVERED: &str = "suppress.store_recovered";
/// Suppression stores rejected by their content checksum.
pub const SUPPRESS_STORE_CORRUPT: &str = "suppress.store_corrupt";

// ---------------------------------------------------------------------------
// Detection funnel (paper Table 4 shape).

/// Raw unused-definition candidates out of the detector.
pub const FUNNEL_RAW: &str = "funnel.raw";
/// Candidates whose value crosses a scope boundary.
pub const FUNNEL_CROSS_SCOPE: &str = "funnel.cross_scope";
/// Candidates in functions whose analysis failed (kept, degraded).
pub const FUNNEL_FAILED: &str = "funnel.failed";
/// Findings that survived pruning and were reported.
pub const FUNNEL_REPORTED: &str = "funnel.reported";
/// Per-reason prune counters: `funnel.pruned.<reason>`.
pub const FUNNEL_PRUNED_PREFIX: &str = "funnel.pruned.";

/// Builds a `funnel.pruned.<reason>` counter name.
pub fn funnel_pruned(reason: &str) -> String {
    format!("{FUNNEL_PRUNED_PREFIX}{reason}")
}

// ---------------------------------------------------------------------------
// Detection / analysis stages.

/// Functions run through the unused-definition detector.
pub const DETECT_FUNCTIONS: &str = "detect.functions";

/// Dataflow solves started.
pub const DATAFLOW_SOLVES: &str = "dataflow.solves";
/// Fixpoint iterations across all dataflow solves.
pub const DATAFLOW_FIXPOINT_ITERATIONS: &str = "dataflow.fixpoint_iterations";
/// Worklist pushes across all dataflow solves.
pub const DATAFLOW_WORKLIST_PUSHES: &str = "dataflow.worklist_pushes";
/// Per-solve CFG block-count histogram.
pub const DATAFLOW_BLOCK_COUNT: &str = "dataflow.block_count";
/// Dataflow solves stopped early by the step budget.
pub const DATAFLOW_BUDGET_EXHAUSTED: &str = "dataflow.budget_exhausted";

/// Per-function summaries built from scratch (one dead-store/liveness
/// computation each).
pub const SUMMARY_BUILT: &str = "summary.built";
/// Per-function summaries served from a cache (detect outcome, serve warm
/// cache) instead of being rebuilt.
pub const SUMMARY_REUSED: &str = "summary.reused";
/// Summaries skipped by redundant-summary elimination: neither the callee
/// set nor the signature could reach any candidate's cross-scope question.
pub const SUMMARY_ELIMINATED: &str = "summary.eliminated";

/// Andersen pointer solves started.
pub const POINTER_SOLVES: &str = "pointer.solves";
/// Points-to propagations performed.
pub const POINTER_PROPAGATIONS: &str = "pointer.propagations";
/// Pointer-graph nodes.
pub const POINTER_NODES: &str = "pointer.nodes";
/// Pointer-graph copy edges.
pub const POINTER_COPY_EDGES: &str = "pointer.copy_edges";
/// Base points-to facts seeded into the solver.
pub const POINTER_FACTS: &str = "pointer.facts";
/// Pointer solves stopped early by the step budget.
pub const POINTER_BUDGET_EXHAUSTED: &str = "pointer.budget_exhausted";

// ---------------------------------------------------------------------------
// Ranking / authorship.

/// Familiarity scores that came back NaN and were clamped.
pub const RANK_FAMILIARITY_NAN: &str = "rank.familiarity_nan";
/// Histogram of DoK scores (in millis) over ranked findings.
pub const RANK_DOK_SCORE_MILLI: &str = "rank.dok_score_milli";

// ---------------------------------------------------------------------------
// Hardening (fault isolation, degradation, recovery).

/// Source files that failed to parse and were skipped.
pub const HARDEN_PARSE_FAILURES: &str = "harden.parse_failures";
/// Findings with no authorship attribution (unknown author fallback).
pub const HARDEN_AUTHORSHIP_UNKNOWN: &str = "harden.authorship_unknown";
/// Snapshot stores and findings databases loaded empty because they were
/// truncated, malformed or of another format version.
pub const HARDEN_SNAPSHOT_RECOVERED: &str = "harden.snapshot_recovered";
/// Snapshot stores and findings databases rejected by their content
/// checksum.
pub const HARDEN_SNAPSHOT_CORRUPT: &str = "harden.snapshot_corrupt";
/// Panics caught at the detect isolation boundary.
pub const HARDEN_POISONED_DETECT: &str = "harden.poisoned.detect";
/// Panics caught at the pointer isolation boundary.
pub const HARDEN_POISONED_POINTER: &str = "harden.poisoned.pointer";
/// Panics caught at the authorship isolation boundary.
pub const HARDEN_POISONED_AUTHORSHIP: &str = "harden.poisoned.authorship";
/// Liveness fell back to the degraded (syntactic) path.
pub const HARDEN_DEGRADED_LIVENESS: &str = "harden.degraded.liveness";
/// Pointer stage degraded to empty points-to facts.
pub const HARDEN_DEGRADED_POINTER: &str = "harden.degraded.pointer";
/// Prune stage degraded to pass-through.
pub const HARDEN_DEGRADED_PRUNE: &str = "harden.degraded.prune";
/// Rank stage degraded to input order.
pub const HARDEN_DEGRADED_RANK: &str = "harden.degraded.rank";
/// Store saves that failed — snapshot store, findings database or
/// suppression store (temp file removed, the old file kept).
pub const HARDEN_SNAPSHOT_SAVE_FAILED: &str = "harden.snapshot_save_failed";

// ---------------------------------------------------------------------------
// Serve (warm scan daemon).

/// Requests accepted off the wire (parsed as JSON objects).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Malformed or unknown requests answered with an error reply.
pub const SERVE_BAD_REQUESTS: &str = "serve.bad_requests";
/// Requests shed by the bounded queue under overload.
pub const SERVE_SHED: &str = "serve.shed";
/// Warm-state quarantines: a panic or checksum mismatch forced the next
/// request onto a cold rebuild.
pub const SERVE_STATE_REBUILDS: &str = "serve.state_rebuilds";
/// Scans whose deadline expired (partial, low-confidence report): serve
/// requests and `vcheck <dir> --deadline-ms` alike, counted by the
/// sentinel executor.
pub const SERVE_DEADLINE_EXCEEDED: &str = "serve.deadline_exceeded";
/// Function analyses served from the warm unit cache.
pub const SERVE_UNIT_HITS: &str = "serve.unit_hits";
/// Function analyses that ran because no warm unit applied.
pub const SERVE_UNIT_MISSES: &str = "serve.unit_misses";
/// Requests answered with an `"ok": true` reply.
pub const SERVE_REPLIES: &str = "serve.replies";
/// Requests answered with an error reply (bad request, shutdown drain, ...).
pub const SERVE_ERRORS: &str = "serve.errors";
/// Requests whose handler panicked and was quarantined behind an error
/// reply (the warm state is rebuilt on the next request).
pub const SERVE_QUARANTINED: &str = "serve.quarantined";
/// Warm cache units evicted by generational sweeps.
pub const SERVE_UNITS_SWEPT: &str = "serve.units_swept";
/// Gauge: the most recently assigned request trace id (monotonic from 1).
pub const SERVE_TRACE_ID: &str = "serve.trace_id";
/// Gauge: warm unit-cache hit rate of the latest scan (hits / lookups).
pub const SERVE_WARM_HIT_RATE: &str = "serve.warm_hit_rate";
/// Per-op request-latency histograms: `serve.latency.<op>` (µs).
pub const SERVE_LATENCY_PREFIX: &str = "serve.latency.";
/// Per-op request counters: `serve.op.<op>`.
pub const SERVE_OP_PREFIX: &str = "serve.op.";

/// Builds a `serve.latency.<op>` histogram name.
pub fn serve_latency(op: &str) -> String {
    format!("{SERVE_LATENCY_PREFIX}{op}")
}

/// Builds a `serve.op.<op>` counter name.
pub fn serve_op(op: &str) -> String {
    format!("{SERVE_OP_PREFIX}{op}")
}

// ---------------------------------------------------------------------------
// Parse recovery (error-recovering front end).

/// Regions the lexer could not tokenise (one per `Error` token).
pub const RECOVER_LEX_ERRORS: &str = "recover.lex_errors";
/// Parse errors survived by panic-mode recovery.
pub const RECOVER_PARSE_ERRORS: &str = "recover.parse_errors";
/// Statements replaced by poisoned placeholder regions.
pub const RECOVER_POISONED_STMTS: &str = "recover.poisoned_stmts";
/// Functions dropped whole because recovery could not salvage them.
pub const RECOVER_FUNCTIONS_DROPPED: &str = "recover.functions_dropped";
/// Files dropped whole (nothing in them survived recovery).
pub const RECOVER_FILES_DROPPED: &str = "recover.files_dropped";

// ---------------------------------------------------------------------------
// Sentinel (parallel scan executor).

/// Work units enqueued for this run.
pub const SENTINEL_UNITS: &str = "sentinel.units";
/// Units completed (scanned or replayed) this run.
pub const SENTINEL_UNITS_COMPLETED: &str = "sentinel.units_completed";
/// Units actually scanned by a worker this run.
pub const SENTINEL_UNITS_SCANNED: &str = "sentinel.units_scanned";
/// Units satisfied from the journal without rescanning.
pub const SENTINEL_UNITS_REPLAYED: &str = "sentinel.units_replayed";
/// Journal replay passes performed.
pub const SENTINEL_JOURNAL_REPLAYS: &str = "sentinel.journal_replays";
/// Torn (half-written) journal records skipped at replay.
pub const SENTINEL_TORN_RECORD_SKIPS: &str = "sentinel.torn_record_skips";
/// Journal records rejected by checksum/shape validation.
pub const SENTINEL_CORRUPT_RECORDS: &str = "sentinel.corrupt_records";
/// Duplicate journal records ignored at replay.
pub const SENTINEL_DUPLICATE_RECORDS: &str = "sentinel.duplicate_records";
/// Journals discarded wholesale (config/version mismatch).
pub const SENTINEL_JOURNAL_DISCARDED: &str = "sentinel.journal_discarded";
/// Journal files that could not be opened for append.
pub const SENTINEL_JOURNAL_OPEN_FAILURES: &str = "sentinel.journal_open_failures";
/// Workers revived after a panic escaped the unit isolation boundary.
pub const SENTINEL_WORKER_REPLACED: &str = "sentinel.worker_replaced";

// ---------------------------------------------------------------------------
// Allocation accounting (`vc_obs::alloc`).

/// Gauge: current live heap bytes (process-wide).
pub const MEM_LIVE_BYTES: &str = "mem.live_bytes";
/// Gauge: live-byte high-water mark (process-wide).
pub const MEM_HIGH_WATER_BYTES: &str = "mem.high_water_bytes";
/// Per-scope histogram families: `mem.<scope>.<kind>`.
pub const MEM_PREFIX: &str = "mem.";

/// Builds a `mem.<scope>.<kind>` histogram name (e.g. `mem.detect.alloc_bytes`).
pub fn mem(scope: &str, kind: &str) -> String {
    format!("{MEM_PREFIX}{scope}.{kind}")
}

// ---------------------------------------------------------------------------
// Registry.

/// Every fixed (non-dynamic) metric name the workspace emits.
pub const ALL: &[&str] = &[
    DELTA_NEW,
    DELTA_FIXED,
    DELTA_PERSISTING,
    DELTA_SUPPRESSED,
    DELTA_LINE_MAPPED,
    DELTA_CHURNED,
    LIFE_COMMITS,
    LIFE_BORN,
    LIFE_PERSISTING,
    LIFE_CHURNED,
    LIFE_FIXED,
    LIFE_SUPPRESSED,
    LIFE_LIVE,
    LIFE_DB_EVENTS,
    SUPPRESS_INLINE,
    SUPPRESS_STORE,
    SUPPRESS_LINE_MAPPED,
    SUPPRESS_STORE_RECOVERED,
    SUPPRESS_STORE_CORRUPT,
    FUNNEL_RAW,
    FUNNEL_CROSS_SCOPE,
    FUNNEL_FAILED,
    FUNNEL_REPORTED,
    DETECT_FUNCTIONS,
    DATAFLOW_SOLVES,
    DATAFLOW_FIXPOINT_ITERATIONS,
    DATAFLOW_WORKLIST_PUSHES,
    DATAFLOW_BLOCK_COUNT,
    DATAFLOW_BUDGET_EXHAUSTED,
    SUMMARY_BUILT,
    SUMMARY_REUSED,
    SUMMARY_ELIMINATED,
    POINTER_SOLVES,
    POINTER_PROPAGATIONS,
    POINTER_NODES,
    POINTER_COPY_EDGES,
    POINTER_FACTS,
    POINTER_BUDGET_EXHAUSTED,
    RANK_FAMILIARITY_NAN,
    RANK_DOK_SCORE_MILLI,
    HARDEN_PARSE_FAILURES,
    HARDEN_AUTHORSHIP_UNKNOWN,
    HARDEN_SNAPSHOT_RECOVERED,
    HARDEN_SNAPSHOT_CORRUPT,
    HARDEN_POISONED_DETECT,
    HARDEN_POISONED_POINTER,
    HARDEN_POISONED_AUTHORSHIP,
    HARDEN_DEGRADED_LIVENESS,
    HARDEN_DEGRADED_POINTER,
    HARDEN_DEGRADED_PRUNE,
    HARDEN_DEGRADED_RANK,
    HARDEN_SNAPSHOT_SAVE_FAILED,
    SERVE_REQUESTS,
    SERVE_BAD_REQUESTS,
    SERVE_SHED,
    SERVE_STATE_REBUILDS,
    SERVE_DEADLINE_EXCEEDED,
    SERVE_UNIT_HITS,
    SERVE_UNIT_MISSES,
    SERVE_REPLIES,
    SERVE_ERRORS,
    SERVE_QUARANTINED,
    SERVE_UNITS_SWEPT,
    SERVE_TRACE_ID,
    SERVE_WARM_HIT_RATE,
    RECOVER_LEX_ERRORS,
    RECOVER_PARSE_ERRORS,
    RECOVER_POISONED_STMTS,
    RECOVER_FUNCTIONS_DROPPED,
    RECOVER_FILES_DROPPED,
    SENTINEL_UNITS,
    SENTINEL_UNITS_COMPLETED,
    SENTINEL_UNITS_SCANNED,
    SENTINEL_UNITS_REPLAYED,
    SENTINEL_JOURNAL_REPLAYS,
    SENTINEL_TORN_RECORD_SKIPS,
    SENTINEL_CORRUPT_RECORDS,
    SENTINEL_DUPLICATE_RECORDS,
    SENTINEL_JOURNAL_DISCARDED,
    SENTINEL_JOURNAL_OPEN_FAILURES,
    SENTINEL_WORKER_REPLACED,
    MEM_LIVE_BYTES,
    MEM_HIGH_WATER_BYTES,
];

/// Name families whose suffix is determined at runtime.
pub const DYNAMIC_PREFIXES: &[&str] = &[
    FUNNEL_PRUNED_PREFIX,
    MEM_PREFIX,
    SERVE_LATENCY_PREFIX,
    SERVE_OP_PREFIX,
];

/// Whether `name` is a registered metric name: either one of the fixed
/// constants in [`ALL`] or an instance of a [`DYNAMIC_PREFIXES`] family.
pub fn is_known(name: &str) -> bool {
    ALL.contains(&name) || DYNAMIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate name constant: {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric names are lowercase dotted identifiers, got {name:?}"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
    }

    #[test]
    fn dynamic_families_resolve_via_is_known() {
        assert!(is_known(&funnel_pruned("init_store")));
        assert!(is_known(&mem("detect", "alloc_bytes")));
        assert!(is_known(&serve_latency("scan")));
        assert!(is_known(&serve_op("status")));
        assert!(is_known(DELTA_NEW));
        assert!(!is_known("typo.counter"));
        assert!(!is_known("funnel.raw2"));
    }
}
