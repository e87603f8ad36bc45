//! `vcheck serve` — a crash-tolerant warm scan daemon.
//!
//! A long-lived loop speaking a JSON-lines protocol over stdin/stdout:
//! one request object per line, one reply object per line. The daemon
//! keeps the project (sources and history, see [`Project::reload`]),
//! lowered IR per file (a [`ParseCache`]), per-function detection
//! results (a unit cache keyed by the lowered function), and the previous
//! response's fingerprints warm, so re-scanning after a small edit
//! re-imports only the edited files into a synthetic history, re-lowers
//! only the edited files (and files using a declaration the edit changed)
//! and
//! re-analyzes only the functions whose unit-cache lookup misses, while
//! replying with bytes identical to a cold `vcheck scan` of the same tree.
//! The back end runs fresh on every request, but costs what the
//! candidates cost: one signature table per request, shared by detection
//! and prune, and one walk over the direct calls that collects only the
//! call sites the candidates ask about.
//!
//! ## Protocol
//!
//! ```text
//! → {"op":"scan"}                          full scan of the project tree
//! → {"op":"update","files":["src/a.c"]}    rescan after editing files
//! → {"op":"status"}                        counters + warm-state summary
//! → {"op":"sleep","ms":50}                 diagnostic wedge (tests overload)
//! → {"op":"shutdown"}                      drain, flush snapshot, exit 0
//! ```
//!
//! Every request may carry `"deadline_ms": N` to override the configured
//! per-request deadline. Replies always carry `"ok"` and `"seq"` (the
//! server-assigned request number). Scan/update replies embed the full
//! report (`"csv"` and `"report"`) plus the delta classification of each
//! report row's finding against the previous reply (`new` / `fixed` /
//! `persisting`), by the fingerprint the row carries.
//!
//! ## Robustness (the degradation ladder)
//!
//! - **Deadline**: a request's wall-clock deadline runs from its arrival
//!   and is the sentinel executor's scan deadline
//!   ([`SentinelConfig::deadline`]), so the front end and the unit lookup
//!   count against it. When it expires, the cache
//!   misses not yet started are skipped (hits are already settled), every
//!   reported finding is marked `low_confidence`, a `deadline exceeded`
//!   failure record is appended, nothing new is cached, and the reply
//!   says `"deadline_exceeded": true` — the daemon never hangs a request.
//!   A partial scan is not evidence of a fix: its reply lists no `fixed`
//!   finding, and the last full reply stays the delta baseline, so the
//!   next full reply still reports real fixes.
//! - **Shed**: the reader thread enqueues at most `queue_depth` pending
//!   requests; beyond that it replies `{"ok":false,"shed":true}` without
//!   blocking (counted under `serve.shed`).
//! - **Quarantine**: each request runs inside `catch_unwind`; a panic (or
//!   a warm-state checksum mismatch detected at the start of a request)
//!   poisons the warm caches — the next request rebuilds cold (counted
//!   under `serve.state_rebuilds`). One bad request cannot corrupt the
//!   answers to the next.
//! - **Bad input**: malformed JSON, non-objects, and unknown ops get an
//!   error reply (`serve.bad_requests`), never a process exit.
//!
//! ## Warm-state invalidation
//!
//! A unit is the lowered function it was computed from. The
//! [`ParseCache`] already decides which functions are unchanged: it hands
//! out the same `Arc<Function>` while the function's file keeps its
//! position, name, bytes and preprocessor defines and no declaration its
//! lowering read from other files (a callee's prototype, global types,
//! struct layouts) changed. The unit cache is keyed by that `Arc`'s
//! address, and each entry holds the `Arc`, so the address cannot be
//! reused while the entry lives. A hit needs the same `Arc` and the same
//! pointer fingerprint, which the entry stores: how the function's
//! indirect calls resolve and whether the demand solves degraded. The
//! common function has no indirect call and no fingerprint (`None`), so
//! its hit walks none of its instructions, the same `Arc` having the same
//! instructions, and no pointer component is solved on its behalf; a
//! function with an indirect call re-derives its fingerprint against the
//! request's fresh oracle. Detection reads nothing else but the function's
//! signature id, and the detect/harden configuration is fixed for the
//! engine's life. A function lowered again misses even when its IR comes
//! out the same: one whose file was edited, moved or renamed, one whose
//! file consulted a changed declaration, and every function of a program
//! built outside the engine's parse cache.
//!
//! A hit costs a few reference-count bumps. Its candidates hold their
//! names and span lists behind `Arc`s, so rebinding them to the
//! function's current id allocates only the vector they move in (and the
//! callee name a return-value store's info carries). The
//! cached [`FnSummary`] is shared the same way, so the prune stage gets it
//! without rebuilding or copying it (counted under `summary.reused`); only
//! a shifted signature id copies it, once. Hits go to the sentinel
//! executor as known outcomes, and it runs the misses at one job
//! (`crates/core/tests/serve_diff.rs` checks warm against cold over seeded
//! cross-file edits). Both caches sweep generationally: a hit moves its
//! entry into the next generation, and entries not used by the current
//! request are dropped, bounding memory across thousands of requests.
//!
//! ## Telemetry (DESIGN.md §16)
//!
//! Every request is an observable unit: a monotonic `trace_id` (echoed in
//! the reply), a `serve.request` span tree (checksum → load → parse →
//! detect → authorship → prune → rank → fingerprint → checksum → reply;
//! `serve.fingerprint` is only the comparison with the previous reply),
//! a `serve.latency.<op>` histogram
//! sample, and exactly one outcome counter so the request funnel balances
//! at any instant: `serve.requests == serve.replies + serve.shed +
//! serve.errors + serve.quarantined`. `--trace` / `--metrics-json` flush
//! the Chrome trace and versioned metrics snapshot on shutdown/EOF, with
//! the same export schema as batch `vcheck scan`; `--event-log` appends a
//! size-rotated JSON-lines record per request (see [`crate::eventlog`]
//! and `vcheck tail`). The `status` reply carries per-op p50/p95/p99,
//! uptime, per-op counts, cache-effectiveness gauges, and
//! `schema_version` — and degrades gracefully before the first scan
//! (empty histograms render `null` percentiles, never NaN).
//!
//! Test hooks (used by the chaos harness): the `VCHECK_SERVE_FAILPOINTS`
//! environment variable arms `stage:function` failpoints for the life of
//! the daemon, and `VCHECK_SERVE_PANIC_SEQS` injects one-shot panics at
//! the named request numbers to exercise the quarantine path.

use std::{
    collections::HashSet,
    io::{self, BufRead, Write},
    panic::{catch_unwind, AssertUnwindSafe},
    path::{Path, PathBuf},
    sync::{Arc, Condvar, Mutex},
    time::{Duration, Instant},
};

use vc_dataflow::summary::FnSummary;
use vc_ir::{
    ir::Callee,
    program::ParseCache,
    FuncId,
    Function,
    Program, //
};
use vc_obs::{
    hash::{
        fnv1a,
        FNV_SEED, //
    },
    Json,
    ObsSession, //
};
use vc_pointer::{
    demand::DemandPointer,
    fasthash::MixMap, //
};

use crate::{
    candidate::Candidate,
    delta::Finding,
    detect::{DetectOutcome, UnitOutcome},
    eventlog::{now_ms, EventLog},
    harden::{self, FailStage},
    pipeline::{run_detected, Options},
    project::{load_dir_or_empty, Project},
    sentinel::{execute, Known, ScanDeadline, SentinelConfig},
    store::SnapshotStore,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Pipeline options (same knobs as batch `vcheck scan`).
    pub opts: Options,
    /// Preprocessor defines.
    pub defines: Vec<String>,
    /// Default per-request wall-clock deadline (`None` = unlimited);
    /// requests may override with `"deadline_ms"`.
    pub deadline: Option<Duration>,
    /// Maximum queued requests before the reader sheds.
    pub queue_depth: usize,
    /// Where the shutdown flush writes the latest findings snapshot
    /// (`None` disables the flush).
    pub snapshot: Option<PathBuf>,
    /// Where shutdown/EOF flushes the Chrome trace of every request span
    /// (same format as batch `vcheck scan --trace`).
    pub trace: Option<PathBuf>,
    /// Where shutdown/EOF flushes the versioned metrics snapshot (same
    /// `schema_version` + env-fingerprint shape as batch `--metrics-json`).
    pub metrics_json: Option<PathBuf>,
    /// Append-only JSON-lines event log, one record per request
    /// (`None` disables it). See [`crate::eventlog`].
    pub event_log: Option<PathBuf>,
    /// Event-log rotation threshold in bytes (0 = default 1 MiB).
    pub event_log_max_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            opts: Options::paper(),
            defines: Vec::new(),
            deadline: None,
            queue_depth: 64,
            snapshot: None,
            trace: None,
            metrics_json: None,
            event_log: None,
            event_log_max_bytes: 0,
        }
    }
}

/// One cached per-function detection result, keyed by the address of
/// the lowered function it was computed from. Only clean units are cached:
/// poisoned (panicking) functions re-run on every request so their failure
/// records keep appearing, and deadline-skipped functions were never
/// analyzed at all.
#[derive(Debug)]
struct CachedUnit {
    /// The unit's candidates; their names and span lists are shared, so a
    /// hit's rebound copies bump reference counts instead of copying them.
    candidates: Box<[Candidate]>,
    /// The function's dataflow summary, shared with the prune stage on a
    /// warm hit instead of re-solving liveness/defs (`summary.reused`).
    summary: Arc<FnSummary>,
    /// The lowered function the unit was computed from, as the parse cache
    /// handed it out. Holding it keeps its address, the unit's key, from
    /// being reused while the entry lives.
    func: Arc<Function>,
    /// The function's [`pointer_fingerprint`] when the unit ran: `None`
    /// for a function with no indirect call, whose hit then skips the
    /// walk (the same `func` has the same instructions).
    pointer: Option<u64>,
}

/// Warm state carried between requests.
#[derive(Debug)]
struct Warm {
    /// The project as of the last successful request: its sources and
    /// history, which the next request reloads in place
    /// ([`Project::reload`]).
    project: Project,
    /// [`project_checksum`] of the project; verified at the start of
    /// every request — a mismatch means the warm state was corrupted in
    /// memory and forces a quarantine.
    checksum: u64,
}

/// How a scan classified one finding relative to the previous reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeDelta {
    /// Present now, absent from the previous reply.
    New,
    /// Present in both.
    Persisting,
}

/// The result of one scan/update request, before JSON encoding.
#[derive(Debug)]
pub struct ScanResponse {
    /// The full report — identical bytes to a cold `vcheck scan`.
    pub report: crate::report::Report,
    /// The delta class of each `report.rows` entry, in row order.
    pub deltas: Vec<ServeDelta>,
    /// Findings from the previous reply that are now gone. Empty when the
    /// deadline expired: a partial scan is not evidence of a fix.
    pub fixed: Vec<Finding>,
    /// Whether the request's deadline expired (partial, low-confidence).
    pub deadline_exceeded: bool,
    /// Whether this request ran cold (no warm state, or quarantined).
    pub rebuilt: bool,
    /// Unit-cache hits / misses for this request.
    pub unit_hits: u64,
    /// Unit-cache misses for this request.
    pub unit_misses: u64,
    /// Funnel numbers for the summary line.
    pub raw_candidates: usize,
    /// Candidates surviving the cross-scope filter.
    pub cross_scope_candidates: usize,
    /// Candidates pruned.
    pub pruned: usize,
}

/// FNV checksum of a warm project: every source's name and bytes, and the
/// shape of its history — the commit count, each head write's path and
/// length, and each source's blamed line count. The shape is what
/// carrying the history between requests can tear (a head write amended
/// with other bytes, blame lines out of step with the file); hashing the
/// whole history would cost as much as importing it again.
fn project_checksum(project: &Project) -> u64 {
    let mut h = FNV_SEED;
    for (name, content) in &project.sources {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, content.as_bytes());
        h = fnv1a(h, &(project.repo.line_count(name) as u64).to_le_bytes());
    }
    let commits = project.repo.commits();
    h = fnv1a(h, &(commits.len() as u64).to_le_bytes());
    for write in commits.last().map_or(&[][..], |head| &head.writes) {
        h = fnv1a(h, write.path.as_bytes());
        h = fnv1a(h, &(write.content.len() as u64).to_le_bytes());
    }
    h
}

/// The part of the pointer analysis one function's detection can observe:
/// how its indirect calls resolve, and whether the demand solves degraded.
/// Two requests whose pointer analyses agree on this fingerprint give the
/// function byte-identical candidates. Functions with no indirect calls
/// cannot observe the pointer stage at all (the precise aliased-read set
/// is subsumed by the content-derived escape set), so they have none
/// (`None`) and never force a component solve.
fn pointer_fingerprint(fid: FuncId, f: &Function, oracle: Option<&DemandPointer>) -> Option<u64> {
    let mut targets = (f.blocks.iter().flat_map(|bb| &bb.insts))
        .filter_map(|inst| match inst {
            vc_ir::ir::Inst::Call {
                callee: Callee::Indirect(t),
                ..
            } => Some(*t),
            _ => None,
        })
        .peekable();
    targets.peek()?;
    let mut h = FNV_SEED;
    for t in targets {
        h = fnv1a(h, &t.0.to_le_bytes());
        for name in oracle.map(|o| o.resolve_fn_ptr(fid, t)).unwrap_or_default() {
            h = fnv1a(h, name.as_bytes());
        }
    }
    let degraded = oracle.is_some_and(|o| o.degraded());
    Some(fnv1a(h, &[oracle.is_some() as u8, degraded as u8]))
}

/// The warm scan engine: everything `vcheck serve` does to a request,
/// minus the wire protocol. Usable in-process (the perf harness and the
/// memory-stability test drive it directly).
pub struct ServeEngine {
    dir: PathBuf,
    config: ServeConfig,
    /// Cumulative observability session for the daemon's whole life:
    /// funnel counters, `serve.*` counters, recovery stats all accumulate
    /// here across requests.
    obs: ObsSession,
    parse_cache: ParseCache,
    /// Cached units by the address of their lowered function.
    units: MixMap<usize, CachedUnit>,
    warm: Option<Warm>,
    /// The report rows' findings of the last reply that met its deadline.
    prev: Option<Vec<Finding>>,
    /// One-shot request numbers that panic on arrival (test hook).
    panic_seqs: HashSet<u64>,
    /// Daemon start time (the `status` reply's uptime).
    start: Instant,
    /// Last assigned request trace id; monotonic from 1.
    next_trace_id: u64,
    /// The structured event log, shared with the reader thread (shed
    /// records are written there, off the worker).
    event_log: Option<Arc<Mutex<EventLog>>>,
}

impl ServeEngine {
    /// Creates an engine for `dir`. Fails (daemon startup error, exit 2)
    /// when the directory cannot be read at all.
    pub fn new(dir: &Path, config: ServeConfig) -> io::Result<ServeEngine> {
        // Probe the tree once so a bad path is a startup error, not a
        // per-request error loop.
        load_dir_or_empty(dir)?;
        let event_log = config
            .event_log
            .as_ref()
            .map(|p| Arc::new(Mutex::new(EventLog::open(p, config.event_log_max_bytes))));
        Ok(ServeEngine {
            dir: dir.to_path_buf(),
            config,
            obs: ObsSession::new(),
            parse_cache: ParseCache::default(),
            units: MixMap::default(),
            warm: None,
            prev: None,
            panic_seqs: HashSet::new(),
            start: Instant::now(),
            next_trace_id: 0,
            event_log,
        })
    }

    /// The engine's cumulative observability session.
    pub fn obs(&self) -> &ObsSession {
        &self.obs
    }

    /// Poisons all warm state: the next request rebuilds cold.
    pub fn quarantine(&mut self) {
        self.parse_cache.clear();
        self.units.clear();
        self.warm = None;
        self.obs
            .registry
            .add(vc_obs::names::SERVE_STATE_REBUILDS, 1);
    }

    /// Handles one scan/update request. `deadline_ms` overrides the
    /// configured per-request deadline.
    pub fn scan(&mut self, deadline_ms: Option<u64>) -> io::Result<ScanResponse> {
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.config.deadline)
            .map(|d| ScanDeadline {
                at: Instant::now() + d,
                label: "<serve>",
            });

        let opts = self.config.opts;
        let obs = self.obs.clone();
        let _guard = obs.install();

        // Quarantine on checksum mismatch BEFORE trusting any cache.
        let checksum_span = obs.span("serve.checksum", "serve");
        let torn = (self.warm.as_ref()).is_some_and(|w| project_checksum(&w.project) != w.checksum);
        checksum_span.end();
        if torn {
            self.quarantine();
        }
        let rebuilt = self.warm.is_none();

        // The warm project reloads in place; a failed load keeps it.
        let load_span = obs.span("serve.load", "serve");
        let project = match self.warm.take() {
            Some(mut warm) => match warm.project.reload(&self.dir) {
                Ok(()) => warm.project,
                Err(e) => {
                    self.warm = Some(warm);
                    return Err(e);
                }
            },
            None => load_dir_or_empty(&self.dir)?,
        };
        load_span.end();
        let refs = project.source_refs();

        // --- Front end (warm): cached parse recovery, fresh assembly. ---
        let parse_span = obs.span("serve.parse", "serve");
        let parse_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_PARSE);
        let (prog, parse_errors, stats) =
            Program::build_recovering_cached(&refs, &self.config.defines, &mut self.parse_cache);
        parse_mem.finish();
        parse_span.end();

        // --- The scan every entry point runs; detection is warm (pointer
        // stage fresh, units cached), the back end and the front-end
        // splice are batch scan's, byte for byte. ---
        let (mut unit_hits, mut unit_misses, mut deadline_exceeded) = (0, 0, false);
        let front = Some((parse_errors.as_slice(), &stats));
        let analysis = run_detected(&prog, &project.repo, &opts, obs.clone(), front, || {
            let (outcome, hits, misses) = self.detect_warm(&prog, deadline);
            (unit_hits, unit_misses) = (hits, misses);
            deadline_exceeded = outcome.deadline_exceeded;
            outcome
        });

        // Cache-effectiveness gauge: how much of the tree the warm state
        // actually saved this request.
        let hit_rate = unit_hits as f64 / (unit_hits + unit_misses).max(1) as f64;
        (obs.registry).set_gauge(vc_obs::names::SERVE_WARM_HIT_RATE, hit_rate);

        // --- Delta classification against the previous reply. A partial
        // scan is not evidence of a fix: it reports nothing fixed and does
        // not become the next request's baseline. ---
        let fingerprint_span = obs.span("serve.fingerprint", "serve");
        let rows = &analysis.report.rows;
        let prev_set: HashSet<u64> = (self.prev.iter().flatten())
            .map(|f| f.fingerprint.0)
            .collect();
        let deltas: Vec<ServeDelta> = (rows.iter())
            .map(|r| match prev_set.contains(&r.fingerprint.0) {
                true => ServeDelta::Persisting,
                false => ServeDelta::New,
            })
            .collect();
        let mut fixed = Vec::new();
        if !deadline_exceeded {
            let current: Vec<Finding> = rows.iter().map(|r| r.finding.clone()).collect();
            let cur_set: HashSet<u64> = current.iter().map(|f| f.fingerprint.0).collect();
            let prev = self.prev.replace(current).unwrap_or_default();
            fixed = (prev.into_iter())
                .filter(|f| !cur_set.contains(&f.fingerprint.0))
                .collect();
        }
        fingerprint_span.end();

        // --- Commit warm state (only after full success). ---
        let checksum_span = obs.span("serve.checksum", "serve");
        let checksum = project_checksum(&project);
        checksum_span.end();
        self.warm = Some(Warm { project, checksum });

        Ok(ScanResponse {
            raw_candidates: analysis.raw_candidates,
            cross_scope_candidates: analysis.cross_scope_candidates,
            pruned: analysis.prune_outcome.total_pruned(),
            report: analysis.report,
            deltas,
            fixed,
            deadline_exceeded,
            rebuilt,
            unit_hits,
            unit_misses,
        })
    }

    /// The warm detection pass: every function is looked up in the unit
    /// cache by its lowered function, and a hit must also match the
    /// function's pointer fingerprint under the executor's fresh demand
    /// pointer oracle (components solve lazily, only when an indirect
    /// call's fingerprint or detection needs them). Hits are known
    /// outcomes; the sentinel executor folds them in unit order with the
    /// misses it runs at one job, so a cold cache reports exactly what a
    /// sequential scan does. The misses' clean results then refill the
    /// cache.
    fn detect_warm(
        &mut self,
        prog: &Program,
        deadline: Option<ScanDeadline>,
    ) -> (DetectOutcome, u64, u64) {
        let opts = &self.config.opts;
        let hconf = opts.harden;
        let mut next_units: MixMap<usize, CachedUnit> =
            MixMap::with_capacity_and_hasher(prog.funcs.len(), Default::default());
        // The misses and their pointer fingerprints, in unit order.
        let mut misses: Vec<(FuncId, Option<u64>)> = Vec::new();
        let sconf = SentinelConfig {
            deadline,
            ..SentinelConfig::sequential()
        };
        let out = execute(prog, opts.detect, hconf, &sconf, |oracle, interner| {
            let mut known = Vec::with_capacity(prog.funcs.len());
            for (fi, func) in prog.funcs.iter().enumerate() {
                let fid = FuncId(fi as u32);
                let key = Arc::as_ptr(func) as usize;
                let cached = self.units.get(&key).map(|u| u.pointer);
                // A cached function with no indirect call has no
                // fingerprint to re-derive.
                let pointer = match cached {
                    Some(None) => None,
                    _ => pointer_fingerprint(fid, func, oracle),
                };
                if cached != Some(pointer) {
                    misses.push((fid, pointer));
                    known.push(Known::Run);
                    continue;
                }
                // The entry moves into the next generation; its summary and
                // its candidates' names and span lists are shared, not copied.
                let mut unit = self.units.remove(&key).expect("hit entry is cached");
                debug_assert!(Arc::ptr_eq(&unit.func, func));
                // Rebind: the function's global id may have shifted when other
                // files gained or lost functions; its file, spans, and locals
                // are the lowered function's own.
                let candidates = unit
                    .candidates
                    .iter()
                    .map(|c| Candidate {
                        func: fid,
                        ..c.clone()
                    })
                    .collect();
                // Signature ids are program-wide, so they shift when another
                // file adds a signature: only then is the summary copied, once,
                // and the copy cached.
                let sig = interner.sig_of(fid);
                if unit.summary.sig != sig {
                    unit.summary = Arc::new(FnSummary {
                        sig,
                        ..FnSummary::clone(&unit.summary)
                    });
                }
                let summary = Arc::clone(&unit.summary);
                next_units.insert(key, unit);
                known.push(Known::Settled(UnitOutcome::Done {
                    exhausted: summary.exhausted,
                    summary: Some(summary),
                    candidates,
                }));
            }
            known
        });
        let hits = (prog.funcs.len() - misses.len()) as u64;
        crate::counters_add(&[
            (vc_obs::names::SERVE_UNIT_HITS, hits),
            (vc_obs::names::SUMMARY_REUSED, hits),
            (vc_obs::names::SERVE_UNIT_MISSES, misses.len() as u64),
        ]);

        // Refill: every miss that completed is cached with its candidates
        // (contiguous in `out`, which is in unit order) and its summary.
        // Poisoned units have no summary and re-run on every request so
        // their failure records keep appearing. After a deadline nothing
        // is cached: the candidates are marked low-confidence.
        let all = &out.candidates;
        for &(fid, pointer) in misses.iter().filter(|_| !out.deadline_exceeded) {
            if let Some(summary) = out.summaries.shared(fid) {
                let mine =
                    all.partition_point(|c| c.func < fid)..all.partition_point(|c| c.func <= fid);
                let func = &prog.funcs[fid.0 as usize];
                let unit = CachedUnit {
                    candidates: all[mine].into(),
                    summary: Arc::clone(summary),
                    func: Arc::clone(func),
                    pointer,
                };
                next_units.insert(Arc::as_ptr(func) as usize, unit);
            }
        }
        // Generational sweep: entries the current tree did not touch die.
        // Hits already moved out of `self.units`, so what is left there
        // and absent from the next generation is exactly the old keys the
        // current tree no longer reaches.
        let swept = self
            .units
            .keys()
            .filter(|k| !next_units.contains_key(k))
            .count() as u64;
        vc_obs::counter_add(vc_obs::names::SERVE_UNITS_SWEPT, swept);
        self.units = next_units;
        (out, hits, misses.len() as u64)
    }

    /// Handles one protocol line. Returns the reply and whether the daemon
    /// should shut down after sending it.
    ///
    /// Every request is a first-class observable unit: it gets a monotonic
    /// `trace_id` (echoed in the reply and the `serve.trace_id` gauge), a
    /// `serve.request` span enclosing its whole lifetime, a
    /// `serve.latency.<op>` observation, exactly one outcome counter
    /// (`serve.replies` / `serve.errors` / `serve.quarantined` — together
    /// with `serve.shed` these partition `serve.requests`), and one
    /// event-log record.
    pub fn handle_line(&mut self, line: &str, seq: u64) -> (Json, bool) {
        self.obs.registry.add(vc_obs::names::SERVE_REQUESTS, 1);
        self.next_trace_id += 1;
        let trace_id = self.next_trace_id;
        self.obs
            .registry
            .set_gauge(vc_obs::names::SERVE_TRACE_ID, trace_id as f64);
        let started = Instant::now();
        let req_span = self.obs.span("serve.request", "serve");
        let (reply, shutdown, tel) = self.dispatch(line, seq);
        req_span.end();
        let latency_us = started.elapsed().as_micros() as u64;
        if tel.known_op {
            // Only protocol ops get latency histograms and per-op counters:
            // arbitrary op strings from the wire must not mint metric names.
            self.obs
                .registry
                .observe(&vc_obs::names::serve_latency(&tel.op), latency_us);
        }
        self.log_event(event_record(now_ms(), trace_id, seq, &tel, latency_us));
        (with_trace(reply, trace_id), shutdown)
    }

    /// Parses and executes one request; returns the reply, the shutdown
    /// flag, and the request's telemetry. Outcome counters are bumped here,
    /// *before* the reply is encoded, so a `status` reply's own funnel is
    /// balanced at the instant it reads the counters.
    fn dispatch(&mut self, line: &str, seq: u64) -> (Json, bool, ReqTelemetry) {
        let tel = ReqTelemetry::unknown();
        let req = match vc_obs::json::parse(line) {
            Ok(j @ Json::Obj(_)) => j,
            Ok(_) => {
                return (
                    self.bad_request(seq, "request must be a JSON object"),
                    false,
                    tel,
                )
            }
            Err(e) => {
                return (
                    self.bad_request(seq, &format!("malformed JSON: {e}")),
                    false,
                    tel,
                )
            }
        };
        let op = match req.get("op").and_then(Json::as_str) {
            Some(op) => op.to_string(),
            None => return (self.bad_request(seq, "missing \"op\""), false, tel),
        };
        match op.as_str() {
            "scan" | "update" => {
                let mut tel = self.known_op(&op);
                let deadline_ms = req
                    .get("deadline_ms")
                    .and_then(Json::as_i64)
                    .map(|n| n.max(0) as u64);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if self.panic_seqs.remove(&seq) {
                        panic!("injected serve fault at request {seq}");
                    }
                    self.scan(deadline_ms)
                }));
                match result {
                    Ok(Ok(resp)) => {
                        self.obs.registry.add(vc_obs::names::SERVE_REPLIES, 1);
                        tel.outcome = "ok";
                        tel.deadline_exceeded = resp.deadline_exceeded;
                        tel.rebuilt = resp.rebuilt;
                        tel.funnel =
                            Some((resp.raw_candidates as u64, resp.report.rows.len() as u64));
                        let reply_span = self.obs.span("serve.reply", "serve");
                        let reply = scan_reply(seq, &op, &resp);
                        reply_span.end();
                        (reply, false, tel)
                    }
                    Ok(Err(e)) => {
                        self.obs.registry.add(vc_obs::names::SERVE_ERRORS, 1);
                        (error_reply(seq, &format!("scan failed: {e}")), false, tel)
                    }
                    Err(payload) => {
                        // The request died mid-flight: warm state may be
                        // torn, so poison it all. The daemon survives.
                        self.quarantine();
                        self.obs.registry.add(vc_obs::names::SERVE_QUARANTINED, 1);
                        tel.outcome = "quarantined";
                        let msg = harden::panic_message(payload);
                        (
                            error_reply(
                                seq,
                                &format!("request panicked (state quarantined): {msg}"),
                            ),
                            false,
                            tel,
                        )
                    }
                }
            }
            "status" => {
                let mut tel = self.known_op(&op);
                tel.outcome = "ok";
                self.obs.registry.add(vc_obs::names::SERVE_REPLIES, 1);
                (self.status_reply(seq), false, tel)
            }
            "sleep" => {
                let mut tel = self.known_op(&op);
                tel.outcome = "ok";
                let ms = req
                    .get("ms")
                    .and_then(Json::as_i64)
                    .unwrap_or(0)
                    .clamp(0, 10_000);
                std::thread::sleep(Duration::from_millis(ms as u64));
                self.obs.registry.add(vc_obs::names::SERVE_REPLIES, 1);
                (
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("seq".into(), Json::Int(seq as i64)),
                        ("op".into(), Json::Str("sleep".into())),
                    ]),
                    false,
                    tel,
                )
            }
            "shutdown" => {
                let mut tel = self.known_op(&op);
                tel.outcome = "ok";
                self.flush_snapshot();
                self.obs.registry.add(vc_obs::names::SERVE_REPLIES, 1);
                (
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("seq".into(), Json::Int(seq as i64)),
                        ("op".into(), Json::Str("shutdown".into())),
                    ]),
                    true,
                    tel,
                )
            }
            other => (
                self.bad_request(seq, &format!("unknown op `{other}`")),
                false,
                tel,
            ),
        }
    }

    /// Marks `op` as a recognized protocol op: bumps its `serve.op.<op>`
    /// counter and returns a telemetry record carrying it.
    fn known_op(&self, op: &str) -> ReqTelemetry {
        self.obs.registry.add(&vc_obs::names::serve_op(op), 1);
        ReqTelemetry {
            op: op.to_string(),
            known_op: true,
            ..ReqTelemetry::unknown()
        }
    }

    /// Appends one record to the event log, if one is configured.
    fn log_event(&self, record: Json) {
        if let Some(log) = &self.event_log {
            log.lock().unwrap().append(&record);
        }
    }

    fn bad_request(&self, seq: u64, msg: &str) -> Json {
        self.obs.registry.add(vc_obs::names::SERVE_BAD_REQUESTS, 1);
        self.obs.registry.add(vc_obs::names::SERVE_ERRORS, 1);
        error_reply(seq, msg)
    }

    /// The `status` reply: request-funnel counters, per-op latency
    /// percentiles, cache effectiveness, and uptime. Must never panic —
    /// before the first scan every histogram is empty, and empty
    /// percentiles render as `null`, not NaN or garbage.
    fn status_reply(&self, seq: u64) -> Json {
        let reg = &self.obs.registry;
        let counters = [
            vc_obs::names::SERVE_REQUESTS,
            vc_obs::names::SERVE_REPLIES,
            vc_obs::names::SERVE_ERRORS,
            vc_obs::names::SERVE_QUARANTINED,
            vc_obs::names::SERVE_BAD_REQUESTS,
            vc_obs::names::SERVE_SHED,
            vc_obs::names::SERVE_STATE_REBUILDS,
            vc_obs::names::SERVE_DEADLINE_EXCEEDED,
            vc_obs::names::SERVE_UNIT_HITS,
            vc_obs::names::SERVE_UNIT_MISSES,
            vc_obs::names::SERVE_UNITS_SWEPT,
            vc_obs::names::FUNNEL_RAW,
            vc_obs::names::FUNNEL_CROSS_SCOPE,
            vc_obs::names::FUNNEL_FAILED,
            vc_obs::names::FUNNEL_REPORTED,
            vc_obs::names::HARDEN_POISONED_DETECT,
            vc_obs::names::HARDEN_DEGRADED_POINTER,
        ]
        .iter()
        .map(|n| ((*n).to_string(), Json::Int(reg.counter(n) as i64)))
        .collect::<Vec<_>>();
        let pruned: u64 = crate::prune::PruneReason::ALL
            .iter()
            .map(|r| reg.counter(&vc_obs::names::funnel_pruned(r.label())))
            .sum();
        // Per-op latency percentiles; `null` until the op has a sample.
        let ops: Vec<(String, Json)> = ["scan", "update", "status"]
            .iter()
            .map(|op| {
                let h = reg.histogram(&vc_obs::names::serve_latency(op));
                let pct = |v: u64| {
                    if h.count == 0 {
                        Json::Null
                    } else {
                        Json::Int(v as i64)
                    }
                };
                (
                    (*op).to_string(),
                    Json::Obj(vec![
                        (
                            "count".into(),
                            Json::Int(reg.counter(&vc_obs::names::serve_op(op)) as i64),
                        ),
                        ("p50_us".into(), pct(h.p50)),
                        ("p95_us".into(), pct(h.p95)),
                        ("p99_us".into(), pct(h.p99)),
                    ]),
                )
            })
            .collect();
        let gauge = |name: &str| Json::Float(reg.gauge(name).unwrap_or(0.0));
        let mut fields = vec![
            ("ok".into(), Json::Bool(true)),
            ("seq".into(), Json::Int(seq as i64)),
            ("op".into(), Json::Str("status".into())),
            (
                "schema_version".into(),
                Json::Int(vc_obs::METRICS_SCHEMA_VERSION),
            ),
            (
                "uptime_ms".into(),
                Json::Int(self.start.elapsed().as_millis() as i64),
            ),
            ("warm".into(), Json::Bool(self.warm.is_some())),
            ("counters".into(), Json::Obj(counters)),
            ("funnel_pruned".into(), Json::Int(pruned as i64)),
            ("ops".into(), Json::Obj(ops)),
            (
                "cache".into(),
                Json::Obj(vec![
                    (
                        "warm_hit_rate".into(),
                        gauge(vc_obs::names::SERVE_WARM_HIT_RATE),
                    ),
                    (
                        "units_swept".into(),
                        Json::Int(reg.counter(vc_obs::names::SERVE_UNITS_SWEPT) as i64),
                    ),
                ]),
            ),
        ];
        fields.push((
            "parse_cache".into(),
            Json::Obj(vec![
                ("files".into(), Json::Int(self.parse_cache.len() as i64)),
                ("hits".into(), Json::Int(self.parse_cache.hits() as i64)),
                ("misses".into(), Json::Int(self.parse_cache.misses() as i64)),
            ]),
        ));
        if let Some(log) = &self.event_log {
            fields.push((
                "event_log_dropped".into(),
                Json::Int(log.lock().unwrap().dropped() as i64),
            ));
        }
        Json::Obj(fields)
    }

    /// Persists the latest findings through the atomic snapshot writer
    /// (best-effort: a failure is counted, never fatal).
    fn flush_snapshot(&self) {
        let (path, prev) = match (&self.config.snapshot, &self.prev) {
            (Some(p), Some(f)) => (p, f),
            _ => return,
        };
        let store = SnapshotStore::from_findings(vc_vcs::CommitId(0), prev);
        let _g = self.obs.install();
        let _ = store.save(path);
    }

    /// Arms the env-driven test hooks (failpoints and one-shot panics).
    /// Called once by the daemon loop on its worker thread.
    fn arm_env_hooks(&mut self) {
        if let Ok(spec) = std::env::var("VCHECK_SERVE_FAILPOINTS") {
            for part in spec.split(';').filter(|s| !s.is_empty()) {
                if let Some((stage, needle)) = part.split_once(':') {
                    if let Some(stage) = FailStage::from_label(stage) {
                        // Leak the guard: armed for the daemon's lifetime.
                        std::mem::forget(harden::arm_failpoint(stage, needle));
                    }
                }
            }
        }
        if let Ok(spec) = std::env::var("VCHECK_SERVE_PANIC_SEQS") {
            self.panic_seqs = spec
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
        }
    }
}

fn error_reply(seq: u64, msg: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("seq".into(), Json::Int(seq as i64)),
        ("error".into(), Json::Str(msg.to_string())),
    ])
}

/// Per-request telemetry accumulated during dispatch, consumed by the
/// latency histogram and the event-log record.
struct ReqTelemetry {
    /// The request op (`"?"` when unparseable or unknown).
    op: String,
    /// Whether `op` is a recognized protocol op (gates the dynamic
    /// `serve.latency.<op>` / `serve.op.<op>` metric families).
    known_op: bool,
    /// `ok` / `error` / `quarantined` (the reader thread logs `shed`).
    outcome: &'static str,
    deadline_exceeded: bool,
    rebuilt: bool,
    /// Scan-request funnel deltas: (raw candidates, reported rows).
    funnel: Option<(u64, u64)>,
}

impl ReqTelemetry {
    fn unknown() -> ReqTelemetry {
        ReqTelemetry {
            op: "?".to_string(),
            known_op: false,
            outcome: "error",
            deadline_exceeded: false,
            rebuilt: false,
            funnel: None,
        }
    }
}

/// Stamps the request's trace id into a reply object.
fn with_trace(mut reply: Json, trace_id: u64) -> Json {
    if let Json::Obj(fields) = &mut reply {
        fields.push(("trace_id".into(), Json::Int(trace_id as i64)));
    }
    reply
}

/// One event-log record (see [`crate::eventlog`] for the read side).
fn event_record(ts_ms: u64, trace_id: u64, seq: u64, tel: &ReqTelemetry, latency_us: u64) -> Json {
    let mut fields = vec![
        ("ts_ms".into(), Json::Int(ts_ms as i64)),
        ("trace_id".into(), Json::Int(trace_id as i64)),
        ("seq".into(), Json::Int(seq as i64)),
        ("op".into(), Json::Str(tel.op.clone())),
        ("outcome".into(), Json::Str(tel.outcome.to_string())),
        ("latency_us".into(), Json::Int(latency_us as i64)),
        (
            "deadline_exceeded".into(),
            Json::Bool(tel.deadline_exceeded),
        ),
        ("rebuilt".into(), Json::Bool(tel.rebuilt)),
    ];
    if let Some((raw, reported)) = tel.funnel {
        fields.push((
            "funnel".into(),
            Json::Obj(vec![
                ("raw".into(), Json::Int(raw as i64)),
                ("reported".into(), Json::Int(reported as i64)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// A shed record, written by the reader thread (no trace id: the request
/// never reached the engine that assigns them).
fn shed_record(seq: u64) -> Json {
    Json::Obj(vec![
        ("ts_ms".into(), Json::Int(now_ms() as i64)),
        ("trace_id".into(), Json::Int(0)),
        ("seq".into(), Json::Int(seq as i64)),
        ("op".into(), Json::Str("?".into())),
        ("outcome".into(), Json::Str("shed".into())),
        ("latency_us".into(), Json::Int(0)),
        ("deadline_exceeded".into(), Json::Bool(false)),
        ("rebuilt".into(), Json::Bool(false)),
    ])
}

fn finding_json(f: &Finding) -> Json {
    Json::Obj(vec![
        ("fingerprint".into(), Json::Str(f.fingerprint.to_hex())),
        ("file".into(), Json::Str(f.file.clone())),
        ("line".into(), Json::Int(f.line as i64)),
        ("function".into(), Json::Str(f.function.clone())),
        ("variable".into(), Json::Str(f.variable.clone())),
        ("scenario".into(), Json::Str(f.scenario.clone())),
    ])
}

fn scan_reply(seq: u64, op: &str, resp: &ScanResponse) -> Json {
    let class = |want: ServeDelta| -> Json {
        Json::Arr(
            (resp.report.rows.iter().zip(&resp.deltas))
                .filter(|&(_, &c)| c == want)
                .map(|(r, _)| finding_json(r))
                .collect(),
        )
    };
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("seq".into(), Json::Int(seq as i64)),
        ("op".into(), Json::Str(op.to_string())),
        (
            "deadline_exceeded".into(),
            Json::Bool(resp.deadline_exceeded),
        ),
        ("rebuilt".into(), Json::Bool(resp.rebuilt)),
        ("unit_hits".into(), Json::Int(resp.unit_hits as i64)),
        ("unit_misses".into(), Json::Int(resp.unit_misses as i64)),
        (
            "funnel".into(),
            Json::Obj(vec![
                ("raw".into(), Json::Int(resp.raw_candidates as i64)),
                (
                    "cross_scope".into(),
                    Json::Int(resp.cross_scope_candidates as i64),
                ),
                ("pruned".into(), Json::Int(resp.pruned as i64)),
                ("reported".into(), Json::Int(resp.report.rows.len() as i64)),
            ]),
        ),
        (
            "delta".into(),
            Json::Obj(vec![
                ("new".into(), class(ServeDelta::New)),
                ("persisting".into(), class(ServeDelta::Persisting)),
                (
                    "fixed".into(),
                    Json::Arr(resp.fixed.iter().map(finding_json).collect()),
                ),
            ]),
        ),
        // The full report, bit-exact: `csv` + pretty-printed `report` are
        // the two halves of `Report::canonical_bytes()`.
        ("csv".into(), Json::Str(resp.report.to_csv())),
        ("report".into(), resp.report.to_json_value()),
    ])
}

/// Shared reader/worker queue state.
struct QueueState {
    queue: std::collections::VecDeque<(u64, String)>,
    eof: bool,
}

/// Runs the daemon loop over arbitrary I/O (stdin/stdout in production,
/// pipes in tests). Returns the process exit code: 0 on graceful shutdown
/// or input EOF — startup errors are the caller's to map to exit 2.
pub fn run_daemon<R, W>(mut engine: ServeEngine, input: R, output: W) -> i32
where
    R: BufRead + Send + 'static,
    W: Write + Send + 'static,
{
    engine.arm_env_hooks();
    let obs = engine.obs.clone();
    let shed_log = engine.event_log.clone();
    let depth = engine.config.queue_depth.max(1);
    let state = Arc::new((
        Mutex::new(QueueState {
            queue: std::collections::VecDeque::new(),
            eof: false,
        }),
        Condvar::new(),
    ));
    let out = Arc::new(Mutex::new(output));

    // Reader thread: lines in, queue (or shed) out. It never analyzes
    // anything, so a wedged scan cannot stop shed replies.
    let reader_state = Arc::clone(&state);
    let reader_out = Arc::clone(&out);
    let reader = std::thread::spawn(move || {
        let mut seq = 0u64;
        for line in input.lines() {
            let line = match line {
                Ok(l) => l,
                Err(_) => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            seq += 1;
            let (lock, cvar) = &*reader_state;
            let mut st = lock.lock().unwrap();
            if st.queue.len() >= depth {
                drop(st);
                // Requests before shed: mid-update observers may see a
                // request still "in flight", never an outcome without one.
                obs.registry.add(vc_obs::names::SERVE_REQUESTS, 1);
                obs.registry.add(vc_obs::names::SERVE_SHED, 1);
                if let Some(log) = &shed_log {
                    log.lock().unwrap().append(&shed_record(seq));
                }
                let mut w = reader_out.lock().unwrap();
                let reply = Json::Obj(vec![
                    ("ok".into(), Json::Bool(false)),
                    ("seq".into(), Json::Int(seq as i64)),
                    ("shed".into(), Json::Bool(true)),
                    (
                        "error".into(),
                        Json::Str(format!("queue full ({depth} pending)")),
                    ),
                ]);
                let _ = writeln!(w, "{reply}");
                let _ = w.flush();
                continue;
            }
            st.queue.push_back((seq, line));
            cvar.notify_one();
        }
        let (lock, cvar) = &*reader_state;
        lock.lock().unwrap().eof = true;
        cvar.notify_one();
    });

    // Worker loop (current thread): FIFO processing; thread-local
    // failpoints armed above therefore apply to every request.
    let exit_code = loop {
        let item = {
            let (lock, cvar) = &*state;
            let mut st = lock.lock().unwrap();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    break Some(item);
                }
                if st.eof {
                    break None;
                }
                st = cvar.wait(st).unwrap();
            }
        };
        let (seq, line) = match item {
            Some(x) => x,
            None => {
                // EOF without an explicit shutdown: still a graceful exit.
                engine.flush_snapshot();
                break 0;
            }
        };
        let (reply, shutdown) = engine.handle_line(&line, seq);
        {
            let mut w = out.lock().unwrap();
            let _ = writeln!(w, "{reply}");
            let _ = w.flush();
        }
        if shutdown {
            // Drain: everything still queued gets a terminal error reply
            // rather than silence. Drained requests still count — the
            // funnel (`requests == replies + shed + errors + quarantined`)
            // balances at any observation point, including the final
            // metrics flush.
            let (lock, _) = &*state;
            let drained: Vec<(u64, String)> = lock.lock().unwrap().queue.drain(..).collect();
            let mut w = out.lock().unwrap();
            for (dseq, _) in drained {
                engine.obs.registry.add(vc_obs::names::SERVE_REQUESTS, 1);
                engine.obs.registry.add(vc_obs::names::SERVE_ERRORS, 1);
                let tel = ReqTelemetry::unknown();
                engine.log_event(event_record(now_ms(), 0, dseq, &tel, 0));
                let _ = writeln!(w, "{}", error_reply(dseq, "shutting down"));
            }
            let _ = w.flush();
            break 0;
        }
    };
    // Telemetry flush: same export shapes as batch `vcheck scan`
    // (`--metrics-json` = versioned snapshot, `--trace` = Chrome trace).
    // Best-effort by design — the daemon is already exiting.
    if let Some(path) = &engine.config.metrics_json {
        let text = engine
            .obs
            .registry
            .snapshot()
            .to_json_export()
            .to_string_pretty();
        let _ = std::fs::write(path, text);
    }
    if let Some(path) = &engine.config.trace {
        let text = engine.obs.tracer.to_chrome_json().to_string_pretty();
        let _ = std::fs::write(path, text);
    }
    // The reader may still be blocked on stdin; do not join unless it
    // already saw EOF. Dropping the handle detaches it — the process exit
    // tears it down.
    if reader.is_finished() {
        let _ = reader.join();
    }
    exit_code
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::{collections::BTreeSet, fs};
    use vc_dataflow::summary::{SigId, SigInterner};

    /// A `Write` the test can keep reading after the daemon takes it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    const BUGGY: &str = "int lib_a(void);\n\
                         int has_bug(void) {\n\
                         int got = lib_a();\n\
                         got = 2;\n\
                         return got;\n\
                         }\n";
    const CLEAN: &str = "int clean_fn(void) { return 1; }\n";

    fn tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vc-serve-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for (f, text) in files {
            fs::write(dir.join(f), text).unwrap();
        }
        dir
    }

    /// A cold batch scan of the same tree, through the standard pipeline —
    /// the oracle the warm engine must match byte-for-byte.
    fn cold_canonical(dir: &Path, opts: &Options) -> Vec<u8> {
        let project = load_dir_or_empty(dir).unwrap();
        let (prog, errors, stats) = Program::build_recovering(&project.source_refs(), &[]);
        let obs = ObsSession::new();
        let mut analysis = crate::pipeline::run_sentinel(
            &prog,
            &project.repo,
            opts,
            &crate::sentinel::SentinelConfig::sequential(),
            obs.clone(),
        );
        analysis
            .report
            .splice_parse_failures(&obs.registry, &errors, &stats);
        analysis.report.canonical_bytes()
    }

    fn canonical_of(resp: &ScanResponse) -> Vec<u8> {
        resp.report.canonical_bytes()
    }

    #[test]
    fn warm_rescan_is_byte_identical_to_cold() {
        let dir = tree("warmcold", &[("a.c", BUGGY), ("b.c", CLEAN)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let first = eng.scan(None).unwrap();
        assert!(first.rebuilt);
        assert_eq!(
            canonical_of(&first),
            cold_canonical(&dir, &Options::paper())
        );
        // Unchanged tree: all units hit, bytes identical.
        let second = eng.scan(None).unwrap();
        assert!(!second.rebuilt);
        assert_eq!(second.unit_hits, 2, "has_bug + clean_fn both stay warm");
        assert_eq!(
            canonical_of(&second),
            cold_canonical(&dir, &Options::paper())
        );
        // Edit b.c: a.c's unit stays warm, report matches cold.
        fs::write(dir.join("b.c"), "int clean_fn(void) { return 2; }\n").unwrap();
        let third = eng.scan(None).unwrap();
        assert!(third.unit_hits >= 1, "unchanged file units stay warm");
        assert_eq!(
            canonical_of(&third),
            cold_canonical(&dir, &Options::paper())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn declaration_edit_in_another_file_invalidates_warm_unit() {
        // `b.c`'s IR depends on `a.c`: only a declared non-void callee gets
        // the implicit `[tmp] = ext(...)` store. Adding the prototype to
        // `a.c` leaves `b.c`'s bytes unchanged but lowers `b.c` again.
        let dir = tree(
            "decledit",
            &[
                ("a.c", "int other(void) { return 0; }\n"),
                ("b.c", "int f(int n) {\n ext(n);\n return 0;\n}\n"),
            ],
        );
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let first = eng.scan(None).unwrap();
        assert_eq!(first.raw_candidates, 0);
        fs::write(
            dir.join("a.c"),
            "int ext(int n);\nint other(void) { return 0; }\n",
        )
        .unwrap();
        let warm = eng.scan(None).unwrap();
        let cold = cold_canonical(&dir, &Options::paper());
        assert_eq!(
            warm.raw_candidates, 1,
            "the ignored `ext` result is a candidate"
        );
        assert_eq!(
            warm.unit_hits, 0,
            "f's lowered IR changed, so its unit misses"
        );
        assert_eq!(canonical_of(&warm), cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shifted_signature_ids_copy_cached_summaries() {
        let b = "int g(char *p) {\n int y = 1;\n y = 2;\n return y;\n}\n";
        let dir = tree(
            "sigshift",
            &[("a.c", "int first(int x) { return x; }\n"), ("b.c", b)],
        );
        let mut served = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let mut probed = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        served.scan(None).unwrap();
        probed.scan(None).unwrap();
        // A new leading signature in `a.c` shifts the `SigId` of `b.c`'s
        // cached `g`.
        fs::write(
            dir.join("a.c"),
            "int lead(long a, long b) { return 0; }\nint first(int x) { return x; }\n",
        )
        .unwrap();

        let warm = served.scan(None).unwrap();
        assert_eq!(warm.unit_hits, 1, "g stays warm");
        assert_eq!(canonical_of(&warm), cold_canonical(&dir, &Options::paper()));

        let project = load_dir_or_empty(&dir).unwrap();
        let (prog, _, _) =
            Program::build_recovering_cached(&project.source_refs(), &[], &mut probed.parse_cache);
        let cached_sigs: Vec<SigId> = probed.units.values().map(|u| u.summary.sig).collect();
        assert!(cached_sigs.contains(&SigId(1)), "g was cached under id 1");
        let (outcome, hits, _) = probed.detect_warm(&prog, None);
        assert_eq!(hits, 1);
        let interner = SigInterner::new(&prog);
        for fi in 0..prog.funcs.len() {
            let fid = FuncId(fi as u32);
            let summary = outcome
                .summaries
                .get(fid)
                .expect("every unit has a summary");
            assert_eq!(summary.sig, interner.sig_of(fid), "{}", prog.func(fid).name);
        }
        let g = FuncId(2);
        assert_eq!(prog.func(g).name, "g");
        assert_eq!(
            interner.sig_of(g),
            SigId(2),
            "g's signature id moved 1 -> 2"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn program_built_outside_the_parse_cache_misses_every_unit() {
        let dir = tree("outside", &[("a.c", BUGGY), ("b.c", CLEAN)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        eng.scan(None).unwrap();
        assert_eq!(eng.units.len(), 2, "both units are cached");
        // The same tree, lowered by a build of its own: equal IR, but not
        // the functions the engine's parse cache handed out.
        let project = load_dir_or_empty(&dir).unwrap();
        let (prog, _, _) = Program::build_recovering(&project.source_refs(), &[]);
        let (warm, hits, misses) = eng.detect_warm(&prog, None);
        assert_eq!((hits, misses), (0, 2));
        let opts = Options::paper();
        let cold = crate::sentinel::detect_program_sentinel(
            &prog,
            opts.detect,
            opts.harden,
            &SentinelConfig::sequential(),
        );
        assert_eq!(
            format!("{:?}", warm.candidates),
            format!("{:?}", cold.candidates)
        );
        assert_eq!(
            format!("{:?}", warm.failures),
            format!("{:?}", cold.failures)
        );
        assert!(!warm.candidates.is_empty(), "has_bug's dead store is found");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_share_cached_candidates_and_only_indirect_callers_keep_a_fingerprint() {
        let ptr = "int ha(void) { return 1; }\n\
                   int call_it(void) {\n int *fp = ha;\n int r = fp();\n r = 5;\n return r;\n}\n";
        let dir = tree("sharehit", &[("a.c", BUGGY), ("b.c", CLEAN), ("c.c", ptr)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        eng.scan(None).unwrap();
        // Sets of name addresses: equal sets mean shared names.
        let addr = |c: &Candidate| Arc::as_ptr(&c.var_name).cast::<u8>() as usize;
        let cached = |eng: &ServeEngine| -> BTreeSet<usize> {
            eng.units
                .values()
                .flat_map(|u| &u.candidates)
                .map(addr)
                .collect()
        };
        let first = cached(&eng);
        assert_eq!(first.len(), 2, "got and r");
        assert_eq!(eng.scan(None).unwrap().unit_hits, 4);
        assert_eq!(cached(&eng), first, "the next generation shares the names");
        // So do the rebound candidates a hit hands the executor.
        let project = load_dir_or_empty(&dir).unwrap();
        let refs = project.source_refs();
        let (prog, ..) = Program::build_recovering_cached(&refs, &[], &mut eng.parse_cache);
        let (outcome, hits, _) = eng.detect_warm(&prog, None);
        assert_eq!(hits, 4);
        assert_eq!(
            outcome.candidates.iter().map(addr).collect::<BTreeSet<_>>(),
            first
        );
        // Only the function calling through a pointer keeps a fingerprint.
        let fingerprinted = eng.units.values().filter(|u| u.pointer.is_some());
        let names: Vec<&str> = fingerprinted.map(|u| u.func.name.as_str()).collect();
        assert_eq!(names, ["call_it"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_classification_tracks_edits() {
        let dir = tree("delta", &[("a.c", BUGGY), ("b.c", CLEAN)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let first = eng.scan(None).unwrap();
        assert!(first.deltas.iter().all(|c| *c == ServeDelta::New));
        let n = first.deltas.len();
        assert!(n >= 1);
        // No edit: everything persists.
        let second = eng.scan(None).unwrap();
        assert!(second.deltas.iter().all(|c| *c == ServeDelta::Persisting));
        // Fix the bug: the finding flips to fixed.
        fs::write(
            dir.join("a.c"),
            "int lib_a(void);\nint has_bug(void) { return lib_a(); }\n",
        )
        .unwrap();
        let third = eng.scan(None).unwrap();
        assert_eq!(third.fixed.len(), n);
        assert!(third.deltas.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_reply_reports_no_finding_fixed() {
        let dir = tree("partial", &[("a.c", BUGGY), ("b.c", CLEAN)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let functions = |resp: &ScanResponse, want: ServeDelta| -> Vec<String> {
            (resp.report.rows.iter().zip(&resp.deltas))
                .filter(|&(_, &c)| c == want)
                .map(|(r, _)| r.function.clone())
                .collect()
        };
        let first = eng.scan(None).unwrap();
        assert_eq!(functions(&first, ServeDelta::New), ["has_bug"]);
        // Edit a.c so its functions miss, then scan with a deadline that
        // expires at once: the misses are skipped and no row is reported.
        fs::write(dir.join("a.c"), format!("{BUGGY}\n")).unwrap();
        let partial = eng.scan(Some(0)).unwrap();
        assert!(partial.deadline_exceeded);
        assert!(partial.report.rows.is_empty());
        assert!(partial.fixed.is_empty(), "a skipped function is not fixed");
        // The next full reply compares against the last full one.
        let full = eng.scan(None).unwrap();
        assert_eq!(functions(&full, ServeDelta::Persisting), ["has_bug"]);
        assert!(full.fixed.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_file_degrades_and_matches_cold() {
        let dir = tree(
            "corrupt",
            &[
                ("a.c", BUGGY),
                (
                    "bad.c",
                    "vc_mangled_t broken(void) {\nint x = 1;\nreturn x;\n}\n",
                ),
            ],
        );
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let warm = eng.scan(None).unwrap();
        assert_eq!(canonical_of(&warm), cold_canonical(&dir, &Options::paper()));
        assert!(warm
            .report
            .failures
            .iter()
            .any(|f| f.stage == FailStage::Parse));
        // Corrupt further mid-session: still matches cold.
        fs::write(dir.join("bad.c"), "@@ %% ?? garbage ## $$\n").unwrap();
        let worse = eng.scan(None).unwrap();
        assert_eq!(
            canonical_of(&worse),
            cold_canonical(&dir, &Options::paper())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_produces_partial_low_confidence_response() {
        let dir = tree("deadline", &[("a.c", BUGGY), ("b.c", CLEAN)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        // Zero deadline: expires before the first function.
        let resp = eng.scan(Some(0)).unwrap();
        assert!(resp.deadline_exceeded);
        assert!(resp.report.rows.iter().all(|r| r.low_confidence));
        assert!(resp
            .report
            .failures
            .iter()
            .any(|f| f.message.contains("deadline exceeded") && f.file == "<serve>"));
        assert_eq!(
            eng.obs
                .registry
                .counter(vc_obs::names::SERVE_DEADLINE_EXCEEDED),
            1
        );
        // A partial scan is not a delta baseline: the next full scan still
        // reports the finding as new, not as regressed-after-fixed.
        let full = eng.scan(None).unwrap();
        assert!(!full.deadline_exceeded);
        assert!(full.deltas.contains(&ServeDelta::New));
        assert_eq!(canonical_of(&full), cold_canonical(&dir, &Options::paper()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_quarantines_and_next_request_rebuilds_cold() {
        let dir = tree("panicq", &[("a.c", BUGGY)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let ok = eng.handle_line("{\"op\":\"scan\"}", 1);
        assert_eq!(ok.0.get("ok").and_then(Json::as_bool), Some(true));
        // Inject a one-shot panic at seq 2.
        eng.panic_seqs.insert(2);
        let (reply, shutdown) = eng.handle_line("{\"op\":\"scan\"}", 2);
        assert!(!shutdown);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert!(reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("quarantined"));
        assert_eq!(
            eng.obs
                .registry
                .counter(vc_obs::names::SERVE_STATE_REBUILDS),
            1
        );
        // Recovery: the next request rebuilds cold and matches the oracle.
        let resp = eng.scan(None).unwrap();
        assert!(resp.rebuilt);
        assert_eq!(canonical_of(&resp), cold_canonical(&dir, &Options::paper()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_forces_rebuild() {
        let dir = tree("cksum", &[("a.c", BUGGY)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        eng.scan(None).unwrap();
        // Corrupt the warm state in memory.
        if let Some(w) = &mut eng.warm {
            w.project.sources[0].1.push_str("/* torn */");
        }
        let resp = eng.scan(None).unwrap();
        assert!(
            resp.rebuilt,
            "checksum mismatch must trigger a cold rebuild"
        );
        assert_eq!(
            eng.obs
                .registry
                .counter(vc_obs::names::SERVE_STATE_REBUILDS),
            1
        );
        assert_eq!(canonical_of(&resp), cold_canonical(&dir, &Options::paper()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_warm_history_forces_rebuild() {
        let dir = tree("cksum-history", &[("a.c", BUGGY)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        eng.scan(None).unwrap();
        // Tear the warm history in memory: the head write and the blame
        // take other bytes while the sources stay as they were.
        if let Some(w) = &mut eng.warm {
            let torn = format!("{}\n/* torn */\n", w.project.sources[0].1);
            w.project.repo.amend_head_write("a.c", torn);
        }
        let resp = eng.scan(None).unwrap();
        assert!(
            resp.rebuilt,
            "a torn warm history must trigger a cold rebuild"
        );
        assert_eq!(canonical_of(&resp), cold_canonical(&dir, &Options::paper()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_and_unknown_requests_reply_with_errors() {
        let dir = tree("badreq", &[("a.c", CLEAN)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        for line in ["not json at all", "[1,2]", "{}", "{\"op\":\"fry\"}"] {
            let (reply, shutdown) = eng.handle_line(line, 1);
            assert!(!shutdown);
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(false),
                "{line}"
            );
        }
        assert_eq!(
            eng.obs.registry.counter(vc_obs::names::SERVE_BAD_REQUESTS),
            4
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_tree_scans_clean() {
        let dir = tree("emptytree", &[]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let resp = eng.scan(None).unwrap();
        assert!(resp.report.rows.is_empty());
        assert!(resp.report.failures.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_loop_scan_shutdown_roundtrip() {
        let dir = tree("loop", &[("a.c", BUGGY)]);
        let engine = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let input = io::Cursor::new(
            b"{\"op\":\"scan\"}\n{\"op\":\"status\"}\n{\"op\":\"shutdown\"}\n".to_vec(),
        );
        let out = SharedBuf::default();
        let code = run_daemon(engine, input, out.clone());
        assert_eq!(code, 0);
        let text = out.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let scan = vc_obs::json::parse(lines[0]).unwrap();
        assert_eq!(scan.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(scan.get("seq").and_then(Json::as_i64), Some(1));
        assert!(scan
            .get("csv")
            .and_then(Json::as_str)
            .unwrap()
            .contains("has_bug"));
        let status = vc_obs::json::parse(lines[1]).unwrap();
        assert_eq!(status.get("warm").and_then(Json::as_bool), Some(true));
        let bye = vc_obs::json::parse(lines[2]).unwrap();
        assert_eq!(bye.get("op").and_then(Json::as_str), Some("shutdown"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_before_first_scan_degrades_gracefully() {
        let dir = tree("coldstatus", &[("a.c", BUGGY)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        // No scan has ever run: every histogram is empty. The reply must
        // be well-formed (null percentiles, not NaN), never a panic.
        let (reply, shutdown) = eng.handle_line("{\"op\":\"status\"}", 1);
        assert!(!shutdown);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("warm").and_then(Json::as_bool), Some(false));
        assert_eq!(
            reply.get("schema_version").and_then(Json::as_i64),
            Some(vc_obs::METRICS_SCHEMA_VERSION)
        );
        assert!(reply.get("uptime_ms").and_then(Json::as_i64).unwrap() >= 0);
        let scan_ops = reply.get("ops").and_then(|o| o.get("scan")).unwrap();
        assert_eq!(scan_ops.get("count").and_then(Json::as_i64), Some(0));
        for pct in ["p50_us", "p95_us", "p99_us"] {
            assert_eq!(scan_ops.get(pct), Some(&Json::Null), "{pct} must be null");
        }
        // The status op itself already has one sample, so its percentiles
        // will be live on the *next* status. The text must never say NaN.
        assert!(!reply.to_string().contains("NaN"));
        // Funnel balance holds with only a status request processed.
        let reg = &eng.obs.registry;
        assert_eq!(
            reg.counter(vc_obs::names::SERVE_REQUESTS),
            reg.counter(vc_obs::names::SERVE_REPLIES)
                + reg.counter(vc_obs::names::SERVE_SHED)
                + reg.counter(vc_obs::names::SERVE_ERRORS)
                + reg.counter(vc_obs::names::SERVE_QUARANTINED)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_ids_are_monotonic_and_outcomes_partition_requests() {
        let dir = tree("traceid", &[("a.c", BUGGY)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        eng.panic_seqs.insert(3);
        let lines = [
            "{\"op\":\"scan\"}",
            "not json",
            "{\"op\":\"scan\"}", // panics (seq 3)
            "{\"op\":\"status\"}",
        ];
        let mut trace_ids = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let (reply, _) = eng.handle_line(line, i as u64 + 1);
            trace_ids.push(reply.get("trace_id").and_then(Json::as_i64).unwrap());
        }
        assert_eq!(trace_ids, vec![1, 2, 3, 4], "every reply, every outcome");
        let reg = &eng.obs.registry;
        assert_eq!(reg.counter(vc_obs::names::SERVE_REQUESTS), 4);
        assert_eq!(reg.counter(vc_obs::names::SERVE_REPLIES), 2); // scan + status
        assert_eq!(reg.counter(vc_obs::names::SERVE_ERRORS), 1); // bad JSON
        assert_eq!(reg.counter(vc_obs::names::SERVE_QUARANTINED), 1); // panic
        assert_eq!(
            reg.gauge(vc_obs::names::SERVE_TRACE_ID),
            Some(4.0),
            "gauge tracks the last assigned id"
        );
        // Latency histograms exist for the ops that ran.
        assert_eq!(
            reg.histogram(&vc_obs::names::serve_latency("scan")).count,
            2
        );
        assert_eq!(
            reg.histogram(&vc_obs::names::serve_latency("status")).count,
            1
        );
        // Every emitted serve metric name is registered.
        let snap = reg.snapshot();
        for (name, _) in snap.counters.iter() {
            assert!(vc_obs::names::is_known(name), "stray counter {name}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_keeps_warm_replies_byte_identical_and_flushes_files() {
        let dir = tree("telemetry", &[("a.c", BUGGY), ("b.c", CLEAN)]);
        let trace_path = dir.join("serve.trace.json");
        let metrics_path = dir.join("serve.metrics.json");
        let log_path = dir.join("serve.eventlog");
        let engine = ServeEngine::new(
            &dir,
            ServeConfig {
                trace: Some(trace_path.clone()),
                metrics_json: Some(metrics_path.clone()),
                event_log: Some(log_path.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let input = io::Cursor::new(
            b"{\"op\":\"scan\"}\n{\"op\":\"scan\"}\n{\"op\":\"shutdown\"}\n".to_vec(),
        );
        let out = SharedBuf::default();
        assert_eq!(run_daemon(engine, input, out.clone()), 0);

        // Warm reply bytes (csv + report) match a cold scan of the tree
        // even with full telemetry enabled.
        let text = out.text();
        let warm = vc_obs::json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true));
        let cold = cold_canonical(&dir, &Options::paper());
        let cold_text = String::from_utf8(cold).unwrap();
        let warm_csv = warm.get("csv").and_then(Json::as_str).unwrap();
        assert!(
            cold_text.starts_with(warm_csv),
            "warm csv must be a byte-exact prefix of the cold canonical bytes"
        );

        // The flushed metrics export carries the batch schema.
        let metrics = vc_obs::json::parse(&fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(
            metrics.get("schema_version").and_then(Json::as_i64),
            Some(vc_obs::METRICS_SCHEMA_VERSION)
        );
        assert_eq!(
            metrics.get("env").and_then(Json::as_str),
            Some(vc_obs::env_fingerprint().as_str())
        );
        assert!(metrics
            .get("histograms")
            .and_then(|h| h.get("serve.latency.scan"))
            .is_some());

        // The Chrome trace contains the request span tree.
        let trace_text = fs::read_to_string(&trace_path).unwrap();
        for span in [
            "serve.request",
            "serve.checksum",
            "serve.load",
            "serve.parse",
            "stage.detect",
            "serve.fingerprint",
        ] {
            assert!(trace_text.contains(span), "trace must contain {span}");
        }
        assert!(
            !trace_text.contains("serve.dirty_closure"),
            "no dirty closure"
        );

        // The event log has one record per request, trace ids monotonic.
        let events = crate::eventlog::read_events(&log_path);
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.trace_id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(events[0].op, "scan");
        assert!(events[0].rebuilt && !events[1].rebuilt);
        assert_eq!(events[2].op, "shutdown");
        assert!(events[0].funnel.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_loop_eof_is_graceful() {
        let dir = tree("eof", &[("a.c", CLEAN)]);
        let engine = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let input = io::Cursor::new(b"{\"op\":\"scan\"}\n".to_vec());
        assert_eq!(run_daemon(engine, input, SharedBuf::default()), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flushes_snapshot_with_current_findings() {
        let dir = tree("flush", &[("a.c", BUGGY)]);
        let snap = dir.join("serve.snap");
        let engine = ServeEngine::new(
            &dir,
            ServeConfig {
                snapshot: Some(snap.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let input = io::Cursor::new(b"{\"op\":\"scan\"}\n{\"op\":\"shutdown\"}\n".to_vec());
        assert_eq!(run_daemon(engine, input, SharedBuf::default()), 0);
        let store = SnapshotStore::load(&snap);
        assert!(!store.findings.is_empty(), "flush persisted the findings");
        let _ = fs::remove_dir_all(&dir);
    }
}
