//! `vcheck serve` — a crash-tolerant warm scan daemon.
//!
//! A long-lived loop speaking a JSON-lines protocol over stdin/stdout:
//! one request object per line, one reply object per line. The daemon
//! keeps parsed IR (a [`ParseCache`]), per-function detection results (a
//! content-keyed unit cache), and the previous response's fingerprints
//! warm, so re-scanning after a small edit re-analyzes only the dirty
//! function closure — changed functions plus their callers and callees —
//! while replying with bytes identical to a cold `vcheck scan` of the
//! same tree.
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
//! finding against the previous reply (`new` / `fixed` / `persisting`).
//!
//! ## Robustness (the degradation ladder)
//!
//! - **Deadline**: when a request's wall-clock deadline expires mid-scan,
//!   the remaining functions are skipped, every reported finding is marked
//!   `low_confidence`, a `deadline_exceeded` failure record is appended,
//!   and the reply says `"deadline_exceeded": true` — the daemon never
//!   hangs a request.
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
//! Unit-cache keys bind the *content*: file position, file name, file
//! bytes, function name and ordinal, the function's pointer fingerprint
//! (resolved indirect callees + degradation flag — a constant for the
//! common function with no indirect calls, so no pointer component is
//! solved on its behalf), the preprocessor defines, and the detect/harden
//! configuration. Each cached unit carries the function's [`FnSummary`]
//! alongside its candidates, so a warm hit hands the prune stage its
//! summary without rebuilding dataflow facts (counted under
//! `summary.reused`).
//! Any input that could change a function's analysis changes its key, so
//! a stale entry is unreachable rather than wrong. On top of the keys,
//! the dirty closure (functions in changed files, plus callers and
//! callees of changed functions by name) is re-analyzed unconditionally.
//! Both caches sweep generationally: entries not used by the current
//! request are dropped, bounding memory across thousands of requests.
//!
//! ## Telemetry (DESIGN.md §16)
//!
//! Every request is an observable unit: a monotonic `trace_id` (echoed in
//! the reply), a `serve.request` span tree (parse → dirty-closure →
//! detect → prune → rank → reply), a `serve.latency.<op>` histogram
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
    collections::{HashMap, HashSet},
    io::{self, BufRead, Write},
    panic::{catch_unwind, AssertUnwindSafe},
    path::{Path, PathBuf},
    sync::{Arc, Condvar, Mutex},
    time::{Duration, Instant},
};

use vc_dataflow::summary::{FnSummary, SigInterner};
use vc_ir::{
    ir::Callee,
    program::ParseCache,
    FileId,
    FuncId,
    Program, //
};
use vc_obs::{Json, ObsSession};
use vc_pointer::demand::DemandPointer;

use crate::{
    candidate::Candidate,
    delta::{fingerprint_ranked, Finding},
    detect::{demand_oracle, finalize_pointer_stage, run_unit, DetectOutcome, UnitOutcome},
    eventlog::{now_ms, EventLog},
    fnv1a,
    harden::{self, FailStage, FailureRecord},
    incremental::SnapshotStore,
    pipeline::{run_stages, Options},
    project::{load_dir_or_empty, Project},
    FNV_SEED,
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

/// One cached per-function detection result. Only clean units are cached:
/// poisoned (panicking) functions re-run on every request so their failure
/// records keep appearing, and deadline-skipped functions were never
/// analyzed at all.
#[derive(Clone, Debug)]
struct CachedUnit {
    candidates: Vec<Candidate>,
    /// The function's dataflow summary, reused by the prune stage on a
    /// warm hit instead of re-solving liveness/defs (`summary.reused`).
    summary: FnSummary,
}

/// Warm state carried between requests.
#[derive(Debug)]
struct Warm {
    /// The tree as of the last successful request.
    sources: Vec<(String, String)>,
    /// FNV checksum of `sources`; verified at the start of every request —
    /// a mismatch means the warm state was corrupted in memory and forces
    /// a quarantine.
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
    /// Current findings with their delta class.
    pub findings: Vec<(ServeDelta, Finding)>,
    /// Findings from the previous reply that are now gone.
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

fn tree_checksum(sources: &[(String, String)]) -> u64 {
    let mut h = FNV_SEED;
    for (name, content) in sources {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, content.as_bytes());
    }
    h
}

/// The part of the pointer analysis one function's detection can observe:
/// how its indirect calls resolve, and whether the demand solves degraded.
/// Two requests whose pointer analyses agree on this fingerprint give the
/// function byte-identical candidates. Functions with no indirect calls
/// cannot observe the pointer stage at all (the precise aliased-read set
/// is subsumed by the content-derived escape set), so they hash to a
/// constant and never force a component solve.
fn pointer_fingerprint(fid: FuncId, f: &vc_ir::Function, oracle: Option<&DemandPointer>) -> u64 {
    let mut h = FNV_SEED;
    let mut any = false;
    for bb in &f.blocks {
        for inst in &bb.insts {
            if let vc_ir::ir::Inst::Call {
                callee: Callee::Indirect(t),
                ..
            } = inst
            {
                any = true;
                let names = match oracle {
                    Some(o) => o.resolve_fn_ptr(fid, *t),
                    None => Vec::new(),
                };
                h = fnv1a(h, &t.0.to_le_bytes());
                for n in &names {
                    h = fnv1a(h, n.as_bytes());
                }
            }
        }
    }
    if !any {
        return fnv1a(h, &[0]);
    }
    let degraded = oracle.map(|o| o.degraded()).unwrap_or(false);
    fnv1a(h, &[1, oracle.is_some() as u8, degraded as u8])
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
    units: HashMap<u64, CachedUnit>,
    warm: Option<Warm>,
    /// Fingerprinted findings of the previous successful reply.
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
            units: HashMap::new(),
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
            .map(|d| Instant::now() + d);

        // Quarantine on checksum mismatch BEFORE trusting any cache.
        if let Some(w) = &self.warm {
            if tree_checksum(&w.sources) != w.checksum {
                self.quarantine();
            }
        }
        let rebuilt = self.warm.is_none();

        let project = load_dir_or_empty(&self.dir)?;
        let refs = project.source_refs();
        let opts = self.config.opts;
        let obs = self.obs.clone();
        let _guard = obs.install();
        let run_span = obs.span("pipeline.run", "pipeline");

        // --- Front end (warm): cached parse recovery, fresh assembly. ---
        let parse_span = obs.span("serve.parse", "serve");
        let parse_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_PARSE);
        let (prog, parse_errors, stats) =
            Program::build_recovering_cached(&refs, &self.config.defines, &mut self.parse_cache);
        parse_mem.finish();
        parse_span.end();

        // --- Dirty closure: changed files, plus callers/callees of their
        // functions by name. Everything in it re-runs unconditionally
        // (the content-keyed unit cache would catch these anyway; the
        // closure is belt and braces against key-collision bugs). ---
        let dirty_span = obs.span("serve.dirty_closure", "serve");
        let dirty = self.dirty_closure(&prog, &project);
        dirty_span.end();

        // --- Detection (warm): pointer stage fresh, units cached. ---
        let detect_span = obs.span("stage.detect", "pipeline");
        let detect_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_DETECT);
        let (outcome, deadline_exceeded, unit_hits, unit_misses) =
            self.detect_warm(&prog, &dirty, deadline);
        detect_mem.finish();
        let detect_time = detect_span.end();

        // Cache-effectiveness gauges: how much of the tree the warm state
        // actually saved this request.
        let lookups = unit_hits + unit_misses;
        obs.registry.set_gauge(
            vc_obs::names::SERVE_WARM_HIT_RATE,
            if lookups == 0 {
                0.0
            } else {
                unit_hits as f64 / lookups as f64
            },
        );
        obs.registry.set_gauge(
            vc_obs::names::SERVE_DIRTY_RATIO,
            // `dirty` holds names (possibly including undefined externals
            // named at call sites), so clamp into [0, 1].
            (dirty.len() as f64 / prog.funcs.len().max(1) as f64).min(1.0),
        );

        // --- Back end: shared with batch scan, byte-for-byte. ---
        let mut analysis = run_stages(
            &prog,
            &project.repo,
            &opts,
            obs.clone(),
            outcome,
            detect_time,
            run_span,
        );
        // Front-end failures splice ahead, exactly as in `vcheck scan`.
        analysis
            .report
            .splice_parse_failures(&obs.registry, &parse_errors, &stats);

        // --- Delta classification against the previous reply. ---
        let current = fingerprint_ranked(&prog, &analysis.ranked);
        let prev_set: HashSet<u64> = self
            .prev
            .as_ref()
            .map(|p| p.iter().map(|f| f.fingerprint.0).collect())
            .unwrap_or_default();
        let cur_set: HashSet<u64> = current.iter().map(|f| f.fingerprint.0).collect();
        let findings: Vec<(ServeDelta, Finding)> = current
            .iter()
            .map(|f| {
                let class = if prev_set.contains(&f.fingerprint.0) {
                    ServeDelta::Persisting
                } else {
                    ServeDelta::New
                };
                (class, f.clone())
            })
            .collect();
        let fixed: Vec<Finding> = self
            .prev
            .as_ref()
            .map(|p| {
                p.iter()
                    .filter(|f| !cur_set.contains(&f.fingerprint.0))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();

        // --- Commit warm state (only after full success). ---
        let sources = project.sources;
        let checksum = tree_checksum(&sources);
        self.warm = Some(Warm { sources, checksum });
        if !deadline_exceeded {
            // A partial scan must not masquerade as the delta baseline:
            // findings in skipped functions would read as "fixed" next
            // request.
            self.prev = Some(current);
        }

        Ok(ScanResponse {
            raw_candidates: analysis.raw_candidates,
            cross_scope_candidates: analysis.cross_scope_candidates,
            pruned: analysis.prune_outcome.total_pruned(),
            report: analysis.report,
            findings,
            fixed,
            deadline_exceeded,
            rebuilt,
            unit_hits,
            unit_misses,
        })
    }

    /// Function names defined in files whose content changed since the
    /// warm snapshot, expanded to callers and callees by name.
    fn dirty_closure(&self, prog: &Program, project: &Project) -> HashSet<String> {
        let warm = match &self.warm {
            Some(w) => w,
            None => return prog.funcs.iter().map(|f| f.name.clone()).collect(),
        };
        let old: HashMap<&str, &str> = warm
            .sources
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
            .collect();
        let mut changed_files: HashSet<&str> = HashSet::new();
        for (path, content) in &project.sources {
            if old.get(path.as_str()) != Some(&content.as_str()) {
                changed_files.insert(path);
            }
        }
        let mut dirty: HashSet<String> = HashSet::new();
        let mut changed_fns: Vec<FuncId> = Vec::new();
        for (i, _) in project.sources.iter().enumerate() {
            let fid = FileId(i as u32);
            if changed_files.contains(prog.source.name(fid)) {
                for (id, f) in prog.funcs_in_file(fid) {
                    dirty.insert(f.name.clone());
                    changed_fns.push(id);
                }
            }
        }
        // Callers of changed functions (by callee name).
        let call_index = prog.call_index();
        for name in dirty.clone() {
            if let Some(sites) = call_index.get(&name) {
                for site in sites {
                    dirty.insert(prog.func(site.caller).name.clone());
                }
            }
        }
        // Direct callees of changed functions.
        for fid in changed_fns {
            let f = prog.func(fid);
            for bb in &f.blocks {
                for inst in &bb.insts {
                    if let vc_ir::ir::Inst::Call {
                        callee: Callee::Direct(n),
                        ..
                    } = inst
                    {
                        dirty.insert(n.clone());
                    }
                }
            }
        }
        dirty
    }

    /// The warm detection pass: the demand pointer oracle is partitioned
    /// fresh (components solve lazily, only when an indirect call's
    /// fingerprint or detection needs them), per-function results come
    /// from the unit cache when clean and not dirty, and misses run through
    /// the shared unit runner. Hits and misses alike are recorded through
    /// [`DetectOutcome::fold`], so a cold cache reports exactly what
    /// `detect_program_hardened` does.
    fn detect_warm(
        &mut self,
        prog: &Program,
        dirty: &HashSet<String>,
        deadline: Option<Instant>,
    ) -> (DetectOutcome, bool, u64, u64) {
        let opts = &self.config.opts;
        let hconf = opts.harden;
        let mut out = DetectOutcome::default();
        let oracle = demand_oracle(prog, opts.detect, hconf);
        let interner = SigInterner::new(prog);
        let config_salt = {
            let mut h = FNV_SEED;
            h = fnv1a(h, format!("{:?}", opts.detect).as_bytes());
            h = fnv1a(h, format!("{:?}", hconf).as_bytes());
            for d in &self.config.defines {
                h = fnv1a(h, d.as_bytes());
            }
            h
        };

        vc_obs::counter_add(vc_obs::names::DETECT_FUNCTIONS, prog.funcs.len() as u64);
        // Per-file content hashes, computed once: the unit key must bind
        // the file's bytes, but hashing the whole file again for every
        // function in it would make the warm loop O(functions x bytes).
        let mut file_hash: HashMap<FileId, u64> = HashMap::new();
        let mut next_units: HashMap<u64, CachedUnit> = HashMap::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut deadline_exceeded = false;
        // Ordinal of each function within its file, so two same-named
        // (static) functions in one file get distinct unit keys.
        let mut file_ordinal: HashMap<FileId, u32> = HashMap::new();

        for fi in 0..prog.funcs.len() {
            let fid = FuncId(fi as u32);
            let f = prog.func(fid);
            let ordinal = {
                let slot = file_ordinal.entry(f.file).or_insert(0);
                let o = *slot;
                *slot += 1;
                o
            };
            if let Some(dl) = deadline {
                if Instant::now() >= dl {
                    deadline_exceeded = true;
                    vc_obs::counter_inc(vc_obs::names::SERVE_DEADLINE_EXCEEDED);
                    out.failures.push(FailureRecord {
                        stage: FailStage::Detect,
                        file: "<serve>".to_string(),
                        function: None,
                        message: format!(
                            "deadline exceeded after {fi} of {} functions; remaining functions \
                             skipped and all findings marked low-confidence",
                            prog.funcs.len()
                        ),
                    });
                    break;
                }
            }
            let pf = pointer_fingerprint(fid, f, oracle.as_ref());
            let key = {
                let mut h = config_salt;
                h = fnv1a(h, &f.file.0.to_le_bytes());
                h = fnv1a(h, prog.source.name(f.file).as_bytes());
                let ch = *file_hash.entry(f.file).or_insert_with(|| {
                    let content = prog
                        .source
                        .file(f.file)
                        .map(|s| s.content.as_str())
                        .unwrap_or("");
                    fnv1a(FNV_SEED, content.as_bytes())
                });
                h = fnv1a(h, &ch.to_le_bytes());
                h = fnv1a(h, f.name.as_bytes());
                h = fnv1a(h, &ordinal.to_le_bytes());
                fnv1a(h, &pf.to_le_bytes())
            };
            if !dirty.contains(&f.name) {
                if let Some(unit) = self.units.get(&key) {
                    hits += 1;
                    vc_obs::counter_inc(vc_obs::names::SERVE_UNIT_HITS);
                    vc_obs::counter_inc(vc_obs::names::SUMMARY_REUSED);
                    // Rebind: the function's global id may have shifted
                    // when other files gained or lost functions; its file,
                    // spans, and locals are pinned by the key.
                    let candidates = unit
                        .candidates
                        .iter()
                        .map(|c| Candidate {
                            func: fid,
                            ..c.clone()
                        })
                        .collect();
                    let mut summary = unit.summary.clone();
                    summary.sig = interner.sig_of(fid);
                    next_units.insert(key, unit.clone());
                    out.fold(prog, fid, Ok((summary, candidates)).into());
                    continue;
                }
            }
            misses += 1;
            vc_obs::counter_inc(vc_obs::names::SERVE_UNIT_MISSES);
            let detected = run_unit(
                prog,
                fid,
                oracle.as_ref(),
                &interner,
                hconf,
                vc_obs::MAIN_TID,
            );
            if let Ok((summary, candidates)) = &detected {
                next_units.insert(
                    key,
                    CachedUnit {
                        candidates: candidates.clone(),
                        summary: summary.clone(),
                    },
                );
            }
            out.fold(prog, fid, UnitOutcome::from(detected));
        }
        // Generational sweep: entries the current tree did not touch die.
        let swept = self
            .units
            .keys()
            .filter(|k| !next_units.contains_key(k))
            .count() as u64;
        vc_obs::counter_add(vc_obs::names::SERVE_UNITS_SWEPT, swept);
        self.units = next_units;
        finalize_pointer_stage(oracle.as_ref(), &mut out);
        if deadline_exceeded {
            for c in &mut out.candidates {
                c.low_confidence = true;
            }
        }
        (out, deadline_exceeded, hits, misses)
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
                        "dirty_ratio".into(),
                        gauge(vc_obs::names::SERVE_DIRTY_RATIO),
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
            resp.findings
                .iter()
                .filter(|(c, _)| *c == want)
                .map(|(_, f)| finding_json(f))
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
                let _ = writeln!(w, "{}", reply.to_string());
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
            let _ = writeln!(w, "{}", reply.to_string());
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
                let _ = writeln!(w, "{}", error_reply(dseq, "shutting down").to_string());
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
    use std::fs;

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
        let mut analysis = crate::pipeline::run_with_obs(&prog, &project.repo, opts, obs.clone());
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
    fn delta_classification_tracks_edits() {
        let dir = tree("delta", &[("a.c", BUGGY), ("b.c", CLEAN)]);
        let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        let first = eng.scan(None).unwrap();
        assert!(first.findings.iter().all(|(c, _)| *c == ServeDelta::New));
        let n = first.findings.len();
        assert!(n >= 1);
        // No edit: everything persists.
        let second = eng.scan(None).unwrap();
        assert!(second
            .findings
            .iter()
            .all(|(c, _)| *c == ServeDelta::Persisting));
        // Fix the bug: the finding flips to fixed.
        fs::write(
            dir.join("a.c"),
            "int lib_a(void);\nint has_bug(void) { return lib_a(); }\n",
        )
        .unwrap();
        let third = eng.scan(None).unwrap();
        assert_eq!(third.fixed.len(), n);
        assert!(third.findings.is_empty());
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
            .any(|f| f.message.contains("deadline exceeded")));
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
        assert!(full.findings.iter().any(|(c, _)| *c == ServeDelta::New));
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
            w.sources[0].1.push_str("/* torn */");
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
        for span in ["serve.request", "serve.parse", "serve.dirty_closure"] {
            assert!(trace_text.contains(span), "trace must contain {span}");
        }

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
