//! Parallel scan execution with crash-safe journaled checkpoints.
//!
//! The paper scans multi-million-LoC projects where a single run is long
//! enough that OOM kills, crashes, and operator interrupts are the norm.
//! [`crate::harden`] isolates faults *within* a run; this module
//! makes the run itself durable and concurrent:
//!
//! - **Executor.** Per-function detection becomes a work queue of scan
//!   units (one function each) drained by N workers (`vcheck --jobs N`),
//!   the calling thread among them; at one job the calling thread drains
//!   it alone. Each unit runs once, through `detect::run_unit`, inside the
//!   `harden` isolation boundary. Detection is a deterministic function of
//!   the unit's IR, so a unit that panics would panic again: it settles at
//!   once as one [`FailureRecord`]. A panic outside that boundary does
//!   not kill its worker: the unit it was running settles the same way. A unit's time is bounded inside its fixpoints by the
//!   `harden` budgets (`--budget-ms`, `--budget-steps`), which keep its
//!   candidates as low-confidence. Results merge **deterministically** in
//!   unit (function-index) order, so report output is byte-identical
//!   regardless of `--jobs`.
//! - **Durability.** An append-only journal (`scan.journal`) records each
//!   unit's completion — candidates or failure — as one checksummed
//!   record, with an fsync every 16 records. `vcheck --resume` replays the
//!   journal, truncates any torn tail record (counted under
//!   `sentinel.torn_record_skips`), skips completed units, and produces the
//!   same report as an uninterrupted run. A fingerprint line binds the
//!   journal to the exact program and configuration it was recorded under;
//!   a mismatch discards the journal rather than mixing incompatible
//!   results.
//! - **Crash failpoint.** [`arm_crash_plan`] plants a process abort at a
//!   chosen journal offset — optionally mid-record, to manufacture torn
//!   writes — for the kill-at-random-point sweep in the workload crate.
//!
//! The demand pointer oracle is partitioned once (no solving) before any
//! unit is scheduled; components solve lazily under the oracle's own lock
//! when a unit's classification needs indirect-call callees. Component
//! solves are deterministic, so a resumed run merges bit-identical facts
//! with the replayed units.

use std::{
    any::Any,
    collections::{btree_map::Entry, BTreeMap, VecDeque},
    fs,
    io::{self, Seek as _, Write as _},
    mem,
    panic::{catch_unwind, AssertUnwindSafe},
    path::{Path, PathBuf},
    sync::{Arc, Mutex, MutexGuard},
    thread,
    time::Instant,
};

use vc_dataflow::summary::SigInterner;
use vc_ir::{
    FileId,
    FuncId,
    LineCol,
    LocalId,
    Program,
    Span,
    StoreInfo,
    VarKey, //
};
use vc_obs::{
    hash::{
        fnv1a,
        FNV_SEED, //
    },
    ObsSession,
    MAIN_TID, //
};
use vc_pointer::demand::DemandPointer;

use crate::{
    candidate::{
        Candidate,
        Scenario, //
    },
    detect::{
        demand_oracle,
        detect_failure,
        finalize_pointer_stage,
        run_unit,
        DetectConfig,
        DetectOutcome,
        UnitOutcome, //
    },
    harden::{
        self,
        FailStage,
        FailpointPlan,
        FailureRecord,
        HardenConfig, //
    },
};

/// On-disk format version of the scan journal. Bumped whenever the record
/// encoding changes; older journals are discarded, never parsed across
/// versions.
pub const JOURNAL_FILE_VERSION: u32 = 1;

/// The journal header line.
const JOURNAL_HEADER: &str = "valuecheck-journal v1";

/// Journal records written between fsyncs. Records go straight to the
/// file, so a process crash loses none of them; a machine crash can lose
/// at most the unsynced tail, and recovery rescans those units.
const FSYNC_EVERY: usize = 16;

/// Worker count, whole-scan deadline and durability of the parallel scan
/// executor.
#[derive(Clone, Debug, Default)]
pub struct SentinelConfig {
    /// Worker threads draining the unit queue. `0` means "available
    /// parallelism" (`vcheck --jobs` default).
    pub jobs: usize,
    /// The whole scan's wall-clock deadline (`vcheck --deadline-ms`,
    /// serve's per-request deadline), set by the caller from its own
    /// start, so loading and keying count against it. Once it passes,
    /// units not yet started are skipped, a `deadline exceeded after K of
    /// N functions` failure record is added, every candidate is marked
    /// low-confidence, and `serve.deadline_exceeded` is counted. `None`
    /// never reads the clock for it.
    pub deadline: Option<ScanDeadline>,
    /// Path of the append-only scan journal. `None` runs without
    /// durability.
    pub journal: Option<PathBuf>,
    /// Replay the journal and skip completed units instead of truncating
    /// it (`vcheck --resume`).
    pub resume: bool,
}

/// A whole-scan deadline and the caller that set it.
#[derive(Clone, Copy, Debug)]
pub struct ScanDeadline {
    /// When the deadline passes.
    pub at: Instant,
    /// The file the `deadline exceeded` failure record names: `<program>`
    /// for a batch scan, `<serve>` for a serve request.
    pub label: &'static str,
}

impl SentinelConfig {
    /// The worker count after resolving `jobs == 0` to the machine's
    /// available parallelism.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Sequential detection: one worker, the calling thread. The
    /// configuration behind [`pipeline::run`](crate::pipeline::run).
    pub fn sequential() -> SentinelConfig {
        SentinelConfig {
            jobs: 1,
            ..SentinelConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Crash failpoint (the kill-at-random-point sweep's trigger)
// ---------------------------------------------------------------------------

/// A planted process abort inside the journal writer, for crash testing.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Abort while appending this unit record (0-based count of unit
    /// records already durably written when the abort fires).
    pub abort_at_record: usize,
    /// How many bytes of that record to write (and fsync) before aborting.
    /// `0` crashes cleanly between records; a positive value manufactures a
    /// torn record, clamped so at least the trailing newline is missing.
    pub torn_bytes: usize,
}

static CRASH_PLAN: Mutex<Option<CrashPlan>> = Mutex::new(None);

/// Arms the process-wide crash plan. The next [`JournalWriter::append`]
/// reaching the planned record writes the configured prefix, fsyncs it, and
/// calls [`std::process::abort`]. Test-only by design — the crash harness
/// re-executes itself in a child process and arms the plan there.
pub fn arm_crash_plan(plan: CrashPlan) {
    *lock(&CRASH_PLAN) = Some(plan);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker that panicked while holding a lock must not cascade into
    // every other thread: the data is still usable (all writes under these
    // locks are atomic at the record level).
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Escapes a string for the tab/`|`/`,`-delimited journal grammar.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '|' => out.push_str("\\p"),
            ',' => out.push_str("\\c"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'p' => out.push('|'),
            'c' => out.push(','),
            _ => return None,
        }
    }
    Some(out)
}

fn enc_span(s: &Span) -> String {
    format!(
        "{}:{}.{}:{}.{}",
        s.file.0, s.start.line, s.start.col, s.end.line, s.end.col
    )
}

fn dec_span(s: &str) -> Option<Span> {
    let mut parts = s.split(':');
    let file = FileId(parts.next()?.parse().ok()?);
    let pos = |p: &str| -> Option<LineCol> {
        let (l, c) = p.split_once('.')?;
        Some(LineCol::new(l.parse().ok()?, c.parse().ok()?))
    };
    let start = pos(parts.next()?)?;
    let end = pos(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some(Span { file, start, end })
}

fn enc_key(k: VarKey) -> String {
    match k {
        VarKey::Local(l) => format!("L{}", l.0),
        VarKey::Field(l, f) => format!("F{}.{}", l.0, f),
    }
}

fn dec_key(s: &str) -> Option<VarKey> {
    if let Some(rest) = s.strip_prefix('L') {
        return Some(VarKey::Local(LocalId(rest.parse().ok()?)));
    }
    let rest = s.strip_prefix('F')?;
    let (l, f) = rest.split_once('.')?;
    Some(VarKey::Field(LocalId(l.parse().ok()?), f.parse().ok()?))
}

fn enc_scenario(s: &Scenario) -> String {
    match s {
        Scenario::Overwritten => "O".to_string(),
        Scenario::Param { index } => format!("P{index}"),
        Scenario::RetVal { callees } => {
            let cs: Vec<String> = callees.iter().map(|c| esc(c)).collect();
            format!("R{}", cs.join(","))
        }
    }
}

fn dec_scenario(s: &str) -> Option<Scenario> {
    if s == "O" {
        return Some(Scenario::Overwritten);
    }
    if let Some(rest) = s.strip_prefix('P') {
        return Some(Scenario::Param {
            index: rest.parse().ok()?,
        });
    }
    let rest = s.strip_prefix('R')?;
    let callees = if rest.is_empty() {
        Arc::default()
    } else {
        rest.split(',').map(unesc).collect::<Option<_>>()?
    };
    Some(Scenario::RetVal { callees })
}

fn enc_info(i: &StoreInfo) -> String {
    match i {
        StoreInfo::Normal => "N".to_string(),
        StoreInfo::ParamInit { index } => format!("P{index}"),
        StoreInfo::RetVal {
            callee,
            synthetic_dst,
        } => format!("R{}!{}", esc(callee), u8::from(*synthetic_dst)),
        StoreInfo::SelfOffset { delta } => format!("S{delta}"),
    }
}

fn dec_info(s: &str) -> Option<StoreInfo> {
    if s == "N" {
        return Some(StoreInfo::Normal);
    }
    if let Some(rest) = s.strip_prefix('P') {
        return Some(StoreInfo::ParamInit {
            index: rest.parse().ok()?,
        });
    }
    if let Some(rest) = s.strip_prefix('R') {
        let (callee, synth) = rest.rsplit_once('!')?;
        return Some(StoreInfo::RetVal {
            callee: unesc(callee)?,
            synthetic_dst: match synth {
                "0" => false,
                "1" => true,
                _ => return None,
            },
        });
    }
    let rest = s.strip_prefix('S')?;
    Some(StoreInfo::SelfOffset {
        delta: rest.parse().ok()?,
    })
}

/// Encodes one candidate as a `|`-separated field list. The containing
/// function (id and name) lives at the record level, not per candidate.
fn enc_candidate(c: &Candidate) -> String {
    let ows: Vec<String> = c.overwriters.iter().map(enc_span).collect();
    format!(
        "{}|{}|{}|{}|{}|{}|{}{}{}",
        enc_key(c.key),
        esc(&c.var_name),
        enc_span(&c.span),
        enc_scenario(&c.scenario),
        ows.join(","),
        enc_info(&c.info),
        u8::from(c.synthetic),
        u8::from(c.unused_attr),
        u8::from(c.low_confidence),
    )
}

fn dec_candidate(unit: usize, s: &str) -> Option<Candidate> {
    let fields: Vec<&str> = s.split('|').collect();
    if fields.len() != 7 {
        return None;
    }
    let overwriters = if fields[4].is_empty() {
        Arc::default()
    } else {
        fields[4].split(',').map(dec_span).collect::<Option<_>>()?
    };
    let flags = fields[6].as_bytes();
    if flags.len() != 3 || flags.iter().any(|b| *b != b'0' && *b != b'1') {
        return None;
    }
    Some(Candidate {
        func: FuncId(unit as u32),
        key: dec_key(fields[0])?,
        var_name: unesc(fields[1])?.into(),
        span: dec_span(fields[2])?,
        scenario: dec_scenario(fields[3])?,
        overwriters,
        info: dec_info(fields[5])?,
        synthetic: flags[0] == b'1',
        unused_attr: flags[1] == b'1',
        low_confidence: flags[2] == b'1',
    })
}

/// One journaled unit completion.
#[derive(Clone, Debug)]
pub enum UnitRecord {
    /// The unit scanned to completion (possibly with a cut-short liveness
    /// fixpoint, flagged by `exhausted`).
    Ok {
        /// Function index.
        unit: usize,
        /// Function name (redundant with the index, kept for humans
        /// reading the journal and for decode validation).
        func: String,
        /// Whether the liveness budget ran out (`harden.degraded.liveness`).
        exhausted: bool,
        /// The unit's candidates.
        candidates: Vec<Candidate>,
    },
    /// The unit was poisoned: its one run panicked.
    Fail {
        /// Function index.
        unit: usize,
        /// The failure carried into the report.
        failure: FailureRecord,
    },
}

impl UnitRecord {
    /// The unit's function index.
    pub fn unit(&self) -> usize {
        match self {
            UnitRecord::Ok { unit, .. } | UnitRecord::Fail { unit, .. } => *unit,
        }
    }

    fn encode_body(&self) -> String {
        match self {
            UnitRecord::Ok {
                unit,
                func,
                exhausted,
                candidates,
            } => {
                let cands: Vec<String> = candidates.iter().map(enc_candidate).collect();
                format!(
                    "ok {unit}\t{}\t{}\t{}",
                    esc(func),
                    u8::from(*exhausted),
                    cands.join("\t")
                )
            }
            UnitRecord::Fail { unit, failure } => format!(
                "fail {unit}\t{}\t{}\t{}\t{}",
                failure.stage.label(),
                esc(&failure.file),
                esc(failure.function.as_deref().unwrap_or("-")),
                esc(&failure.message),
            ),
        }
    }

    fn decode_body(body: &str) -> Option<UnitRecord> {
        if let Some(rest) = body.strip_prefix("ok ") {
            let mut fields = rest.split('\t');
            let unit: usize = fields.next()?.parse().ok()?;
            let func = unesc(fields.next()?)?;
            let exhausted = match fields.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let mut candidates = Vec::new();
            for f in fields {
                if f.is_empty() {
                    continue; // a unit with zero candidates encodes one empty field
                }
                candidates.push(dec_candidate(unit, f)?);
            }
            return Some(UnitRecord::Ok {
                unit,
                func,
                exhausted,
                candidates,
            });
        }
        let rest = body.strip_prefix("fail ")?;
        let mut fields = rest.split('\t');
        let unit: usize = fields.next()?.parse().ok()?;
        let stage = FailStage::from_label(fields.next()?)?;
        let file = unesc(fields.next()?)?;
        let function = unesc(fields.next()?)?;
        let message = unesc(fields.next()?)?;
        if fields.next().is_some() {
            return None;
        }
        Some(UnitRecord::Fail {
            unit,
            failure: FailureRecord {
                stage,
                file,
                function: (function != "-").then_some(function),
                message,
            },
        })
    }

    /// The full journal line for this record: body, tab, `#`-prefixed
    /// FNV-1a checksum of the body, newline.
    fn encode_line(&self) -> String {
        let body = self.encode_body();
        let crc = fnv1a(FNV_SEED, body.as_bytes());
        format!("{body}\t#{crc:016x}\n")
    }
}

/// Splits a checksummed journal line into its verified body.
fn verify_line(line: &str) -> Option<&str> {
    let (body, crc) = line.rsplit_once("\t#")?;
    let want = u64::from_str_radix(crc, 16).ok()?;
    if crc.len() != 16 || fnv1a(FNV_SEED, body.as_bytes()) != want {
        return None;
    }
    Some(body)
}

// ---------------------------------------------------------------------------
// Journal writer
// ---------------------------------------------------------------------------

/// The append-only scan journal: one checksummed line per completed unit,
/// written straight to the file and fsynced every 16 records.
#[derive(Debug)]
pub struct JournalWriter {
    file: fs::File,
    unsynced: usize,
    records_written: usize,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any previous one) and
    /// durably writes the header and fingerprint lines.
    pub fn create(path: &Path, fingerprint: u64) -> io::Result<JournalWriter> {
        let mut file = fs::File::create(path)?;
        let fp_body = format!("fingerprint {fingerprint:016x}");
        let fp_crc = fnv1a(FNV_SEED, fp_body.as_bytes());
        file.write_all(format!("{JOURNAL_HEADER}\n{fp_body}\t#{fp_crc:016x}\n").as_bytes())?;
        file.sync_all()?;
        Ok(JournalWriter {
            file,
            unsynced: 0,
            records_written: 0,
        })
    }

    /// Reopens an existing journal for appending after a replay, truncating
    /// any torn tail first so new records never concatenate onto a partial
    /// line.
    pub fn reopen(path: &Path, valid_bytes: u64, replayed: usize) -> io::Result<JournalWriter> {
        let mut file = fs::OpenOptions::new().write(true).read(true).open(path)?;
        file.set_len(valid_bytes)?;
        file.seek(io::SeekFrom::End(0))?;
        file.sync_all()?;
        Ok(JournalWriter {
            file,
            unsynced: 0,
            records_written: replayed,
        })
    }

    /// Appends one unit record, honouring an armed [`CrashPlan`].
    pub fn append(&mut self, rec: &UnitRecord) -> io::Result<()> {
        let line = rec.encode_line();
        if let Some(plan) = *lock(&CRASH_PLAN) {
            if self.records_written == plan.abort_at_record {
                // The planted crash: write a (possibly torn) prefix, make it
                // durable so recovery actually observes it, and die the way
                // a SIGKILL would — no unwinding, no destructors.
                let torn = plan.torn_bytes.min(line.len().saturating_sub(1));
                let _ = self.file.write_all(&line.as_bytes()[..torn]);
                let _ = self.file.sync_all();
                std::process::abort();
            }
        }
        self.file.write_all(line.as_bytes())?;
        self.records_written += 1;
        self.unsynced += 1;
        if self.unsynced >= FSYNC_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes the fsync batch.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------------

/// The result of replaying a scan journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Completed units, keyed by unit index. First record wins on
    /// duplicates.
    pub completed: BTreeMap<usize, UnitRecord>,
    /// Byte offset of the end of the last valid record — the truncation
    /// point for reopening the journal in append mode.
    pub valid_bytes: u64,
    /// A torn (checksum-failing or non-UTF-8) final record was skipped.
    pub torn_records: usize,
    /// Checksum-failing records *before* the tail; everything at and after
    /// the first one is discarded and rescanned.
    pub corrupt_records: usize,
    /// Records naming an already-replayed unit (dropped).
    pub duplicate_records: usize,
    /// The journal was missing, unreadable, version-mismatched, or bound to
    /// a different program/config fingerprint; nothing was replayed.
    pub discarded: bool,
}

impl Replay {
    /// Replays the journal at `path`, verifying the header, fingerprint,
    /// and per-record checksums. Never fails: any invalid state degrades to
    /// "replay less" — the executor rescans whatever is not replayed.
    pub fn load(path: &Path, fingerprint: u64) -> Replay {
        let mut out = Replay::default();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                out.discarded = true;
                return out;
            }
        };
        // Header line.
        let header_end = match bytes.iter().position(|b| *b == b'\n') {
            Some(i) => i + 1,
            None => {
                out.discarded = true;
                return out;
            }
        };
        if &bytes[..header_end - 1] != JOURNAL_HEADER.as_bytes() {
            out.discarded = true;
            return out;
        }
        // Fingerprint line.
        let rest = &bytes[header_end..];
        let fp_end = match rest.iter().position(|b| *b == b'\n') {
            Some(i) => i + 1,
            None => {
                out.discarded = true;
                return out;
            }
        };
        let fp_ok = std::str::from_utf8(&rest[..fp_end - 1])
            .ok()
            .and_then(verify_line)
            .and_then(|body| body.strip_prefix("fingerprint "))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .map(|fp| fp == fingerprint);
        if fp_ok != Some(true) {
            out.discarded = true;
            return out;
        }
        out.valid_bytes = (header_end + fp_end) as u64;

        // Unit records.
        let mut offset = header_end + fp_end;
        while offset < bytes.len() {
            let line_end = bytes[offset..]
                .iter()
                .position(|b| *b == b'\n')
                .map(|i| offset + i + 1);
            let (chunk, complete) = match line_end {
                Some(e) => (&bytes[offset..e - 1], true),
                None => (&bytes[offset..], false),
            };
            let body = std::str::from_utf8(chunk).ok().and_then(verify_line);
            let rec = body.and_then(UnitRecord::decode_body);
            match rec {
                Some(rec) if complete => {
                    match out.completed.entry(rec.unit()) {
                        Entry::Occupied(_) => out.duplicate_records += 1,
                        Entry::Vacant(slot) => {
                            slot.insert(rec);
                        }
                    }
                    offset = line_end.unwrap();
                    out.valid_bytes = offset as u64;
                }
                _ => {
                    // A bad record: torn if it is the file's tail, corrupt
                    // otherwise. Either way nothing after it is trusted —
                    // those units rescan.
                    if line_end.map(|e| e == bytes.len()).unwrap_or(true) {
                        out.torn_records += 1;
                    } else {
                        out.corrupt_records += 1;
                    }
                    break;
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Binds a journal to the exact scan it checkpoints: program sources and
/// the defines they were built under, detection configuration and budgets.
/// Two scans with the same fingerprint provably schedule identical unit
/// sets with identical per-unit results; the worker count is not part of
/// it, so a resumed run may use another.
pub fn scan_fingerprint(prog: &Program, config: DetectConfig, hconf: &HardenConfig) -> u64 {
    let mut h = FNV_SEED;
    for f in prog.source.iter() {
        h = fnv1a(h, f.name.as_bytes());
        h = fnv1a(h, f.content.as_bytes());
    }
    let budget_bits = |b: &vc_obs::Budget| {
        [
            b.max_steps.unwrap_or(u64::MAX),
            b.max_time.map(|d| d.as_millis() as u64).unwrap_or(u64::MAX),
        ]
    };
    let mut scalars = vec![
        JOURNAL_FILE_VERSION as u64,
        u64::from(config.use_alias_analysis),
        u64::from(config.field_sensitive_pointers),
        u64::from(hconf.isolate),
        prog.defines_hash(),
    ];
    scalars.extend(budget_bits(&hconf.liveness_budget));
    scalars.extend(budget_bits(&hconf.pointer_budget));
    for s in scalars {
        h = fnv1a(h, &s.to_le_bytes());
    }
    h
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// What a caller knows about one unit before the executor schedules any.
#[derive(Debug)]
pub(crate) enum Known {
    /// Nothing: the executor runs the unit.
    Run,
    /// The unit's outcome (a journal-replayed unit, a serve unit-cache
    /// hit): folded in unit order, never run.
    Settled(UnitOutcome),
    /// Left out of the scan (a commit scan's functions in files the commit
    /// did not write): neither run nor folded, and never settled by a
    /// replayed journal record.
    LeftOut,
}

#[derive(Debug, Default)]
struct ExecState {
    /// Units not yet started, in unit order. Each is taken once.
    ready: VecDeque<usize>,
    /// What the caller knew of each unit, consumed as the fold reaches
    /// it; empty when nothing was known.
    known: Vec<Known>,
    /// Resolved units waiting for a lower unit to settle. `None` folds
    /// nothing (a unit skipped at the deadline).
    pending: BTreeMap<usize, Option<UnitOutcome>>,
    /// The next unit to fold: every unit below it is folded into `out`.
    next: usize,
    out: DetectOutcome,
    /// Units a worker scanned to completion, counted into
    /// `sentinel.units_completed` once the scan ends.
    completed: u64,
    /// Units skipped unstarted because the scan deadline passed.
    skipped: usize,
    /// A panic escaped a worker with isolation off: the other workers
    /// take no further unit.
    shutdown: bool,
}

impl ExecState {
    /// Folds a settled unit into `out` in unit (function-index) order,
    /// whatever order units settle in, so the outcome is byte-identical
    /// for any worker count and any resume point.
    fn settle(&mut self, prog: &Program, unit: usize, outcome: Option<UnitOutcome>) {
        if unit != self.next {
            self.pending.insert(unit, outcome);
            return;
        }
        if let Some(outcome) = outcome {
            self.out.fold(prog, FuncId(unit as u32), outcome);
        }
        self.next += 1;
        self.fold_settled(prog);
    }

    /// Folds the settled units that continue the folded prefix: known
    /// ones, and resolved ones waiting in `pending`.
    fn fold_settled(&mut self, prog: &Program) {
        loop {
            let unit = self.next;
            let outcome = match self
                .known
                .get_mut(unit)
                .map(|k| mem::replace(k, Known::Run))
            {
                Some(Known::Settled(outcome)) => Some(outcome),
                Some(Known::LeftOut) => None,
                _ => match self.pending.first_entry().filter(|e| *e.key() == unit) {
                    Some(entry) => entry.remove(),
                    None => return,
                },
            };
            if let Some(outcome) = outcome {
                self.out.fold(prog, FuncId(unit as u32), outcome);
            }
            self.next += 1;
        }
    }
}

struct Shared<'p> {
    prog: &'p Program,
    oracle: Option<&'p DemandPointer<'p>>,
    interner: &'p SigInterner,
    hconf: HardenConfig,
    deadline: Option<ScanDeadline>,
    state: Mutex<ExecState>,
    journal: Option<Mutex<JournalWriter>>,
    obs: ObsSession,
    failplan: FailpointPlan,
    /// The payload of a panic that escaped a worker with isolation off,
    /// re-raised on the calling thread once every worker has stopped.
    escaped: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Shared<'_> {
    /// Takes the next unit off the queue; `None` once it is empty or the
    /// scan stopped. After the scan deadline every queued unit is skipped
    /// unstarted, and units in flight finish.
    fn next_unit(&self) -> Option<usize> {
        let mut state = lock(&self.state);
        // The clock is read only under a scan deadline.
        if (self.deadline).is_some_and(|d| Instant::now() >= d.at) {
            while let Some(unit) = state.ready.pop_front() {
                state.skipped += 1;
                state.settle(self.prog, unit, None);
            }
        }
        if state.shutdown {
            return None;
        }
        state.ready.pop_front()
    }

    /// Settles the outcome of a unit a worker ran: journal it, then fold
    /// it in unit order.
    fn resolve(&self, unit: usize, outcome: UnitOutcome) {
        let mut state = lock(&self.state);
        if let Some(j) = &self.journal {
            let fid = FuncId(unit as u32);
            let rec = match &outcome {
                UnitOutcome::Done {
                    candidates,
                    exhausted,
                    ..
                } => UnitRecord::Ok {
                    unit,
                    func: self.prog.func(fid).name.clone(),
                    exhausted: *exhausted,
                    candidates: candidates.clone(),
                },
                UnitOutcome::Poisoned(message) => UnitRecord::Fail {
                    unit,
                    failure: detect_failure(self.prog, fid, message.clone()),
                },
            };
            // A failed journal write is not fatal to the scan — the run
            // completes in memory; only resumability degrades.
            let _ = lock(j).append(&rec);
        }
        if matches!(outcome, UnitOutcome::Done { .. }) {
            state.completed += 1;
        }
        state.settle(self.prog, unit, Some(outcome));
    }
}

/// One worker: takes units off the queue until it is empty and runs each
/// once. A panic that escapes the unit isolation boundary would kill the
/// worker; it is caught around the unit instead, so the worker lives on
/// (counted as `sentinel.worker_replaced`) and the unit settles as
/// poisoned, `worker died: …`. With isolation off the panic stops the
/// scan: every worker winds down, and [`execute`] re-raises it on the
/// calling thread.
fn run_worker(shared: &Shared<'_>, worker: usize) {
    let _obs = shared.obs.install();
    let _fp = shared.failplan.install();
    let tid = MAIN_TID + 1 + worker as u32;
    let _worker_span =
        shared
            .obs
            .tracer
            .span_on(&format!("sentinel.worker.{worker}"), "sentinel", tid);
    while let Some(unit) = shared.next_unit() {
        let fid = FuncId(unit as u32);
        let run = catch_unwind(AssertUnwindSafe(|| {
            // The worker-stage failpoint fires *outside* the per-unit
            // isolation boundary: it simulates a dying worker, not a
            // poisoned unit.
            harden::failpoint(FailStage::Worker, &shared.prog.func(fid).name);
            run_unit(
                shared.prog,
                fid,
                shared.oracle,
                shared.interner,
                shared.hconf,
                tid,
            )
        }));
        let outcome = match run {
            Ok(result) => result.into(),
            Err(payload) if !shared.hconf.isolate => {
                lock(&shared.escaped).get_or_insert(payload);
                lock(&shared.state).shutdown = true;
                return;
            }
            Err(payload) => {
                vc_obs::counter_inc(vc_obs::names::SENTINEL_WORKER_REPLACED);
                let message = harden::panic_message(payload);
                UnitOutcome::Poisoned(format!("worker died: {message}"))
            }
        };
        shared.resolve(unit, outcome);
    }
}

/// Runs the parallel detection scan.
///
/// [`detect_program_hardened`](crate::detect::detect_program_hardened) is
/// this executor at one job: identical inputs produce a byte-identical
/// [`DetectOutcome`] regardless of worker count, journal presence, or how
/// many units were replayed from a previous interrupted run.
pub fn detect_program_sentinel(
    prog: &Program,
    config: DetectConfig,
    hconf: HardenConfig,
    sconf: &SentinelConfig,
) -> DetectOutcome {
    execute(prog, config, hconf, sconf, |_, _| Vec::new())
}

/// The executor itself, the one loop over detection units: partitions the
/// demand pointer oracle (single-threaded, no solving; components solve
/// lazily under the oracle's lock) and interns the signatures, asks `plan`
/// what the caller knows of each unit (one [`Known`] per unit, or none),
/// replays the journal, runs every other unit once on the workers, and
/// folds all of them in unit order. `plan` sees the oracle and the
/// interner because serve keys its unit cache by them; the interner comes
/// back on the outcome for the back end.
pub(crate) fn execute(
    prog: &Program,
    config: DetectConfig,
    hconf: HardenConfig,
    sconf: &SentinelConfig,
    plan: impl FnOnce(Option<&DemandPointer>, &SigInterner) -> Vec<Known>,
) -> DetectOutcome {
    let oracle = demand_oracle(prog, config, hconf);
    let oracle = oracle.as_ref();
    let interner = SigInterner::new(prog);
    let mut known = plan(oracle, &interner);
    let total = prog.funcs.len();
    let in_scan = total - known.iter().filter(|k| matches!(k, Known::LeftOut)).count();
    vc_obs::counter_add(vc_obs::names::DETECT_FUNCTIONS, in_scan as u64);
    vc_obs::counter_add(vc_obs::names::SENTINEL_UNITS, in_scan as u64);

    // Journal replay (resume) or creation.
    let mut replayed = 0;
    let journal = match &sconf.journal {
        None => None,
        Some(path) => {
            let fingerprint = scan_fingerprint(prog, config, &hconf);
            let writer = if sconf.resume {
                let replay = Replay::load(path, fingerprint);
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_JOURNAL_REPLAYS,
                    u64::from(!replay.discarded),
                );
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_TORN_RECORD_SKIPS,
                    replay.torn_records as u64,
                );
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_CORRUPT_RECORDS,
                    replay.corrupt_records as u64,
                );
                vc_obs::counter_add(
                    vc_obs::names::SENTINEL_DUPLICATE_RECORDS,
                    replay.duplicate_records as u64,
                );
                if replay.discarded {
                    vc_obs::counter_inc(vc_obs::names::SENTINEL_JOURNAL_DISCARDED);
                    JournalWriter::create(path, fingerprint)
                } else {
                    if !replay.completed.is_empty() {
                        known.resize_with(total, || Known::Run);
                    }
                    // Records beyond the unit range are ignored (belt and
                    // braces; the fingerprint already rules them out). A
                    // journal of a wider scan of the same program (a full
                    // revision scan resumed as a commit scan) holds records
                    // of units this plan leaves out: they stay out.
                    for (unit, rec) in replay.completed {
                        if unit >= total || matches!(known[unit], Known::LeftOut) {
                            continue;
                        }
                        replayed += 1;
                        let outcome = match rec {
                            UnitRecord::Ok {
                                exhausted,
                                candidates,
                                ..
                            } => UnitOutcome::Done {
                                exhausted,
                                summary: None,
                                candidates,
                            },
                            UnitRecord::Fail { failure, .. } => {
                                UnitOutcome::Poisoned(failure.message)
                            }
                        };
                        known[unit] = Known::Settled(outcome);
                    }
                    JournalWriter::reopen(path, replay.valid_bytes, replayed)
                }
            } else {
                JournalWriter::create(path, fingerprint)
            };
            match writer {
                Ok(w) => Some(Mutex::new(w)),
                Err(_) => {
                    vc_obs::counter_inc(vc_obs::names::SENTINEL_JOURNAL_OPEN_FAILURES);
                    None
                }
            }
        }
    };

    // Queue every unit not already settled, in unit order; fold the
    // settled prefix.
    let mut state = ExecState {
        ready: (0..total)
            .filter(|&unit| matches!(known.get(unit), None | Some(Known::Run)))
            .collect(),
        ..ExecState::default()
    };
    let queued = state.ready.len();
    vc_obs::counter_add(vc_obs::names::SENTINEL_UNITS_REPLAYED, replayed as u64);
    vc_obs::counter_add(vc_obs::names::SENTINEL_UNITS_SCANNED, queued as u64);
    let jobs = sconf.effective_jobs().clamp(1, total.max(1));
    state.known = known;
    state.fold_settled(prog);

    let shared = Shared {
        prog,
        oracle,
        interner: &interner,
        hconf,
        deadline: sconf.deadline,
        state: Mutex::new(state),
        journal,
        obs: ObsSession::current_or_new(),
        failplan: FailpointPlan::current(),
        escaped: Mutex::new(None),
    };

    if queued > 0 {
        let shared = &shared;
        thread::scope(|scope| {
            for worker in 1..jobs {
                scope.spawn(move || run_worker(shared, worker));
            }
            // The calling thread is worker 0: detection stays on the thread
            // that built the program and runs the stages after it, and at
            // one job no thread is spawned.
            run_worker(shared, 0);
        });
    }
    if let Some(payload) = lock(&shared.escaped).take() {
        std::panic::resume_unwind(payload);
    }

    let mut state = shared.state.into_inner().unwrap_or_else(|e| e.into_inner());
    if state.completed > 0 {
        vc_obs::counter_add(vc_obs::names::SENTINEL_UNITS_COMPLETED, state.completed);
    }
    let mut out = std::mem::take(&mut state.out);
    if let Some(j) = &shared.journal {
        let _ = lock(j).sync();
    }
    if state.skipped > 0 {
        let deadline = (sconf.deadline).expect("units are skipped only under a scan deadline");
        vc_obs::counter_inc(vc_obs::names::SERVE_DEADLINE_EXCEEDED);
        out.deadline_exceeded = true;
        out.failures.push(FailureRecord {
            stage: FailStage::Detect,
            file: deadline.label.to_string(),
            function: None,
            message: format!(
                "deadline exceeded after {} of {in_scan} functions; remaining functions skipped \
                 and all findings marked low-confidence",
                in_scan - state.skipped
            ),
        });
        for c in &mut out.candidates {
            c.low_confidence = true;
        }
    }
    finalize_pointer_stage(oracle, &mut out);
    out.sigs = interner;
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::detect::detect_program_hardened;

    const SRC: &str = "int get_v(void);\n\
         void f(void) { int x = 1; x = 2; use(x); }\n\
         void g(int p) { p = 3; use(p); }\n\
         void h(void) {\n\
           int r = get_v();\n\
           r = 0;\n\
           if (r) { use(r); }\n\
         }\n\
         void clean(void) { int y = 1; use(y); }\n";

    fn prog() -> Program {
        Program::build(&[("a.c", SRC)], &[]).unwrap()
    }

    fn sconf(jobs: usize) -> SentinelConfig {
        SentinelConfig {
            jobs,
            ..SentinelConfig::default()
        }
    }

    fn sorted_debug(outcome: &DetectOutcome) -> (Vec<String>, Vec<String>) {
        (
            outcome
                .candidates
                .iter()
                .map(|c| format!("{c:?}"))
                .collect(),
            outcome.failures.iter().map(|f| format!("{f:?}")).collect(),
        )
    }

    #[test]
    fn parallel_scan_matches_sequential_exactly() {
        let p = prog();
        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());
        for jobs in [1, 2, 8] {
            let par = detect_program_sentinel(
                &p,
                DetectConfig::default(),
                HardenConfig::default(),
                &sconf(jobs),
            );
            assert_eq!(
                sorted_debug(&par),
                sorted_debug(&seq),
                "jobs={jobs} must match the sequential scan"
            );
        }
    }

    #[test]
    fn candidate_encoding_roundtrips() {
        let p = prog();
        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());
        assert!(!seq.candidates.is_empty());
        for c in &seq.candidates {
            let enc = enc_candidate(c);
            let dec = dec_candidate(c.func.0 as usize, &enc)
                .unwrap_or_else(|| panic!("decode failed for {enc:?}"));
            assert_eq!(format!("{dec:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn tricky_strings_roundtrip_the_record_codec() {
        let rec = UnitRecord::Ok {
            unit: 7,
            func: "we|ird\tname\\with,stuff\n".to_string(),
            exhausted: true,
            candidates: vec![],
        };
        let line = rec.encode_line();
        let body = verify_line(line.trim_end_matches('\n')).expect("checksum");
        match UnitRecord::decode_body(body).expect("decode") {
            UnitRecord::Ok {
                unit,
                func,
                exhausted,
                candidates,
            } => {
                assert_eq!(unit, 7);
                assert_eq!(func, "we|ird\tname\\with,stuff\n");
                assert!(exhausted);
                assert!(candidates.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fail_record_roundtrips() {
        let rec = UnitRecord::Fail {
            unit: 3,
            failure: FailureRecord {
                stage: FailStage::Detect,
                file: "a.c".to_string(),
                function: Some("f".to_string()),
                message: "panicked: boom\t|,".to_string(),
            },
        };
        let line = rec.encode_line();
        let body = verify_line(line.trim_end_matches('\n')).unwrap();
        match UnitRecord::decode_body(body).unwrap() {
            UnitRecord::Fail { unit, failure } => {
                assert_eq!(unit, 3);
                assert_eq!(failure.stage, FailStage::Detect);
                assert_eq!(failure.function.as_deref(), Some("f"));
                assert_eq!(failure.message, "panicked: boom\t|,");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let rec = UnitRecord::Ok {
            unit: 0,
            func: "f".to_string(),
            exhausted: false,
            candidates: vec![],
        };
        let line = rec.encode_line();
        let mut bytes = line.into_bytes();
        bytes[3] ^= 0x01;
        let s = String::from_utf8(bytes).unwrap();
        assert!(verify_line(s.trim_end_matches('\n')).is_none());
    }

    #[test]
    fn replay_skips_torn_tail_and_truncates_there() {
        let dir = std::env::temp_dir().join("vc-sentinel-test-torn");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("scan.journal");
        let fp = 0x1234u64;
        {
            let mut w = JournalWriter::create(&path, fp).unwrap();
            w.append(&UnitRecord::Ok {
                unit: 0,
                func: "f".to_string(),
                exhausted: false,
                candidates: vec![],
            })
            .unwrap();
            w.sync().unwrap();
        }
        // Tear the second record mid-line.
        let full = UnitRecord::Ok {
            unit: 1,
            func: "g".to_string(),
            exhausted: false,
            candidates: vec![],
        }
        .encode_line();
        let before = fs::metadata(&path).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        drop(f);

        let replay = Replay::load(&path, fp);
        assert!(!replay.discarded);
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.completed.contains_key(&0));
        assert_eq!(replay.torn_records, 1);
        assert_eq!(replay.valid_bytes, before);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_discards_on_fingerprint_mismatch() {
        let dir = std::env::temp_dir().join("vc-sentinel-test-fp");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("scan.journal");
        JournalWriter::create(&path, 0xAAAA)
            .unwrap()
            .sync()
            .unwrap();
        let replay = Replay::load(&path, 0xBBBB);
        assert!(replay.discarded);
        assert!(replay.completed.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_replays_completed_units_and_matches_fresh_run() {
        let dir = std::env::temp_dir().join("vc-sentinel-test-resume");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("scan.journal");
        let _ = fs::remove_file(&path);
        let p = prog();
        let conf = DetectConfig::default();
        let hconf = HardenConfig::default();

        // Fresh journaled run.
        let mut first_conf = sconf(2);
        first_conf.journal = Some(path.clone());
        let fresh = detect_program_sentinel(&p, conf, hconf, &first_conf);

        // Resume from the complete journal: every unit replays, zero rescans,
        // identical outcome.
        let mut resume_conf = first_conf.clone();
        resume_conf.resume = true;
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let resumed = detect_program_sentinel(&p, conf, hconf, &resume_conf);
        assert_eq!(sorted_debug(&resumed), sorted_debug(&fresh));
        let snap = session.registry.snapshot();
        assert_eq!(
            snap.counter(vc_obs::names::SENTINEL_UNITS_REPLAYED),
            p.funcs.len() as u64
        );
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_UNITS_SCANNED), 0);

        // And resuming *again* is idempotent.
        let resumed2 = detect_program_sentinel(&p, conf, hconf, &resume_conf);
        assert_eq!(sorted_debug(&resumed2), sorted_debug(&fresh));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_tracks_config_and_sources() {
        let p = prog();
        let base = scan_fingerprint(&p, DetectConfig::default(), &HardenConfig::default());
        let other_conf = DetectConfig {
            use_alias_analysis: false,
            ..DetectConfig::default()
        };
        assert_ne!(
            base,
            scan_fingerprint(&p, other_conf, &HardenConfig::default())
        );
        // Same sources, built under a define: a different program.
        let defined = Program::build(&[("a.c", SRC)], &["FEATURE".to_string()]).unwrap();
        assert_ne!(
            base,
            scan_fingerprint(&defined, DetectConfig::default(), &HardenConfig::default())
        );
        let p2 = Program::build(&[("a.c", "void q(void) { int z = 1; use(z); }\n")], &[]).unwrap();
        assert_ne!(
            base,
            scan_fingerprint(&p2, DetectConfig::default(), &HardenConfig::default())
        );
    }

    #[test]
    fn poisoned_unit_runs_once_and_fails() {
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let _fp = harden::arm_failpoint(FailStage::Detect, "g");
        let out = detect_program_sentinel(
            &p,
            DetectConfig::default(),
            HardenConfig::default(),
            &sconf(2),
        );
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].function.as_deref(), Some("g"));
        assert_eq!(out.failures[0].stage, FailStage::Detect);
        // The other units still produced their candidates.
        assert!(out.candidates.iter().any(|c| p.func(c.func).name == "f"));
        let snap = session.registry.snapshot();
        assert_eq!(
            snap.counter(vc_obs::names::SENTINEL_UNITS_COMPLETED),
            p.funcs.len() as u64 - 1
        );
        assert_eq!(snap.counter(vc_obs::names::HARDEN_POISONED_DETECT), 1);
    }

    #[test]
    fn dead_worker_is_replaced_and_its_unit_fails() {
        let p = prog();
        // The sequential reference runs first: it is the executor too, so
        // the armed worker failpoint would fire in it as well.
        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());
        let session = ObsSession::current_or_new();
        let _g = session.install();
        // A worker-stage failpoint fires outside the unit isolation
        // boundary, killing the worker that picks up `f`. It stays armed
        // for the whole scan: the unit runs once, so it fires once.
        let _fp = harden::arm_failpoint(FailStage::Worker, "f");
        let out = detect_program_sentinel(
            &p,
            DetectConfig::default(),
            HardenConfig::default(),
            &sconf(2),
        );
        let f = p.func_id("f").unwrap();
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert_eq!(out.failures[0].function.as_deref(), Some("f"));
        assert_eq!(out.failures[0].stage, FailStage::Detect);
        assert!(
            out.failures[0].message.starts_with("worker died:"),
            "{:?}",
            out.failures[0]
        );
        let others = |o: &DetectOutcome| -> Vec<String> {
            (o.candidates.iter())
                .filter(|c| c.func != f)
                .map(|c| format!("{c:?}"))
                .collect()
        };
        assert!(!others(&seq).is_empty());
        assert_eq!(others(&out), others(&seq));
        assert!(out.candidates.iter().all(|c| c.func != f));
        let snap = session.registry.snapshot();
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_WORKER_REPLACED), 1);
    }

    #[test]
    fn escaped_panic_without_isolation_propagates_instead_of_hanging() {
        // With isolation off (`vcheck --fail-fast`) a panicking unit must
        // stop the executor and re-raise on the calling thread, not leave
        // it waiting forever on a unit that will never resolve.
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _fp = harden::arm_failpoint(FailStage::Detect, "g");
            let hconf = HardenConfig {
                isolate: false,
                ..HardenConfig::default()
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                detect_program_sentinel(&prog(), DetectConfig::default(), hconf, &sconf(1))
            }));
            let _ = tx.send(run.map_err(harden::panic_message));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the executor hung on a panic that escaped its worker");
        let message = result.expect_err("the unit's panic must propagate");
        assert!(message.contains("injected fault"), "{message}");
    }

    #[test]
    fn scan_deadline_counts_the_time_before_the_executor_starts() {
        // The caller fixes the deadline at its own start, so work done
        // before the executor runs (loading, serve's unit lookup) uses it up.
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let mut conf = sconf(2);
        conf.deadline = Some(ScanDeadline {
            at: Instant::now() + Duration::from_millis(20),
            label: "<program>",
        });
        std::thread::sleep(Duration::from_millis(30));
        let out =
            detect_program_sentinel(&p, DetectConfig::default(), HardenConfig::default(), &conf);
        assert!(out.deadline_exceeded);
        assert!(out.candidates.is_empty(), "no unit started");
        let n = p.funcs.len();
        assert_eq!(out.failures.len(), 1);
        assert!(
            (out.failures[0].message)
                .starts_with(&format!("deadline exceeded after 0 of {n} functions")),
            "{:?}",
            out.failures[0]
        );
        let snap = session.registry.snapshot();
        assert_eq!(snap.counter(vc_obs::names::SERVE_DEADLINE_EXCEEDED), 1);
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_UNITS_COMPLETED), 0);
    }
}
