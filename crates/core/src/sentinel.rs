//! Supervised parallel scan execution with crash-safe journaled checkpoints.
//!
//! The paper scans multi-million-LoC projects where a single run is long
//! enough that OOM kills, crashes, and operator interrupts are the norm.
//! [`crate::harden`] isolates faults *within* a run; this module
//! makes the run itself durable and concurrent:
//!
//! - **Executor.** Per-function detection becomes a work queue of scan
//!   units (one function each) drained by N workers (`vcheck --jobs N`),
//!   the calling thread among them; sequential detection is one worker.
//!   Each unit runs through `detect::run_unit`, inside the `harden`
//!   isolation boundary; a supervisor thread enforces per-unit deadlines,
//!   requeues timed-out and panicked units with capped exponential
//!   backoff, revives poisoned workers, and converts units that exhaust
//!   their attempt budget into [`FailureRecord`]s. Results merge
//!   **deterministically** in unit (function-index) order, so report
//!   output is byte-identical regardless of `--jobs`.
//! - **Durability.** An append-only journal (`scan.journal`) records each
//!   unit's completion — candidates or permanent failure — as one
//!   checksummed record, with batched fsyncs. `vcheck --resume` replays the
//!   journal, truncates any torn tail record (counted under
//!   `sentinel.torn_record_skips`), skips completed units, and produces the
//!   same report as an uninterrupted run. A fingerprint line binds the
//!   journal to the exact program, configuration, and attempt budget it was
//!   recorded under; a mismatch discards the journal rather than mixing
//!   incompatible results.
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
    sync::{Condvar, Mutex, MutexGuard},
    thread,
    time::{Duration, Instant},
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
use vc_obs::{ObsSession, MAIN_TID};
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
    fnv1a,
    harden::{
        self,
        FailStage,
        FailpointPlan,
        FailureRecord,
        HardenConfig, //
    },
    FNV_SEED,
};

/// On-disk format version of the scan journal. Bumped whenever the record
/// encoding changes; older journals are discarded, never parsed across
/// versions.
pub const JOURNAL_FILE_VERSION: u32 = 1;

/// The journal header line.
const JOURNAL_HEADER: &str = "valuecheck-journal v1";

/// Supervision and durability knobs for the parallel scan executor.
#[derive(Clone, Debug)]
pub struct SentinelConfig {
    /// Worker threads draining the unit queue. `0` means "available
    /// parallelism" (`vcheck --jobs` default).
    pub jobs: usize,
    /// Maximum attempts per unit before it is marked failed-permanent
    /// (`vcheck --retry`). Minimum 1.
    pub retry: u32,
    /// Per-unit wall-clock deadline enforced by the supervisor. A unit
    /// exceeding it is abandoned (its eventual result discarded as stale)
    /// and requeued as a fresh attempt. `None` disables supervision by
    /// deadline; the per-stage `harden` budgets still bound each attempt.
    pub unit_deadline: Option<Duration>,
    /// The whole scan's wall-clock deadline (`vcheck --deadline-ms`,
    /// serve's per-request deadline), set by the caller from its own
    /// start, so loading and keying count against it. Once it passes,
    /// units not yet started are skipped, a `deadline exceeded after K of
    /// N functions` failure record is added, every candidate is marked
    /// low-confidence, and `serve.deadline_exceeded` is counted. `None`
    /// never reads the clock for it.
    pub deadline: Option<ScanDeadline>,
    /// Base of the capped exponential backoff applied to requeued units:
    /// attempt `k` (1-based retries) waits `backoff_base * 2^(k-1)`,
    /// saturating at [`SentinelConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound of the retry backoff.
    pub backoff_cap: Duration,
    /// How many journal records may accumulate between fsyncs. `1` syncs
    /// every record; larger values batch (a crash can lose at most the
    /// unsynced tail — recovery rescans those units).
    pub fsync_every: usize,
    /// Path of the append-only scan journal. `None` runs without
    /// durability.
    pub journal: Option<PathBuf>,
    /// Replay the journal and skip completed units instead of truncating
    /// it (`vcheck --resume`).
    pub resume: bool,
    /// Extra entropy folded into the journal fingerprint by the caller
    /// (e.g. the preprocessor defines, which change the program but not
    /// the source bytes).
    pub fingerprint_salt: u64,
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

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            jobs: 0,
            retry: 3,
            unit_deadline: None,
            deadline: None,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            fsync_every: 16,
            journal: None,
            resume: false,
            fingerprint_salt: 0,
        }
    }
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

    /// Sequential detection: one worker, one attempt per unit (a poisoned
    /// unit fails at once, as it always has without the executor). The
    /// configuration behind [`pipeline::run`](crate::pipeline::run).
    pub fn sequential() -> SentinelConfig {
        SentinelConfig {
            jobs: 1,
            retry: 1,
            ..SentinelConfig::default()
        }
    }

    /// The backoff before retry attempt `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
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
        Vec::new()
    } else {
        rest.split(',')
            .map(unesc)
            .collect::<Option<Vec<String>>>()?
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

fn dec_candidate(unit: usize, func_name: &str, s: &str) -> Option<Candidate> {
    let fields: Vec<&str> = s.split('|').collect();
    if fields.len() != 7 {
        return None;
    }
    let overwriters = if fields[4].is_empty() {
        Vec::new()
    } else {
        fields[4]
            .split(',')
            .map(dec_span)
            .collect::<Option<Vec<Span>>>()?
    };
    let flags = fields[6].as_bytes();
    if flags.len() != 3 || flags.iter().any(|b| *b != b'0' && *b != b'1') {
        return None;
    }
    Some(Candidate {
        func: FuncId(unit as u32),
        func_name: func_name.to_string(),
        key: dec_key(fields[0])?,
        var_name: unesc(fields[1])?,
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
    /// The unit exhausted its attempts and was marked failed-permanent.
    Fail {
        /// Function index.
        unit: usize,
        /// The failure carried into the report.
        failure: FailureRecord,
    },
}

impl UnitRecord {
    /// The unit key.
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
                candidates.push(dec_candidate(unit, &func, f)?);
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
/// fsynced every [`SentinelConfig::fsync_every`] records.
#[derive(Debug)]
pub struct JournalWriter {
    file: fs::File,
    unsynced: usize,
    fsync_every: usize,
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
            fsync_every: 16,
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
            fsync_every: 16,
            records_written: replayed,
        })
    }

    /// Sets the fsync batch size.
    pub fn with_fsync_every(mut self, n: usize) -> JournalWriter {
        self.fsync_every = n.max(1);
        self
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
        if self.unsynced >= self.fsync_every {
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

/// Binds a journal to the exact scan it checkpoints: program sources,
/// detection configuration, budgets, and the attempt budget. Two scans with
/// the same fingerprint provably schedule identical unit sets with
/// identical per-unit results.
pub fn scan_fingerprint(
    prog: &Program,
    config: DetectConfig,
    hconf: &HardenConfig,
    sconf: &SentinelConfig,
) -> u64 {
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
        sconf.retry as u64,
        sconf.fingerprint_salt,
    ];
    scalars.extend(budget_bits(&hconf.liveness_budget));
    scalars.extend(budget_bits(&hconf.pointer_budget));
    for s in scalars {
        h = fnv1a(h, &s.to_le_bytes());
    }
    h
}

/// FNV-1a over a list of strings — the caller-side salt helper (`vcheck`
/// hashes its `--define` list through this).
pub fn salt_strings(items: &[String]) -> u64 {
    let mut h = FNV_SEED;
    for s in items {
        h = fnv1a(h, s.as_bytes());
    }
    h
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// A queued attempt of one unit. `attempt` is the unit's epoch: results
/// from older epochs (abandoned after a deadline or a worker death) are
/// discarded as stale.
#[derive(Clone, Copy, Debug)]
struct Task {
    unit: usize,
    attempt: u32,
}

/// The attempt a worker is running.
#[derive(Clone, Copy, Debug)]
struct Running {
    task: Task,
    started: Instant,
}

/// What a caller knows about one unit before the executor schedules any.
#[derive(Debug)]
pub(crate) enum Known {
    /// Nothing: the executor runs the unit.
    Run,
    /// The unit's outcome (a journal-replayed unit, a serve unit-cache
    /// hit): folded in unit order, never run.
    Settled(UnitOutcome),
    /// Left out of the scan (incremental mode's untouched files): neither
    /// run nor folded.
    LeftOut,
}

#[derive(Debug, Default)]
struct ExecState {
    ready: VecDeque<Task>,
    delayed: Vec<(Instant, Task)>,
    /// What each worker is running, indexed by worker. The supervisor
    /// clears a slot to abandon its attempt.
    in_flight: Vec<Option<Running>>,
    /// What the caller knew of each unit, consumed as the fold reaches
    /// it; empty when nothing was known.
    known: Vec<Known>,
    /// Resolved units waiting for a lower unit to settle. `None` folds
    /// nothing (a unit skipped at the deadline).
    pending: BTreeMap<usize, Option<UnitOutcome>>,
    /// The next unit to fold: every unit below it is folded into `out`.
    next: usize,
    out: DetectOutcome,
    remaining: usize,
    /// Units a worker scanned to completion, counted into
    /// `sentinel.units_completed` once the scan ends.
    completed: u64,
    /// Units skipped unstarted because the scan deadline passed.
    skipped: usize,
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
    sconf: &'p SentinelConfig,
    state: Mutex<ExecState>,
    cv: Condvar,
    journal: Option<Mutex<JournalWriter>>,
    obs: ObsSession,
    failplan: FailpointPlan,
    /// The payload of a panic that escaped a worker with isolation off,
    /// re-raised on the calling thread once every worker has stopped.
    escaped: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Shared<'_> {
    /// Resolves one unit outcome under the state lock: record, journal,
    /// count down. Must be called at most once per unit.
    fn resolve(&self, state: &mut ExecState, unit: usize, outcome: UnitOutcome) {
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
        state.settle(self.prog, unit, Some(outcome));
        self.count_down(state);
    }

    fn count_down(&self, state: &mut ExecState) {
        state.remaining -= 1;
        if state.remaining == 0 {
            state.shutdown = true;
            self.cv.notify_all();
        }
    }

    /// The scan deadline passed: every queued unit is skipped unstarted.
    /// Units in flight finish, and backed-off retries are skipped when
    /// they come due.
    fn skip_ready(&self, state: &mut ExecState) {
        while let Some(task) = state.ready.pop_front() {
            state.skipped += 1;
            state.settle(self.prog, task.unit, None);
            self.count_down(state);
        }
    }

    /// A unit attempt failed (panic, deadline, or dead worker): requeue it
    /// with backoff, or mark it failed-permanent once its attempts are
    /// spent. Called under the state lock.
    fn retry_or_fail(&self, state: &mut ExecState, unit: usize, attempt: u32, message: String) {
        let attempts_done = attempt + 1;
        if attempts_done < self.sconf.retry.max(1) {
            vc_obs::counter_inc(vc_obs::names::SENTINEL_RETRIES);
            let at = Instant::now() + self.sconf.backoff(attempts_done);
            state.delayed.push((
                at,
                Task {
                    unit,
                    attempt: attempts_done,
                },
            ));
            // The supervisor sleeps until the earliest backoff expiry.
            self.cv.notify_all();
        } else {
            vc_obs::counter_inc(vc_obs::names::SENTINEL_FAILED_PERMANENT);
            self.resolve(state, unit, UnitOutcome::Poisoned(message));
        }
    }

    /// Requeues everything a dead worker had in flight.
    fn reap_worker(&self, worker: usize, message: &str) {
        let mut state = lock(&self.state);
        if let Some(r) = state.in_flight[worker].take() {
            vc_obs::counter_inc(vc_obs::names::SENTINEL_REQUEUES);
            let message = format!("worker died: {message}");
            self.retry_or_fail(&mut state, r.task.unit, r.task.attempt, message);
        }
        self.cv.notify_all();
    }
}

/// One worker: its incarnation wrapper around [`worker_loop`]. A panic
/// that escapes the unit isolation boundary poisons the worker; revive it
/// and requeue whatever it was running. With isolation off the panic
/// instead stops the scan: every worker and the supervisor wind down, and
/// [`execute`] re-raises it on the calling thread.
fn run_worker(shared: &Shared<'_>, worker: usize) {
    let _obs = shared.obs.install();
    let _fp = shared.failplan.install();
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, worker))) {
            Ok(()) => break,
            Err(payload) => {
                if !shared.hconf.isolate {
                    lock(&shared.escaped).get_or_insert(payload);
                    lock(&shared.state).shutdown = true;
                    shared.cv.notify_all();
                    break;
                }
                vc_obs::counter_inc(vc_obs::names::SENTINEL_WORKER_REPLACED);
                let msg = harden::panic_message(payload);
                shared.reap_worker(worker, &msg);
            }
        }
    }
}

/// The inner worker loop: drain tasks until shutdown. Panics escaping this
/// function (i.e. escaping the per-unit isolation boundary) poison the
/// worker; [`run_worker`] revives it.
fn worker_loop(shared: &Shared<'_>, worker: usize) {
    let tid = MAIN_TID + 1 + worker as u32;
    let _worker_span =
        shared
            .obs
            .tracer
            .span_on(&format!("sentinel.worker.{worker}"), "sentinel", tid);
    loop {
        let task = {
            let mut state = lock(&shared.state);
            loop {
                // The clock is read only under a scan deadline.
                if (shared.sconf.deadline).is_some_and(|d| Instant::now() >= d.at) {
                    shared.skip_ready(&mut state);
                }
                if state.shutdown {
                    return;
                }
                if let Some(task) = state.ready.pop_front() {
                    state.in_flight[worker] = Some(Running {
                        task,
                        started: Instant::now(),
                    });
                    break task;
                }
                // The supervisor wakes us when it promotes a backoff task,
                // and everyone when the scan ends or stops.
                state = shared.cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };

        let fid = FuncId(task.unit as u32);
        // The worker-stage failpoint fires *outside* the per-unit isolation
        // boundary: it simulates a poisoned worker, not a poisoned unit.
        harden::failpoint(FailStage::Worker, &shared.prog.func(fid).name);
        let result = run_unit(
            shared.prog,
            fid,
            shared.oracle,
            shared.interner,
            shared.hconf,
            tid,
        );

        let mut state = lock(&shared.state);
        if state.in_flight[worker].take().is_none() {
            // The supervisor abandoned this attempt (deadline) while we were
            // computing it; the unit lives in a newer epoch now.
            vc_obs::counter_inc(vc_obs::names::SENTINEL_STALE_RESULTS);
            continue;
        }
        match result {
            Ok(done) => {
                state.completed += 1;
                shared.resolve(&mut state, task.unit, Ok(done).into());
            }
            Err(message) => {
                shared.retry_or_fail(&mut state, task.unit, task.attempt, message);
            }
        }
    }
}

/// Moves delayed (backoff) tasks whose time has come into the ready queue;
/// returns whether it promoted any.
fn promote_delayed(state: &mut ExecState) -> bool {
    let now = Instant::now();
    let ready = state.ready.len();
    let mut i = 0;
    while i < state.delayed.len() {
        if state.delayed[i].0 <= now {
            let (_, task) = state.delayed.swap_remove(i);
            state.ready.push_back(task);
        } else {
            i += 1;
        }
    }
    // Deterministic pickup order within a promotion batch.
    let promoted = state.ready.len() > ready;
    if promoted {
        state
            .ready
            .make_contiguous()
            .sort_by_key(|t| (t.unit, t.attempt));
    }
    promoted
}

/// The supervisor loop, on a thread of its own: promotes backoff tasks,
/// enforces per-unit deadlines, and returns when every unit is resolved or
/// a panic escaped a worker with isolation off.
///
/// It sleeps until it has something to do: every half millisecond while a
/// unit deadline is set, until the earliest backoff expiry while a retry
/// is delayed, and otherwise until the condvar wakes it (a retry was
/// delayed, the last unit resolved, or a worker stopped the scan).
fn supervise(shared: &Shared<'_>) {
    let mut state = lock(&shared.state);
    loop {
        if state.remaining == 0 || state.shutdown {
            state.shutdown = true;
            shared.cv.notify_all();
            return;
        }
        if promote_delayed(&mut state) {
            shared.cv.notify_all();
        }
        if let Some(deadline) = shared.sconf.unit_deadline {
            for worker in 0..state.in_flight.len() {
                let Some(r) = state.in_flight[worker] else {
                    continue;
                };
                if r.started.elapsed() <= deadline {
                    continue;
                }
                // Abandon the attempt: the stale worker finds its slot
                // empty when its result eventually lands, and discards it.
                state.in_flight[worker] = None;
                vc_obs::counter_inc(vc_obs::names::SENTINEL_REQUEUES);
                vc_obs::counter_inc(vc_obs::names::SENTINEL_DEADLINE_TIMEOUTS);
                let message = format!("unit deadline exceeded ({} ms)", deadline.as_millis());
                shared.retry_or_fail(&mut state, r.task.unit, r.task.attempt, message);
            }
        }
        let now = Instant::now();
        let deadline_poll = shared
            .sconf
            .unit_deadline
            .map(|_| Duration::from_micros(500));
        let poll = state
            .delayed
            .iter()
            .map(|(at, _)| at.saturating_duration_since(now))
            .chain(deadline_poll)
            .min();
        state = match poll {
            Some(timeout) => {
                shared
                    .cv
                    .wait_timeout(state, timeout)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => shared.cv.wait(state).unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// Runs the supervised parallel detection scan.
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
/// replays the journal, runs every other unit on the workers, and folds
/// all of them in unit order. `plan` sees the oracle and the interner
/// because serve keys its unit cache by them; the interner comes back on
/// the outcome for the back end.
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
            let fingerprint = scan_fingerprint(prog, config, &hconf, sconf);
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
                    // Ignore replayed units beyond the current unit range
                    // (belt and braces; the fingerprint already rules this
                    // out).
                    if !replay.completed.is_empty() {
                        known.resize_with(total, || Known::Run);
                    }
                    for (unit, rec) in replay.completed.into_iter().filter(|(u, _)| *u < total) {
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
                Ok(w) => Some(Mutex::new(w.with_fsync_every(sconf.fsync_every))),
                Err(_) => {
                    vc_obs::counter_inc(vc_obs::names::SENTINEL_JOURNAL_OPEN_FAILURES);
                    None
                }
            }
        }
    };

    // Queue every unit not already settled, in unit order; fold the
    // settled prefix.
    let mut state = ExecState::default();
    for unit in 0..total {
        if matches!(known.get(unit), None | Some(Known::Run)) {
            state.ready.push_back(Task { unit, attempt: 0 });
        }
    }
    state.remaining = state.ready.len();
    vc_obs::counter_add(vc_obs::names::SENTINEL_UNITS_REPLAYED, replayed as u64);
    vc_obs::counter_add(
        vc_obs::names::SENTINEL_UNITS_SCANNED,
        state.remaining as u64,
    );
    let jobs = sconf.effective_jobs().clamp(1, total.max(1));
    state.in_flight = vec![None; jobs];
    state.known = known;
    state.fold_settled(prog);

    let shared = Shared {
        prog,
        oracle,
        interner: &interner,
        hconf,
        sconf,
        state: Mutex::new(state),
        cv: Condvar::new(),
        journal,
        obs: ObsSession::current_or_new(),
        failplan: FailpointPlan::current(),
        escaped: Mutex::new(None),
    };

    if lock(&shared.state).remaining > 0 {
        let shared = &shared;
        thread::scope(|scope| {
            scope.spawn(move || {
                let _obs = shared.obs.install();
                supervise(shared);
            });
            for worker in 1..jobs {
                scope.spawn(move || run_worker(shared, worker));
            }
            // The calling thread is worker 0: detection stays on the thread
            // that built the program and runs the stages after it.
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
            let dec = dec_candidate(c.func.0 as usize, &c.func_name, &enc)
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
        first_conf.fsync_every = 1;
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
        let base = scan_fingerprint(
            &p,
            DetectConfig::default(),
            &HardenConfig::default(),
            &sconf(1),
        );
        let other_conf = DetectConfig {
            use_alias_analysis: false,
            ..DetectConfig::default()
        };
        assert_ne!(
            base,
            scan_fingerprint(&p, other_conf, &HardenConfig::default(), &sconf(1))
        );
        let mut salted = sconf(1);
        salted.fingerprint_salt = 99;
        assert_ne!(
            base,
            scan_fingerprint(
                &p,
                DetectConfig::default(),
                &HardenConfig::default(),
                &salted
            )
        );
        let p2 = Program::build(&[("a.c", "void q(void) { int z = 1; use(z); }\n")], &[]).unwrap();
        assert_ne!(
            base,
            scan_fingerprint(
                &p2,
                DetectConfig::default(),
                &HardenConfig::default(),
                &sconf(1)
            )
        );
        // jobs must NOT change the fingerprint: a resumed run may use a
        // different worker count.
        assert_eq!(
            base,
            scan_fingerprint(
                &p,
                DetectConfig::default(),
                &HardenConfig::default(),
                &sconf(8)
            )
        );
    }

    #[test]
    fn poisoned_unit_retries_then_fails_permanent() {
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let _fp = harden::arm_failpoint(FailStage::Detect, "g");
        let mut conf = sconf(2);
        conf.retry = 3;
        let out =
            detect_program_sentinel(&p, DetectConfig::default(), HardenConfig::default(), &conf);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].function.as_deref(), Some("g"));
        assert_eq!(out.failures[0].stage, FailStage::Detect);
        // The other units still produced their candidates.
        assert!(out.candidates.iter().any(|c| c.func_name == "f"));
        let snap = session.registry.snapshot();
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_RETRIES), 2);
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_FAILED_PERMANENT), 1);
        assert_eq!(snap.counter(vc_obs::names::HARDEN_POISONED_DETECT), 1);
    }

    #[test]
    fn poisoned_worker_is_replaced_and_units_requeue() {
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        // A worker-stage failpoint fires outside the unit isolation
        // boundary, killing the worker thread itself. Disarm after the
        // first hit so the revived incarnation can finish the scan.
        // The sequential reference runs first: it is the executor too, so
        // the armed worker failpoint would fire in it as well.
        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());
        let plan = FailpointPlan::current();
        let _fp = harden::arm_failpoint(FailStage::Worker, "f");

        let handle = thread::spawn({
            let p = Program::build(&[("a.c", SRC)], &[]).unwrap();
            let session = session.clone();
            move || {
                let _g = session.install();
                let _fp2 = plan.install();
                // One shot: the first worker to pick up `f` dies; disarm so
                // the requeued attempt succeeds.
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    detect_program_sentinel(
                        &p,
                        DetectConfig::default(),
                        HardenConfig::default(),
                        &sconf(2),
                    )
                }))
            }
        });
        // Disarm shortly after launch; the failpoint only needs to fire
        // once (`hit` is checked per unit pickup, and unit `f` retries
        // after the worker is reaped).
        thread::sleep(Duration::from_millis(5));
        drop(_fp);
        let out = handle.join().unwrap().expect("scan must survive");
        assert_eq!(sorted_debug(&out), sorted_debug(&seq));
        let snap = session.registry.snapshot();
        assert!(snap.counter(vc_obs::names::SENTINEL_WORKER_REPLACED) >= 1);
        assert!(snap.counter(vc_obs::names::SENTINEL_REQUEUES) >= 1);
    }

    #[test]
    fn escaped_panic_without_isolation_propagates_instead_of_hanging() {
        // With isolation off (`vcheck --fail-fast`) a panicking unit must
        // stop the executor and re-raise on the calling thread, not leave
        // the supervisor waiting forever on a unit that will never resolve.
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
    fn unit_deadline_leaves_fast_units_alone() {
        // A unit deadline far above every unit's run time never fires: the
        // supervisor's polling leaves a clean run untouched.
        let p = prog();
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let mut conf = sconf(2);
        conf.retry = 2;
        conf.unit_deadline = Some(Duration::from_secs(30));
        let out =
            detect_program_sentinel(&p, DetectConfig::default(), HardenConfig::default(), &conf);
        // A 30s deadline never fires for this tiny program: clean run.
        assert!(out.failures.is_empty());
        let snap = session.registry.snapshot();
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_DEADLINE_TIMEOUTS), 0);
        assert_eq!(
            snap.counter(vc_obs::names::SENTINEL_UNITS),
            p.funcs.len() as u64
        );
        assert_eq!(
            snap.counter(vc_obs::names::SENTINEL_UNITS_COMPLETED),
            p.funcs.len() as u64
        );
    }

    #[test]
    fn unit_deadline_requeues_a_slow_unit_then_fails_it() {
        // `slow` has 40k blocks, so each attempt runs several times past
        // the unit deadline, in debug and release builds alike: the
        // supervisor abandons it, requeues it, and gives up after the last
        // attempt. Every other unit finishes well within the deadline and
        // reports what a sequential scan does.
        let slow: String = (0..20_000)
            .map(|i| format!("  if (n) {{ x = {i}; }}\n"))
            .collect();
        let src = format!("{SRC}int slow(int n) {{\n  int x = 0;\n{slow}  return x;\n}}\n");
        let p = Program::build(&[("a.c", src.as_str())], &[]).unwrap();
        let slow_id = p.func_id("slow").unwrap();
        assert!(p.func(slow_id).blocks.len() >= 40_000);
        let session = ObsSession::current_or_new();
        let _g = session.install();
        let mut conf = sconf(2);
        conf.retry = 3;
        conf.unit_deadline = Some(Duration::from_millis(5));
        let out =
            detect_program_sentinel(&p, DetectConfig::default(), HardenConfig::default(), &conf);

        let snap = session.registry.snapshot();
        assert!(snap.counter(vc_obs::names::SENTINEL_DEADLINE_TIMEOUTS) >= 3);
        assert!(
            snap.counter(vc_obs::names::SENTINEL_RETRIES) >= 2,
            "requeued"
        );
        assert_eq!(snap.counter(vc_obs::names::SENTINEL_FAILED_PERMANENT), 1);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        let failure = &out.failures[0];
        assert_eq!(failure.function.as_deref(), Some("slow"));
        assert!(
            failure.message.starts_with("unit deadline exceeded (5 ms)"),
            "{failure:?}"
        );

        let seq = detect_program_hardened(&p, DetectConfig::default(), HardenConfig::default());
        let others = |o: &DetectOutcome| -> Vec<String> {
            (o.candidates.iter())
                .filter(|c| c.func != slow_id)
                .map(|c| format!("{c:?}"))
                .collect()
        };
        assert!(!others(&seq).is_empty());
        assert_eq!(others(&out), others(&seq));
        assert!(out.candidates.iter().all(|c| c.func != slow_id));
    }

    #[test]
    fn scan_deadline_counts_the_time_before_the_executor_starts() {
        // The caller fixes the deadline at its own start, so work done
        // before the executor runs (loading, serve's unit keys) uses it up.
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

    #[test]
    fn backoff_is_capped_exponential() {
        let conf = SentinelConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            ..SentinelConfig::default()
        };
        assert_eq!(conf.backoff(1), Duration::from_millis(2));
        assert_eq!(conf.backoff(2), Duration::from_millis(4));
        assert_eq!(conf.backoff(3), Duration::from_millis(8));
        assert_eq!(conf.backoff(30), Duration::from_millis(50));
    }
}
