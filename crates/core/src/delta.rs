//! Differential scanning: which findings did a revision introduce, fix, or
//! merely shift?
//!
//! A finding's raw location (file + line) is useless as an identity across
//! revisions — inserting one line above it changes the line number of every
//! finding below, and naive location matching then reports the whole file
//! as "all fixed, all new". Instead each finding gets a [`Fingerprint`]:
//! an FNV-1a hash of its *drift-stable* coordinates — file path, containing
//! function, variable, scenario, the whitespace-normalized text of the
//! definition line, and an ordinal among same-keyed findings — with the raw
//! line number deliberately excluded. Pure line drift (insertions or
//! deletions elsewhere in the file) leaves every component unchanged.
//!
//! The fingerprint is computed once, where the finding is made:
//! [`Report::from_ranked`](crate::report::Report::from_ranked) builds each
//! report row around a [`Finding`], and everything downstream (this
//! module's [`classify`], the history replay, the lifecycle database,
//! serve replies and the stores) reads those rows' findings instead of
//! deriving them again.
//!
//! [`classify`] matches the two sides in two passes:
//!
//! 1. **fingerprint** — equal fingerprints pair up in line order
//!    (a multiset match, so duplicate-keyed findings pair one-to-one);
//! 2. **line map** — findings whose fingerprint changed (e.g. the
//!    definition line itself was edited) fall back to the
//!    [`vc_vcs::diff`] edit script: if the old line maps onto a new-side
//!    finding with the same file/function/variable/scenario, it still
//!    counts as persisting (under `delta.line_mapped`).
//!
//! A fingerprint match is further split by *location*: when the matched
//! definition sits further than [`CHURN_NEARBY_LINES`] from where the edit
//! script projects its old position (the code was reorganised around it,
//! not merely drifted), the row classifies as `churned` rather than
//! `persisting` — the lifecycle scanner treats churn as a proxy
//! false-positive signal, and folding it into `persisting` would hide it.
//!
//! What remains on the new side is `new` (or `suppressed` when its
//! fingerprint appears in a `--baseline` set); what remains on the old side
//! is `fixed` — unless the new revision's scan could not look at it: a
//! finding whose function (or whole file) is named by one of the new
//! revision's failure records is `unscanned` instead
//! ([`DeltaReport::mark_unscanned`]). The classified rows render as CSV and JSON ([`DeltaReport`])
//! with the same byte-determinism guarantees as the main report: identical
//! for any `--jobs` value and across journal resumes.

use std::collections::{
    HashMap,
    HashSet,
    VecDeque, //
};

use vc_ir::{
    program::BuildError,
    Program, //
};
use vc_obs::{
    hash::{
        fnv1a,
        FNV_SEED, //
    },
    names,
    Json,
    ObsSession, //
};
use vc_vcs::{
    diff::LineMap,
    CommitId,
    Repository, //
};

use crate::{
    harden::FailureRecord,
    pipeline::{
        build_tree,
        history_at,
        run_detected,
        Analysis,
        Options, //
    },
    report::csv_escape,
    sentinel::{
        execute,
        Known,
        SentinelConfig, //
    },
};

/// A drift-stable identity for one finding.
///
/// Two findings in different revisions with equal fingerprints are the same
/// finding; the hash covers file path, function, variable, scenario label,
/// the whitespace-normalized definition-line text, and an ordinal among
/// findings sharing all of those — but **not** the raw line number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Renders as 16 lower-case hex digits (the on-disk and CSV form).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the 16-hex-digit form.
    pub fn parse_hex(s: &str) -> Option<Fingerprint> {
        u64::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

/// One fingerprinted finding, self-contained (no [`Program`] needed to
/// interpret it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The drift-stable identity.
    pub fingerprint: Fingerprint,
    /// File of the unused definition.
    pub file: String,
    /// 1-based definition line *in its own revision*.
    pub line: u32,
    /// Containing function.
    pub function: String,
    /// Variable (or field) name.
    pub variable: String,
    /// Scenario label: `retval`, `param`, or `overwritten`.
    pub scenario: String,
}

impl Finding {
    /// The canonical order of findings, ties broken by fingerprint: file,
    /// function, variable, line. Delta rows sort by it after their status,
    /// and history orders each commit's events by it.
    pub fn key(&self) -> (&str, &str, &str, u32, Fingerprint) {
        (
            &self.file,
            &self.function,
            &self.variable,
            self.line,
            self.fingerprint,
        )
    }
}

/// Collapses runs of whitespace so a re-indented definition line keeps its
/// fingerprint (and a trailing-space blame touch does too).
pub fn normalize_context(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Hashes the stable coordinates of a finding (file, function, variable,
/// scenario label, normalized definition line) and its ordinal into a
/// [`Fingerprint`].
pub fn fingerprint_of(coords: [&str; 5], ordinal: u32) -> Fingerprint {
    let h = coords.iter().fold(FNV_SEED, |h, c| fnv1a(h, c.as_bytes()));
    Fingerprint(fnv1a(h, &ordinal.to_le_bytes()))
}

/// A matched finding counts as `persisting` only while its new location is
/// within this many lines of where the old revision's edit script projects
/// it; further away it is `churned` — same finding, relocated code.
pub const CHURN_NEARBY_LINES: u32 = 3;

/// Lifecycle of one finding across the scanned pair of revisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaStatus {
    /// Present in the new revision only.
    New,
    /// Present in the old revision only.
    Fixed,
    /// Present in both (fingerprint match or line-map match), at (or near)
    /// the location the edit script predicts.
    Persisting,
    /// Present in both, but relocated beyond [`CHURN_NEARBY_LINES`] of its
    /// projected position (the surrounding code was reorganised).
    Churned,
    /// Would be `New`, but its fingerprint is in the baseline set.
    Suppressed,
    /// Would be `Fixed`, but the new revision's scan failed on the
    /// finding's function or file (a parse or analysis failure), so it is
    /// not known to be gone.
    Unscanned,
}

impl DeltaStatus {
    /// Every status, in the order the JSON summary lists them.
    const ALL: [DeltaStatus; 6] = [
        DeltaStatus::New,
        DeltaStatus::Fixed,
        DeltaStatus::Persisting,
        DeltaStatus::Churned,
        DeltaStatus::Suppressed,
        DeltaStatus::Unscanned,
    ];

    /// Stable lower-case label (CSV/JSON field).
    pub fn label(self) -> &'static str {
        match self {
            DeltaStatus::New => "new",
            DeltaStatus::Fixed => "fixed",
            DeltaStatus::Persisting => "persisting",
            DeltaStatus::Churned => "churned",
            DeltaStatus::Suppressed => "suppressed",
            DeltaStatus::Unscanned => "unscanned",
        }
    }
}

/// One classified finding.
#[derive(Clone, Debug)]
pub struct DeltaRow {
    /// Lifecycle classification.
    pub status: DeltaStatus,
    /// The finding (new-revision coordinates when it exists there,
    /// old-revision coordinates for `fixed`).
    pub finding: Finding,
    /// Line in the old revision (`None` for `new`/`suppressed`).
    pub old_line: Option<u32>,
    /// Line in the new revision (`None` for `fixed`/`unscanned`).
    pub new_line: Option<u32>,
    /// The old-side fingerprint of a matched finding (`Some` for
    /// `persisting`/`churned`/`fixed`/`unscanned`). Differs from `finding.fingerprint`
    /// exactly when the pair was made by the line-map fallback — this is
    /// what lets the lifecycle scanner follow one finding's identity across
    /// an edit to its own definition line.
    pub old_fingerprint: Option<Fingerprint>,
}

/// The classified differential report.
#[derive(Clone, Debug, Default)]
pub struct DeltaReport {
    /// Classified rows, sorted by (status, file, function, variable, line,
    /// fingerprint) — a canonical order independent of scan scheduling.
    pub rows: Vec<DeltaRow>,
}

impl DeltaReport {
    /// Rows with the given status.
    pub fn count(&self, status: DeltaStatus) -> usize {
        self.rows.iter().filter(|r| r.status == status).count()
    }

    /// Whether any *unsuppressed* new findings are present (the CI gate:
    /// `vcheck delta` exits 1 exactly when this is true).
    pub fn has_new(&self) -> bool {
        self.rows.iter().any(|r| r.status == DeltaStatus::New)
    }

    /// Reclassifies `fixed` rows as `unscanned` where `failures` (the new
    /// revision's failure records) name the finding's function in its file,
    /// or its whole file: a finding in code the new scan could not analyse
    /// is not evidence of a fix.
    pub fn mark_unscanned(&mut self, failures: &[FailureRecord]) {
        if failures.is_empty() {
            return;
        }
        let unscanned = |f: &Finding| {
            failures
                .iter()
                .any(|r| r.file == f.file && r.function.as_ref().is_none_or(|g| *g == f.function))
        };
        for row in &mut self.rows {
            if row.status == DeltaStatus::Fixed && unscanned(&row.finding) {
                row.status = DeltaStatus::Unscanned;
            }
        }
        sort_rows(&mut self.rows);
    }

    /// Records `delta.*` counters into the installed observability session.
    pub fn record_metrics(&self) {
        for (name, status) in [
            (names::DELTA_NEW, DeltaStatus::New),
            (names::DELTA_FIXED, DeltaStatus::Fixed),
            (names::DELTA_PERSISTING, DeltaStatus::Persisting),
            (names::DELTA_CHURNED, DeltaStatus::Churned),
            (names::DELTA_SUPPRESSED, DeltaStatus::Suppressed),
        ] {
            vc_obs::counter_add(name, self.count(status) as u64);
        }
    }

    /// Renders as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("status,fingerprint,file,old_line,new_line,function,variable,scenario\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.status.label(),
                r.finding.fingerprint.to_hex(),
                csv_escape(&r.finding.file),
                r.old_line.map(|l| l.to_string()).unwrap_or_default(),
                r.new_line.map(|l| l.to_string()).unwrap_or_default(),
                csv_escape(&r.finding.function),
                csv_escape(&r.finding.variable),
                r.finding.scenario,
            ));
        }
        out
    }

    /// Renders as pretty-printed JSON: a summary object plus the rows. The
    /// summary counts `unscanned` rows only when there are any.
    pub fn to_json(&self) -> String {
        let unscanned = self.count(DeltaStatus::Unscanned) > 0;
        let summary = (DeltaStatus::ALL.iter())
            .filter(|&&s| s != DeltaStatus::Unscanned || unscanned)
            .map(|&s| (s.label().into(), Json::Int(self.count(s) as i64)))
            .collect();
        let line_json = |line: Option<u32>| line.map_or(Json::Null, |l| Json::Int(l as i64));
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("status".into(), Json::Str(r.status.label().into())),
                    (
                        "fingerprint".into(),
                        Json::Str(r.finding.fingerprint.to_hex()),
                    ),
                    ("file".into(), Json::Str(r.finding.file.clone())),
                    ("old_line".into(), line_json(r.old_line)),
                    ("new_line".into(), line_json(r.new_line)),
                    ("function".into(), Json::Str(r.finding.function.clone())),
                    ("variable".into(), Json::Str(r.finding.variable.clone())),
                    ("scenario".into(), Json::Str(r.finding.scenario.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("summary".into(), Json::Obj(summary)),
            ("rows".into(), Json::Arr(rows)),
        ])
        .to_string_pretty()
    }

    /// Every rendered byte — CSV followed by JSON — as one buffer; the
    /// determinism tests compare this across `--jobs` values and resumes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = self.to_csv().into_bytes();
        out.extend_from_slice(self.to_json().as_bytes());
        out
    }
}

/// Classifies old-side vs new-side findings into a [`DeltaReport`].
///
/// `old_sources` / `new_sources` are the two revisions' file contents,
/// needed for the edit-script line-map fallback; `baseline` is a set of
/// fingerprints to suppress from `new`.
pub fn classify(
    old: &[Finding],
    new: &[Finding],
    old_sources: &HashMap<String, String>,
    new_sources: &HashMap<String, String>,
    baseline: &HashSet<u64>,
) -> DeltaReport {
    // Pass 1: multiset fingerprint match, pairing in line order.
    let mut by_fp: HashMap<u64, VecDeque<usize>> = HashMap::new();
    let mut old_order: Vec<usize> = (0..old.len()).collect();
    old_order.sort_by(|&a, &b| (&old[a].file, old[a].line, a).cmp(&(&old[b].file, old[b].line, b)));
    for &i in &old_order {
        by_fp.entry(old[i].fingerprint.0).or_default().push_back(i);
    }
    let mut pair_of_new: Vec<Option<usize>> = vec![None; new.len()];
    let mut old_matched = vec![false; old.len()];
    let mut new_order: Vec<usize> = (0..new.len()).collect();
    new_order.sort_by(|&a, &b| (&new[a].file, new[a].line, a).cmp(&(&new[b].file, new[b].line, b)));
    for &j in &new_order {
        if let Some(q) = by_fp.get_mut(&new[j].fingerprint.0) {
            if let Some(i) = q.pop_front() {
                old_matched[i] = true;
                pair_of_new[j] = Some(i);
            }
        }
    }

    // Lazily built per-file line maps, shared by the pass-2 fallback and
    // the pass-3 churn split. `None` caches "no map" for files missing from
    // either side's sources.
    fn map_for<'m, 's>(
        maps: &'m mut HashMap<&'s str, Option<LineMap>>,
        file: &'s str,
        old_sources: &HashMap<String, String>,
        new_sources: &HashMap<String, String>,
    ) -> Option<&'m LineMap> {
        maps.entry(file)
            .or_insert_with(|| {
                let (old, new) = (old_sources.get(file)?, new_sources.get(file)?);
                Some(LineMap::between_texts(old, new))
            })
            .as_ref()
    }
    let mut line_maps: HashMap<&str, Option<LineMap>> = HashMap::new();

    // Pass 2: line-map fallback for findings whose fingerprint changed.
    // Index the still-unmatched new findings by mapped coordinates.
    type Coords<'f> = (&'f str, &'f str, &'f str, &'f str, u32);
    fn at(f: &Finding, line: u32) -> Coords<'_> {
        (&f.file, &f.function, &f.variable, &f.scenario, line)
    }
    let mut loose_new: HashMap<Coords, Vec<usize>> = HashMap::new();
    for &j in &new_order {
        if pair_of_new[j].is_none() {
            loose_new
                .entry(at(&new[j], new[j].line))
                .or_default()
                .push(j);
        }
    }
    let mut line_mapped_pair = vec![false; new.len()];
    let mut line_mapped = 0u64;
    for &i in &old_order {
        if old_matched[i] {
            continue;
        }
        let f = &old[i];
        let Some(map) = map_for(&mut line_maps, f.file.as_str(), old_sources, new_sources) else {
            continue;
        };
        // `nearby`: an edited definition line has no exact image in the
        // new revision, but its projected position (anchored on the
        // nearest kept line) is exactly where the re-detected finding sits.
        let Some(mapped) = map.old_to_new_nearby(f.line) else {
            continue;
        };
        if let Some(js) = loose_new.get_mut(&at(f, mapped)) {
            if !js.is_empty() {
                let j = js.remove(0);
                pair_of_new[j] = Some(i);
                old_matched[i] = true;
                line_mapped_pair[j] = true;
                line_mapped += 1;
            }
        }
    }
    vc_obs::counter_add(names::DELTA_LINE_MAPPED, line_mapped);

    // Assemble rows. Pass 3 splits each matched pair into persisting vs
    // churned: a pair whose new location strays beyond CHURN_NEARBY_LINES
    // of the edit script's projection sits in reorganised code.
    let mut rows: Vec<DeltaRow> = Vec::new();
    for (j, f) in new.iter().enumerate() {
        match pair_of_new[j] {
            Some(i) => {
                let old_f = &old[i];
                let status = if line_mapped_pair[j] {
                    // A line-map pair lands exactly on the projection.
                    DeltaStatus::Persisting
                } else {
                    let projected = map_for(
                        &mut line_maps,
                        old_f.file.as_str(),
                        old_sources,
                        new_sources,
                    )
                    .map(|m| m.old_to_new_nearby(old_f.line));
                    match projected {
                        // No sources for this file: can't tell, keep the
                        // benign classification.
                        None => DeltaStatus::Persisting,
                        // The finding survived but its old neighbourhood
                        // has no plausible image — relocated wholesale.
                        Some(None) => DeltaStatus::Churned,
                        Some(Some(p)) if p.abs_diff(f.line) > CHURN_NEARBY_LINES => {
                            DeltaStatus::Churned
                        }
                        Some(Some(_)) => DeltaStatus::Persisting,
                    }
                };
                rows.push(DeltaRow {
                    status,
                    finding: f.clone(),
                    old_line: Some(old_f.line),
                    new_line: Some(f.line),
                    old_fingerprint: Some(old_f.fingerprint),
                });
            }
            None => {
                let status = if baseline.contains(&f.fingerprint.0) {
                    DeltaStatus::Suppressed
                } else {
                    DeltaStatus::New
                };
                rows.push(DeltaRow {
                    status,
                    finding: f.clone(),
                    old_line: None,
                    new_line: Some(f.line),
                    old_fingerprint: None,
                });
            }
        }
    }
    for (i, f) in old.iter().enumerate() {
        if !old_matched[i] {
            rows.push(DeltaRow {
                status: DeltaStatus::Fixed,
                finding: f.clone(),
                old_line: Some(f.line),
                new_line: None,
                old_fingerprint: Some(f.fingerprint),
            });
        }
    }
    sort_rows(&mut rows);
    DeltaReport { rows }
}

/// Sorts rows into the report's canonical order: by status, then by
/// [`Finding::key`].
fn sort_rows(rows: &mut [DeltaRow]) {
    rows.sort_by(|a, b| (a.status, a.finding.key()).cmp(&(b.status, b.finding.key())));
}

/// One side of a differential scan: the revision's program and pipeline
/// run plus its fingerprinted findings and snapshot sources.
#[derive(Clone, Debug)]
pub struct RevScan {
    /// The scanned commit.
    pub commit: CommitId,
    /// The program built from the commit's snapshot.
    pub prog: Program,
    /// The pipeline run at the revision; its report's failures start with
    /// the build's parse failures, as a `vcheck <dir>` scan's do.
    pub analysis: Analysis,
    /// The findings of that run's report rows, in rank order.
    pub findings: Vec<Finding>,
    /// The revision's file contents (for line mapping and baselines).
    pub sources: HashMap<String, String>,
}

/// Scans one revision the way `vcheck <dir>` scans a tree and collects
/// its report rows' findings: the snapshot is built with recovery, run through the
/// sentinel executor with authorship/blame against the history truncated
/// at the commit, and its parse failures and `recover.*` counters are
/// spliced into the run. `Err` only when nothing in the revision could be
/// salvaged.
pub fn scan_revision(
    repo: &Repository,
    commit: CommitId,
    defines: &[String],
    opts: &Options,
    sconf: &SentinelConfig,
    obs: ObsSession,
) -> Result<RevScan, BuildError> {
    let tree = repo.tree_at(commit);
    let history = history_at(repo, commit);
    scan_tree(&history, &tree, defines, opts, sconf, obs, |_| Vec::new())
}

/// The per-commit mode of the paper's §8.6: [`scan_revision`] detecting
/// only in the functions of the files `commit` wrote; every other function
/// is left out of detection, so its findings are not reported. Program-wide
/// context (signatures, call sites, peer statistics) still comes from the
/// whole snapshot, and so do the build's parse failures and `recover.*`
/// counters: a broken function in a file the commit did not touch is
/// reported at every commit scanned, as a `vcheck <dir>` scan of the tree
/// reports it. `detect.functions` counts the functions detected in. The
/// journal binds the program, not the plan, so a commit scan resumes from
/// a full scan's journal of the same commit, replaying only the records
/// of the functions it detects in.
pub fn scan_commit(
    repo: &Repository,
    commit: CommitId,
    defines: &[String],
    opts: &Options,
    sconf: &SentinelConfig,
    obs: ObsSession,
) -> Result<RevScan, BuildError> {
    let tree = repo.tree_at(commit);
    let history = history_at(repo, commit);
    let writes = &repo.commit_info(commit).writes;
    let written: HashSet<&str> = writes.iter().map(|w| w.path.as_str()).collect();
    scan_tree(&history, &tree, defines, opts, sconf, obs, |prog| {
        (prog.funcs.iter())
            .map(|f| {
                if written.contains(prog.source.name(f.file)) {
                    Known::Run
                } else {
                    Known::LeftOut
                }
            })
            .collect()
    })
}

/// [`scan_revision`] over a revision already checked out: `history` is the
/// history truncated at the scanned commit, its head, and `tree` its
/// snapshot, sorted by path so unit order — and report bytes — are
/// revision-determined. `plan` says what the scan knows of each of the
/// built program's units; a full scan knows nothing, and its empty plan
/// runs them all. The owned [`RevScan::sources`] are copied from `tree`
/// only after detection, so they are not alive while the revision is
/// built and scanned.
pub(crate) fn scan_tree(
    history: &Repository,
    tree: &[(&str, &str)],
    defines: &[String],
    opts: &Options,
    sconf: &SentinelConfig,
    obs: ObsSession,
    plan: impl FnOnce(&Program) -> Vec<Known>,
) -> Result<RevScan, BuildError> {
    let build_span = obs.span("history.build", "history");
    let built = build_tree(tree, defines);
    build_span.end();
    let (prog, errors, stats) = built.map_err(|mut errors| errors.swap_remove(0))?;
    let analysis = run_detected(&prog, history, opts, obs, Some((&errors, &stats)), || {
        execute(&prog, opts.detect, opts.harden, sconf, |_, _| plan(&prog))
    });
    let findings = (analysis.report.rows.iter())
        .map(|r| r.finding.clone())
        .collect();
    let sources = tree
        .iter()
        .map(|&(path, content)| (path.to_string(), content.to_string()))
        .collect();
    Ok(RevScan {
        commit: history.head().expect("a scanned revision has a commit"),
        prog,
        analysis,
        findings,
        sources,
    })
}

/// The result of a full differential scan.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The old-revision scan.
    pub from: RevScan,
    /// The new-revision scan.
    pub to: RevScan,
    /// The classified report.
    pub report: DeltaReport,
}

/// Derives the per-revision sentinel config for one side of a delta scan:
/// the shared journal path (if any) gains a `.from` / `.to` suffix so the
/// two scans journal — and resume — independently.
pub fn side_sentinel(sconf: &SentinelConfig, side: &str) -> SentinelConfig {
    let mut out = sconf.clone();
    if let Some(journal) = &sconf.journal {
        let mut name = journal.as_os_str().to_os_string();
        name.push(".");
        name.push(side);
        out.journal = Some(std::path::PathBuf::from(name));
    }
    out
}

/// Runs the full differential scan: both revisions through the sentinel
/// executor (journals suffixed `.from` / `.to`), classification of the
/// `(from, to)` revision pair, and `delta.*` metrics recorded into `obs`.
pub fn delta_scan(
    repo: &Repository,
    (from, to): (CommitId, CommitId),
    defines: &[String],
    opts: &Options,
    sconf: &SentinelConfig,
    baseline: &HashSet<u64>,
    obs: ObsSession,
) -> Result<DeltaOutcome, BuildError> {
    let _guard = obs.install();
    let span = obs.span("delta.scan", "delta");
    let delta_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_DELTA);
    let scan = |commit, side| {
        let sconf = side_sentinel(sconf, side);
        scan_revision(repo, commit, defines, opts, &sconf, obs.clone())
    };
    let from_scan = scan(from, "from")?;
    let to_scan = scan(to, "to")?;
    let mut report = classify(
        &from_scan.findings,
        &to_scan.findings,
        &from_scan.sources,
        &to_scan.sources,
        baseline,
    );
    report.mark_unscanned(&to_scan.analysis.report.failures);
    report.record_metrics();
    delta_mem.finish();
    span.end();
    Ok(DeltaOutcome {
        from: from_scan,
        to: to_scan,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sentinel::SentinelConfig;
    use vc_vcs::FileWrite;

    fn write(path: &str, content: &str) -> FileWrite {
        FileWrite {
            path: path.into(),
            content: content.into(),
        }
    }

    /// One library-retval bug: cross-scope even in a single-author history,
    /// because the callee is not defined in the project.
    fn bug_fn(name: &str) -> String {
        format!(
            "int get_{name}(void);\nint calc_{name}(void);\nvoid {name}(void) {{\nint ret = \
             get_{name}();\nret = calc_{name}();\nif (ret) {{ sink(ret); }}\n}}\n"
        )
    }

    fn clean_fn(name: &str) -> String {
        format!(
            "int get_{name}(void);\nvoid {name}(void) {{\nint ret = get_{name}();\nif (ret) {{ \
             sink(ret); }}\n}}\n"
        )
    }

    fn scan(repo: &Repository, at: CommitId) -> RevScan {
        scan_revision(
            repo,
            at,
            &[],
            &Options::paper(),
            &SentinelConfig::default(),
            ObsSession::new(),
        )
        .unwrap()
    }

    #[test]
    fn fingerprints_survive_pure_line_drift() {
        let body = format!("{}{}", bug_fn("alpha"), bug_fn("beta"));
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &body)]);
        // Ten declarations inserted above everything: every finding's line
        // shifts, nothing else changes.
        let mut padded = String::new();
        for i in 0..10 {
            padded.push_str(&format!("int pad_{i}(void);\n"));
        }
        padded.push_str(&body);
        let c2 = repo.commit(dev, 2, "pad", vec![write("a.c", &padded)]);

        let s1 = scan(&repo, c1);
        let s2 = scan(&repo, c2);
        assert_eq!(s1.findings.len(), 2);
        assert_eq!(s2.findings.len(), 2);
        let fp1: HashSet<u64> = s1.findings.iter().map(|f| f.fingerprint.0).collect();
        let fp2: HashSet<u64> = s2.findings.iter().map(|f| f.fingerprint.0).collect();
        assert_eq!(fp1, fp2, "pure drift must not move any fingerprint");
        assert_ne!(
            s1.findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            s2.findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            "the lines did drift — the fingerprints just didn't care"
        );
    }

    #[test]
    fn duplicate_key_findings_get_distinct_stable_ordinals() {
        // Two textually identical definitions of the same variable in one
        // function: same file/function/variable/scenario/context, so only
        // the ordinal separates them.
        let src = "int get_v(void);\nint calc_v(void);\nvoid f(void) {\nint ret = get_v();\nret = \
                   calc_v();\nsink(ret);\nret = get_v();\nret = calc_v();\nsink(ret);\n}\n";
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", src)]);
        let s1 = scan(&repo, c1);
        let fps: HashSet<u64> = s1.findings.iter().map(|f| f.fingerprint.0).collect();
        assert_eq!(
            fps.len(),
            s1.findings.len(),
            "ordinals must separate duplicate keys: {:?}",
            s1.findings
        );
    }

    #[test]
    fn classify_splits_new_fixed_persisting() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let v1 = format!("{}{}", bug_fn("keep"), bug_fn("gone"));
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &v1)]);
        // v2: pad above, fix `gone`, add `fresh`.
        let v2 = format!(
            "int pad_a(void);\nint pad_b(void);\n{}{}{}",
            bug_fn("keep"),
            clean_fn("gone"),
            bug_fn("fresh")
        );
        let c2 = repo.commit(dev, 2, "v2", vec![write("a.c", &v2)]);

        let s1 = scan(&repo, c1);
        let s2 = scan(&repo, c2);
        let report = classify(
            &s1.findings,
            &s2.findings,
            &s1.sources,
            &s2.sources,
            &HashSet::new(),
        );
        assert_eq!(report.count(DeltaStatus::New), 1, "{:#?}", report.rows);
        assert_eq!(report.count(DeltaStatus::Fixed), 1);
        assert_eq!(report.count(DeltaStatus::Persisting), 1);
        let new_row = report
            .rows
            .iter()
            .find(|r| r.status == DeltaStatus::New)
            .unwrap();
        assert_eq!(new_row.finding.function, "fresh");
        let fixed_row = report
            .rows
            .iter()
            .find(|r| r.status == DeltaStatus::Fixed)
            .unwrap();
        assert_eq!(fixed_row.finding.function, "gone");
        assert!(report.has_new());
    }

    #[test]
    fn baseline_suppresses_known_fingerprints() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &bug_fn("old"))]);
        let v2 = format!("{}{}", bug_fn("old"), bug_fn("fresh"));
        let c2 = repo.commit(dev, 2, "v2", vec![write("a.c", &v2)]);
        let s1 = scan(&repo, c1);
        let s2 = scan(&repo, c2);
        let fresh_fp = s2
            .findings
            .iter()
            .find(|f| f.function == "fresh")
            .unwrap()
            .fingerprint
            .0;
        let baseline: HashSet<u64> = [fresh_fp].into_iter().collect();
        let report = classify(
            &s1.findings,
            &s2.findings,
            &s1.sources,
            &s2.sources,
            &baseline,
        );
        assert_eq!(report.count(DeltaStatus::New), 0);
        assert_eq!(report.count(DeltaStatus::Suppressed), 1);
        assert!(!report.has_new(), "suppressed findings do not gate CI");
    }

    #[test]
    fn line_map_fallback_matches_edited_context() {
        // The definition line itself changes (`get_x()` → `get_x2()`), so
        // the fingerprint changes; the diff line map still pairs old and
        // new because the surrounding function is unchanged.
        let v1 = "int get_x(void);\nint get_x2(void);\nint calc_x(void);\nvoid f(void) {\nint ret \
                  = get_x();\nret = calc_x();\nsink(ret);\n}\n";
        let v2 = "int get_x(void);\nint get_x2(void);\nint calc_x(void);\nvoid f(void) {\nint ret \
                  = get_x2();\nret = calc_x();\nsink(ret);\n}\n";
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", v1)]);
        let c2 = repo.commit(dev, 2, "v2", vec![write("a.c", v2)]);
        let s1 = scan(&repo, c1);
        let s2 = scan(&repo, c2);
        assert_eq!(s1.findings.len(), 1);
        assert_eq!(s2.findings.len(), 1);
        assert_ne!(
            s1.findings[0].fingerprint, s2.findings[0].fingerprint,
            "context edit moves the fingerprint — that's the case under test"
        );
        let obs = ObsSession::new();
        let report = {
            let _g = obs.install();
            classify(
                &s1.findings,
                &s2.findings,
                &s1.sources,
                &s2.sources,
                &HashSet::new(),
            )
        };
        assert_eq!(
            report.count(DeltaStatus::Persisting),
            1,
            "{:#?}",
            report.rows
        );
        assert_eq!(report.count(DeltaStatus::New), 0);
        assert_eq!(report.count(DeltaStatus::Fixed), 0);
        assert_eq!(obs.registry.counter(names::DELTA_LINE_MAPPED), 1);
    }

    #[test]
    fn relocated_function_classifies_as_churned() {
        // `alpha` moves from the top of the file to the bottom, past two
        // stable functions — same fingerprint, but its projected position
        // (through the edit script) is nowhere near where it resurfaces.
        let v1 = format!("{}{}{}", bug_fn("alpha"), bug_fn("s1"), bug_fn("s2"));
        let v2 = format!("{}{}{}", bug_fn("s1"), bug_fn("s2"), bug_fn("alpha"));
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &v1)]);
        let c2 = repo.commit(dev, 2, "move alpha last", vec![write("a.c", &v2)]);
        let s1 = scan(&repo, c1);
        let s2 = scan(&repo, c2);
        let obs = ObsSession::new();
        let report = {
            let _g = obs.install();
            classify(
                &s1.findings,
                &s2.findings,
                &s1.sources,
                &s2.sources,
                &HashSet::new(),
            )
        };
        assert_eq!(report.count(DeltaStatus::Churned), 1, "{:#?}", report.rows);
        assert_eq!(report.count(DeltaStatus::Persisting), 2);
        assert_eq!(report.count(DeltaStatus::New), 0);
        assert_eq!(report.count(DeltaStatus::Fixed), 0);
        let churned = report
            .rows
            .iter()
            .find(|r| r.status == DeltaStatus::Churned)
            .unwrap();
        assert_eq!(churned.finding.function, "alpha");
        assert_eq!(
            churned.old_fingerprint,
            Some(churned.finding.fingerprint),
            "a fingerprint-matched pair carries its own fingerprint over"
        );
        {
            let _g = obs.install();
            report.record_metrics();
        }
        assert_eq!(obs.registry.counter(names::DELTA_CHURNED), 1);
        assert!(
            !report.has_new(),
            "churn is telemetry, not a CI gate condition"
        );
        assert!(report.to_csv().contains("churned,"));
        assert!(report.to_json().contains("\"churned\": 1"));
    }

    #[test]
    fn pure_drift_is_persisting_not_churned() {
        // Ten pad lines above everything: the projection tracks the drift
        // exactly, so nothing may be reported as churned.
        let body = format!("{}{}", bug_fn("alpha"), bug_fn("beta"));
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &body)]);
        let mut padded = String::new();
        for i in 0..10 {
            padded.push_str(&format!("int pad_{i}(void);\n"));
        }
        padded.push_str(&body);
        let c2 = repo.commit(dev, 2, "pad", vec![write("a.c", &padded)]);
        let s1 = scan(&repo, c1);
        let s2 = scan(&repo, c2);
        let report = classify(
            &s1.findings,
            &s2.findings,
            &s1.sources,
            &s2.sources,
            &HashSet::new(),
        );
        assert_eq!(report.count(DeltaStatus::Churned), 0, "{:#?}", report.rows);
        assert_eq!(report.count(DeltaStatus::Persisting), 2);
    }

    #[test]
    fn self_delta_reports_zero_new_zero_fixed() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let body = format!("{}{}", bug_fn("a1"), bug_fn("a2"));
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &body)]);
        let obs = ObsSession::new();
        let outcome = delta_scan(
            &repo,
            (c1, c1),
            &[],
            &Options::paper(),
            &SentinelConfig::default(),
            &HashSet::new(),
            obs.clone(),
        )
        .unwrap();
        assert_eq!(outcome.report.count(DeltaStatus::New), 0);
        assert_eq!(outcome.report.count(DeltaStatus::Fixed), 0);
        assert_eq!(outcome.report.count(DeltaStatus::Persisting), 2);
        assert_eq!(obs.registry.counter(names::DELTA_PERSISTING), 2);
        assert_eq!(obs.registry.counter(names::DELTA_NEW), 0);
        assert_eq!(obs.registry.counter(names::DELTA_FIXED), 0);
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Baselines, snapshot stores, suppression stores and lifedb tracks
        // written by earlier builds key on these exact values; a change
        // here orphans every one of them.
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &bug_fn("alpha"))]);
        // Two same-keyed findings: ordinals 0 and 1, in line order.
        let dup = "int get_v(void);\nint calc_v(void);\nvoid f(void) {\nint ret = get_v();\nret = \
                   calc_v();\nsink(ret);\nret = get_v();\nret = calc_v();\nsink(ret);\n}\n";
        let c2 = repo.commit(dev, 2, "v2", vec![write("a.c", dup)]);
        let pinned = |at| -> Vec<(String, u32)> {
            let findings = scan(&repo, at).findings.into_iter();
            findings.map(|f| (f.fingerprint.to_hex(), f.line)).collect()
        };
        assert_eq!(pinned(c1), [("b5718a223d24a5e0".to_string(), 4)]);
        assert_eq!(
            pinned(c2),
            [
                ("da81328fdd495700".to_string(), 4),
                ("5aa672c036b2c7c7".to_string(), 7)
            ]
        );
    }

    /// Scans `commit` alone with the paper's options and one job,
    /// recording into a fresh session.
    fn scan_one(repo: &Repository, commit: CommitId) -> (RevScan, ObsSession) {
        let obs = ObsSession::new();
        let sconf = SentinelConfig::sequential();
        let scan = scan_commit(repo, commit, &[], &Options::paper(), &sconf, obs.clone())
            .expect("the commit's snapshot builds");
        (scan, obs)
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vc-delta-{}-{name}", std::process::id()))
    }

    #[test]
    fn a_commit_scan_detects_only_in_the_files_the_commit_wrote() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(
            alice,
            1,
            "init",
            vec![
                write("a.c", "void fa(void) {\nint x = 1;\nuse(x);\n}\n"),
                write("b.c", &bug_fn("beta")),
            ],
        );
        // Bob introduces a cross-scope unused definition in a.c only.
        let c = repo.commit(
            bob,
            2,
            "rework fa",
            vec![write(
                "a.c",
                "void fa(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n",
            )],
        );
        assert_eq!(scan(&repo, c).findings.len(), 2, "the revision has two");
        let (scan, obs) = scan_one(&repo, c);
        assert_eq!(obs.registry.counter(names::DETECT_FUNCTIONS), 1);
        assert_eq!(scan.findings.len(), 1);
        let found = &scan.findings[0];
        let coords = (&*found.file, &*found.function, &*found.variable);
        assert_eq!(coords, ("a.c", "fa", "x"));

        // The next run sees these findings through a store, which doubles
        // as a baseline suppression set.
        let path = temp_journal("stored-run");
        let store = crate::store::SnapshotStore::from_findings(c, &scan.findings);
        store.save(&path).unwrap();
        let previous = crate::store::SnapshotStore::load(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(previous, store);
        assert_eq!(previous.findings[0].scenario, "overwritten");
        assert_eq!(
            previous.fingerprint_set(),
            HashSet::from([found.fingerprint.0])
        );
    }

    #[test]
    fn a_historical_commit_scan_blames_against_its_own_history() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(
            alice,
            1,
            "init",
            vec![write("a.c", "void fa(void) {\nint x = 1;\nuse(x);\n}\n")],
        );
        let c = repo.commit(
            bob,
            2,
            "overwrite x",
            vec![write(
                "a.c",
                "void fa(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n",
            )],
        );
        // Later alice re-touches bob's line: at head she owns it, so the
        // overwrite is no longer cross-scope — but at `c` it was bob's.
        let head = repo.commit(
            alice,
            3,
            "whitespace",
            vec![write(
                "a.c",
                "void fa(void) {\nint x = 1;\nx = 2; \nuse(x);\n}\n",
            )],
        );
        let historical = scan_one(&repo, c).0;
        let checked_out = scan_one(&repo.checkout(c), c).0;
        assert_eq!(historical.findings.len(), 1);
        assert_eq!(
            historical.analysis.report.canonical_bytes(),
            checked_out.analysis.report.canonical_bytes()
        );
        assert!(scan_one(&repo, head).0.findings.is_empty());
    }

    #[test]
    fn a_clean_commit_scan_has_no_findings() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c = repo.commit(
            a,
            1,
            "init",
            vec![write("a.c", "int f(int v) { return v + 1; }\n")],
        );
        let (scan, obs) = scan_one(&repo, c);
        assert_eq!(obs.registry.counter(names::DETECT_FUNCTIONS), 1);
        assert!(scan.findings.is_empty());
    }

    #[test]
    fn a_corrupted_commit_scan_matches_the_vcheck_dir_oracle() {
        let (repo, clean, broken) = vc_workload::corrupted_history();
        let (before, _) = scan_one(&repo, clean);
        let (after, obs) = scan_one(&repo, broken);

        // The oracle: `vcheck <dir>`'s front-end accounting of the same tree.
        let (_, errors, stats) = Program::build_recovering(&repo.tree_at(broken), &[]);
        let oracle = ObsSession::new();
        let mut report = crate::report::Report::default();
        report.splice_parse_failures(&oracle.registry, &errors, &stats);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(after.analysis.report.failures, report.failures);
        for (name, value) in oracle.registry.snapshot().counters {
            assert_eq!(obs.registry.counter(&name), value, "{name}");
        }

        // Both planted findings keep their clean-revision fingerprints.
        let fingerprints = |scan: &RevScan| -> Vec<Fingerprint> {
            scan.findings.iter().map(|f| f.fingerprint).collect()
        };
        assert_eq!(fingerprints(&after).len(), 2);
        assert_eq!(fingerprints(&after), fingerprints(&before));
    }

    #[test]
    fn a_historical_snapshot_is_scanned_as_it_was() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(
            a,
            1,
            "v1 with helper",
            vec![write("a.c", "int helper(void) { return 1; }\n")],
        );
        repo.commit(
            a,
            2,
            "v2 removes helper",
            vec![write("a.c", "int other(void) { return 2; }\n")],
        );
        let (scan, obs) = scan_one(&repo, c1);
        assert_eq!(obs.registry.counter(names::DETECT_FUNCTIONS), 1);
        assert!(scan.prog.func_by_name("helper").is_some());
        assert!(scan.prog.func_by_name("other").is_none());
    }

    #[test]
    fn a_commit_scan_resumes_from_a_full_scan_journal_of_its_commit() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        repo.commit(
            dev,
            1,
            "v1",
            vec![
                write("a.c", &bug_fn("alpha")),
                write("b.c", &bug_fn("beta")),
            ],
        );
        let rewrite = format!("{}{}", bug_fn("alpha"), clean_fn("gamma"));
        let c = repo.commit(dev, 2, "v2", vec![write("a.c", &rewrite)]);
        let journal = temp_journal("full-then-commit");
        let opts = Options::paper();
        let record = SentinelConfig {
            journal: Some(journal.clone()),
            ..SentinelConfig::sequential()
        };
        let whole = scan_revision(&repo, c, &[], &opts, &record, ObsSession::new()).unwrap();
        assert_eq!(whole.findings.len(), 2, "alpha and beta");

        // The journal holds every unit of the revision; the commit scan
        // replays only a.c's, and beta stays out.
        let resume = SentinelConfig {
            resume: true,
            ..record
        };
        let obs = ObsSession::new();
        let resumed = scan_commit(&repo, c, &[], &opts, &resume, obs.clone()).unwrap();
        std::fs::remove_file(&journal).ok();
        let (cold, _) = scan_one(&repo, c);
        assert_eq!(cold.findings.len(), 1);
        assert_eq!(cold.findings[0].function, "alpha");
        assert_eq!(resumed.findings, cold.findings);
        assert_eq!(
            resumed.analysis.report.canonical_bytes(),
            cold.analysis.report.canonical_bytes()
        );
        assert_eq!(obs.registry.counter(names::SENTINEL_UNITS_REPLAYED), 2);
        assert_eq!(obs.registry.counter(names::SENTINEL_UNITS_SCANNED), 0);
    }

    #[test]
    fn a_journal_recorded_under_other_defines_is_discarded() {
        // Under FEATURE the library return value is overwritten unused.
        let src = "int get_v(void);\nint calc_v(void);\nvoid f(void) {\nint ret = get_v();\n\
                   #ifdef FEATURE\nret = calc_v();\n#endif\nif (ret) { sink(ret); }\n}\n";
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c = repo.commit(dev, 1, "init", vec![write("a.c", src)]);
        // The candidate's variable is mentioned under a guard: keep it.
        let opts = Options {
            prune: crate::prune::PruneConfig {
                config_dependency: false,
                ..Default::default()
            },
            ..Options::paper()
        };
        let journal = temp_journal("defines");
        let record = SentinelConfig {
            journal: Some(journal.clone()),
            ..SentinelConfig::sequential()
        };
        let plain = scan_revision(&repo, c, &[], &opts, &record, ObsSession::new()).unwrap();
        assert!(plain.findings.is_empty());

        let feature = ["FEATURE".to_string()];
        let resume = SentinelConfig {
            resume: true,
            ..record
        };
        let obs = ObsSession::new();
        let resumed = scan_revision(&repo, c, &feature, &opts, &resume, obs.clone()).unwrap();
        std::fs::remove_file(&journal).ok();
        let sequential = SentinelConfig::sequential();
        let cold = scan_revision(&repo, c, &feature, &opts, &sequential, ObsSession::new());
        let cold = cold.unwrap();
        assert_eq!(obs.registry.counter(names::SENTINEL_JOURNAL_DISCARDED), 1);
        assert_eq!(cold.findings.len(), 1);
        assert_eq!(resumed.findings, cold.findings);
        assert_eq!(
            resumed.analysis.report.canonical_bytes(),
            cold.analysis.report.canonical_bytes()
        );
    }

    #[test]
    fn fingerprint_hex_roundtrips() {
        let fp = fingerprint_of(["a.c", "f", "x", "retval", "int x = g();"], 1);
        assert_eq!(Fingerprint::parse_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 16);
        assert_eq!(Fingerprint::parse_hex("not-hex"), None);
    }
}
