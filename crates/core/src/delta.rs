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
    candidate::Scenario,
    fnv1a,
    harden::FailureRecord,
    pipeline::{
        build_tree,
        history_at,
        run_detected,
        Analysis,
        Options, //
    },
    rank::Ranked,
    report::csv_escape,
    sentinel::{
        detect_program_sentinel,
        SentinelConfig, //
    },
    FNV_SEED,
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

/// Collapses runs of whitespace so a re-indented definition line keeps its
/// fingerprint (and a trailing-space blame touch does too).
pub fn normalize_context(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Hashes the stable coordinates of a finding into a [`Fingerprint`].
pub fn fingerprint_of(
    file: &str,
    function: &str,
    variable: &str,
    scenario: &str,
    context: &str,
    ordinal: u32,
) -> Fingerprint {
    let mut h = FNV_SEED;
    h = fnv1a(h, file.as_bytes());
    h = fnv1a(h, function.as_bytes());
    h = fnv1a(h, variable.as_bytes());
    h = fnv1a(h, scenario.as_bytes());
    h = fnv1a(h, context.as_bytes());
    h = fnv1a(h, &ordinal.to_le_bytes());
    Fingerprint(h)
}

fn scenario_label(s: &Scenario) -> &'static str {
    match s {
        Scenario::RetVal { .. } => "retval",
        Scenario::Param { .. } => "param",
        Scenario::Overwritten => "overwritten",
    }
}

/// Fingerprints ranked findings against their program's sources.
///
/// The ordinal disambiguates findings that agree on every other coordinate
/// (e.g. two textually identical `ret = f();` definitions of the same
/// variable in one function): same-keyed findings are numbered in line
/// order, which pure drift preserves.
pub fn fingerprint_ranked(prog: &Program, ranked: &[Ranked]) -> Vec<Finding> {
    // (file, function, variable, scenario, context) key → indices, to
    // assign ordinals in line order.
    let mut keyed: Vec<(String, u32, usize)> = Vec::with_capacity(ranked.len());
    let mut contexts: Vec<String> = Vec::with_capacity(ranked.len());
    for (i, r) in ranked.iter().enumerate() {
        let c = &r.item.candidate;
        let file = prog.source.name(c.span.file);
        let context = prog
            .source
            .file(c.span.file)
            .and_then(|f| {
                f.content
                    .lines()
                    .nth((c.span.line() as usize).saturating_sub(1))
            })
            .map(normalize_context)
            .unwrap_or_default();
        let key = format!(
            "{file}\u{0}{}\u{0}{}\u{0}{}\u{0}{context}",
            c.func_name,
            c.var_name,
            scenario_label(&c.scenario)
        );
        keyed.push((key, c.span.line(), i));
        contexts.push(context);
    }
    let mut groups: HashMap<&str, Vec<(u32, usize)>> = HashMap::new();
    for (key, line, i) in &keyed {
        groups.entry(key).or_default().push((*line, *i));
    }
    let mut ordinals = vec![0u32; ranked.len()];
    for members in groups.values_mut() {
        members.sort_unstable();
        for (ord, (_, i)) in members.iter().enumerate() {
            ordinals[*i] = ord as u32;
        }
    }
    ranked
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let c = &r.item.candidate;
            let file = prog.source.name(c.span.file).to_string();
            let function = c.func_name.clone();
            let variable = c.var_name.clone();
            let scenario = scenario_label(&c.scenario).to_string();
            let fingerprint = fingerprint_of(
                &file,
                &function,
                &variable,
                &scenario,
                &contexts[i],
                ordinals[i],
            );
            Finding {
                fingerprint,
                file,
                line: c.span.line(),
                function,
                variable,
                scenario,
            }
        })
        .collect()
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
        vc_obs::counter_add(names::DELTA_NEW, self.count(DeltaStatus::New) as u64);
        vc_obs::counter_add(names::DELTA_FIXED, self.count(DeltaStatus::Fixed) as u64);
        vc_obs::counter_add(
            names::DELTA_PERSISTING,
            self.count(DeltaStatus::Persisting) as u64,
        );
        vc_obs::counter_add(
            names::DELTA_CHURNED,
            self.count(DeltaStatus::Churned) as u64,
        );
        vc_obs::counter_add(
            names::DELTA_SUPPRESSED,
            self.count(DeltaStatus::Suppressed) as u64,
        );
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
        let mut summary = vec![
            ("new".into(), Json::Int(self.count(DeltaStatus::New) as i64)),
            (
                "fixed".into(),
                Json::Int(self.count(DeltaStatus::Fixed) as i64),
            ),
            (
                "persisting".into(),
                Json::Int(self.count(DeltaStatus::Persisting) as i64),
            ),
            (
                "churned".into(),
                Json::Int(self.count(DeltaStatus::Churned) as i64),
            ),
            (
                "suppressed".into(),
                Json::Int(self.count(DeltaStatus::Suppressed) as i64),
            ),
        ];
        let unscanned = self.count(DeltaStatus::Unscanned);
        if unscanned > 0 {
            summary.push(("unscanned".into(), Json::Int(unscanned as i64)));
        }
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
                    (
                        "old_line".into(),
                        match r.old_line {
                            Some(l) => Json::Int(l as i64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "new_line".into(),
                        match r.new_line {
                            Some(l) => Json::Int(l as i64),
                            None => Json::Null,
                        },
                    ),
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
                let old_text = old_sources.get(file)?;
                let new_text = new_sources.get(file)?;
                let old_lines: Vec<&str> = old_text.lines().collect();
                let new_lines: Vec<&str> = new_text.lines().collect();
                Some(LineMap::between(&old_lines, &new_lines))
            })
            .as_ref()
    }
    let mut line_maps: HashMap<&str, Option<LineMap>> = HashMap::new();

    // Pass 2: line-map fallback for findings whose fingerprint changed.
    // Index the still-unmatched new findings by mapped coordinates.
    let mut loose_new: HashMap<(&str, &str, &str, &str, u32), Vec<usize>> = HashMap::new();
    for &j in &new_order {
        if pair_of_new[j].is_none() {
            let f = &new[j];
            loose_new
                .entry((
                    f.file.as_str(),
                    f.function.as_str(),
                    f.variable.as_str(),
                    f.scenario.as_str(),
                    f.line,
                ))
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
        let key = (
            f.file.as_str(),
            f.function.as_str(),
            f.variable.as_str(),
            f.scenario.as_str(),
            mapped,
        );
        if let Some(js) = loose_new.get_mut(&key) {
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

/// Sorts rows into the report's canonical order.
fn sort_rows(rows: &mut [DeltaRow]) {
    rows.sort_by(|a, b| {
        (
            a.status,
            &a.finding.file,
            &a.finding.function,
            &a.finding.variable,
            a.new_line.or(a.old_line),
            a.finding.fingerprint,
        )
            .cmp(&(
                b.status,
                &b.finding.file,
                &b.finding.function,
                &b.finding.variable,
                b.new_line.or(b.old_line),
                b.finding.fingerprint,
            ))
    });
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
    /// Fingerprinted findings of that run.
    pub findings: Vec<Finding>,
    /// The revision's file contents (for line mapping and baselines).
    pub sources: HashMap<String, String>,
}

/// Scans one revision the way `vcheck <dir>` scans a tree and fingerprints
/// its findings: the snapshot is built with recovery, run through the
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
    scan_tree(
        &history_at(repo, commit),
        commit,
        &tree,
        defines,
        opts,
        sconf,
        obs,
    )
}

/// [`scan_revision`] over a revision already checked out: `history` is the
/// history truncated at `commit` and `tree` its snapshot, sorted by path
/// so unit order — and report bytes — are revision-determined. The owned
/// [`RevScan::sources`] are copied from `tree` only after detection, so
/// they are not alive while the revision is built and scanned.
pub(crate) fn scan_tree(
    history: &Repository,
    commit: CommitId,
    tree: &[(&str, &str)],
    defines: &[String],
    opts: &Options,
    sconf: &SentinelConfig,
    obs: ObsSession,
) -> Result<RevScan, BuildError> {
    let build_span = obs.span("history.build", "history");
    let built = build_tree(tree, defines);
    build_span.end();
    let (prog, errors, stats) = built.map_err(|mut errors| errors.swap_remove(0))?;
    let analysis = run_detected(&prog, history, opts, obs, Some((&errors, &stats)), || {
        detect_program_sentinel(&prog, opts.detect, opts.harden, sconf)
    });
    let findings = fingerprint_ranked(&prog, &analysis.ranked);
    let sources = tree
        .iter()
        .map(|&(path, content)| (path.to_string(), content.to_string()))
        .collect();
    Ok(RevScan {
        commit,
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
    fn fingerprint_hex_roundtrips() {
        let fp = fingerprint_of("a.c", "f", "x", "retval", "int x = g();", 1);
        assert_eq!(Fingerprint::parse_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 16);
        assert_eq!(Fingerprint::parse_hex("not-hex"), None);
    }
}
