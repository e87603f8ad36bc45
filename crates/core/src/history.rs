//! Whole-history lifecycle replay (`vcheck history`).
//!
//! [`history_scan`] replays **every commit** of a repository through the
//! scan pipeline — each revision is built with recovery as `vcheck <dir>`
//! builds a tree (a corrupted revision costs only its broken functions) and
//! runs under the sentinel executor with its own journal suffix (`.c<N>`),
//! so a replay is parallel, crash-safe, and resumable — and threads the
//! per-revision findings through the
//! [`crate::delta::classify`] matcher to follow each
//! drift-stable fingerprint from the commit it was born at to the commit
//! it was fixed, suppressed, or last seen at. The event stream and the
//! per-commit candidate funnels land in a [`LifeDb`]; the suppression
//! state (inline `// vcheck:allow(...)` annotations plus the persisted
//! [`SuppressStore`]) is re-evaluated at every commit, and the store's
//! coordinates are advanced through each revision's edit script so
//! entries survive refactors.
//!
//! Track continuity rides on [`DeltaRow::old_fingerprint`]: a line-map
//! match re-keys the *current* fingerprint while the track keeps the
//! fingerprint it was born with, so one finding is one track even when
//! its own definition line gets edited along the way. A finding whose
//! function (or file) a revision failed to scan is `unscanned` there, not
//! fixed: its track records no event and carries the last-seen finding
//! into the next revision's comparison.
//!
//! Everything here is deterministic: classified rows arrive in canonical
//! order, so the serialized [`LifeDb`] is byte-identical for any
//! `--jobs` value and across `--resume` after a mid-replay kill.

use std::collections::{
    BTreeMap,
    HashMap,
    HashSet, //
};

use vc_ir::program::BuildError;
use vc_obs::{
    names,
    ObsSession, //
};
use vc_vcs::{
    CommitId,
    Repository, //
};

use crate::{
    delta::{
        classify,
        scan_tree,
        side_sentinel,
        DeltaRow,
        DeltaStatus,
        Finding,
        Fingerprint, //
    },
    harden::FailureRecord,
    lifedb::{
        CommitAgg,
        FinalState,
        LifeDb,
        LifeEvent,
        LifeEventKind, //
    },
    pipeline::Options,
    prune::PruneReason,
    sentinel::SentinelConfig,
    suppress::{
        InlineSuppressions,
        SuppressStore, //
    },
};

/// The result of a whole-history replay.
#[derive(Clone, Debug)]
pub struct HistoryOutcome {
    /// The findings database: events plus per-commit funnels.
    pub db: LifeDb,
    /// The suppression store after the replay (advanced lines, healed
    /// fingerprints) — save it back to persist the maintenance.
    pub suppress: SuppressStore,
    /// The last replayed commit.
    pub head: Option<CommitId>,
    /// Number of commits replayed.
    pub commits: usize,
    /// The failure records of every revision that had any (parse failures
    /// first, as a `vcheck <dir>` scan of that tree reports them), in
    /// commit order.
    pub failures: Vec<(CommitId, Vec<FailureRecord>)>,
}

/// One track summarised for the CLI table: born-at, last-seen, final
/// state, and last-known coordinates.
#[derive(Clone, Debug)]
pub struct TrackRow {
    /// Track id (the born fingerprint).
    pub track: Fingerprint,
    /// Commit the track was born at.
    pub born: CommitId,
    /// Commit of the track's last event.
    pub last: CommitId,
    /// Final state.
    pub state: FinalState,
    /// Last-known file.
    pub file: String,
    /// Last-known line.
    pub line: u32,
    /// Containing function.
    pub function: String,
    /// Variable name.
    pub variable: String,
    /// Scenario label.
    pub scenario: String,
}

/// Summarises a [`LifeDb`] into one row per track, sorted by (file,
/// function, variable, track) — the `vcheck history` CSV body.
pub fn track_rows(db: &LifeDb) -> Vec<TrackRow> {
    let finals = db.final_states();
    let mut rows: HashMap<Fingerprint, TrackRow> = HashMap::new();
    for e in &db.events {
        let row = rows.entry(e.track).or_insert_with(|| TrackRow {
            track: e.track,
            born: e.commit,
            last: e.commit,
            state: FinalState::Live,
            file: e.file.clone(),
            line: e.line,
            function: e.function.clone(),
            variable: e.variable.clone(),
            scenario: e.scenario.clone(),
        });
        row.last = e.commit;
        row.file = e.file.clone();
        row.line = e.line;
    }
    let mut rows: Vec<TrackRow> = rows
        .into_iter()
        .map(|(track, mut row)| {
            row.state = finals.get(&track).copied().unwrap_or(FinalState::Live);
            row
        })
        .collect();
    rows.sort_by(|a, b| {
        (&a.file, &a.function, &a.variable, a.track).cmp(&(
            &b.file,
            &b.function,
            &b.variable,
            b.track,
        ))
    });
    rows
}

/// Renders the track summary as CSV (header + rows).
pub fn tracks_to_csv(db: &LifeDb) -> String {
    let mut out = String::from("track,state,born,last,file,line,function,variable,scenario\n");
    for r in track_rows(db) {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.track.to_hex(),
            r.state.label(),
            r.born.0,
            r.last.0,
            r.file,
            r.line,
            r.function,
            r.variable,
            r.scenario
        ));
    }
    out
}

/// Orders findings canonically within one commit: by file, function,
/// variable, line and fingerprint.
fn canon_order(a: &&Finding, b: &&Finding) -> std::cmp::Ordering {
    (&a.file, &a.function, &a.variable, a.line, a.fingerprint).cmp(&(
        &b.file,
        &b.function,
        &b.variable,
        b.line,
        b.fingerprint,
    ))
}

fn event_for(commit: CommitId, track: Fingerprint, f: &Finding, kind: LifeEventKind) -> LifeEvent {
    LifeEvent {
        commit,
        track,
        fingerprint: f.fingerprint,
        kind,
        file: f.file.clone(),
        line: f.line,
        function: f.function.clone(),
        variable: f.variable.clone(),
        scenario: f.scenario.clone(),
    }
}

/// Replays every commit of `repo` and assembles the lifecycle database.
///
/// The walk goes forward once: one running checkout grows by one commit
/// per step ([`Repository::replay`]), so each commit is replayed once, and
/// each revision's tree is one borrowed snapshot of the files the commits
/// so far last wrote. At the head commit `repo` itself is the history.
///
/// `suppress` is the loaded suppression store (possibly empty); the
/// returned outcome carries its advanced/healed successor. Counters
/// (`life.*`, `suppress.*`) are recorded into `obs`, and each commit is one
/// `history.revision` span.
pub fn history_scan(
    repo: &Repository,
    defines: &[String],
    opts: &Options,
    sconf: &SentinelConfig,
    mut suppress: SuppressStore,
    obs: ObsSession,
) -> Result<HistoryOutcome, BuildError> {
    let _guard = obs.install();
    let span = obs.span("history.scan", "history");
    let mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_HISTORY);

    let head = repo.head();
    let mut db = LifeDb::default();
    // Current fingerprint → track id (born fingerprint) of each live track.
    let mut live: HashMap<u64, Fingerprint> = HashMap::new();
    // The previous revision's findings and sources: all the next step
    // compares against, so its program and report are dropped early.
    let mut prev: Option<(Vec<Finding>, HashMap<String, String>)> = None;
    let mut failures: Vec<(CommitId, Vec<FailureRecord>)> = Vec::new();
    let mut running = Some(repo.authors_only());
    let mut tree: BTreeMap<&str, &str> = BTreeMap::new();

    for c in repo.commits() {
        let commit = c.id;
        let revision_span = obs.span("history.revision", "history");
        vc_obs::counter_inc(names::LIFE_COMMITS);

        let checkout_span = obs.span("history.checkout", "history");
        for w in &c.writes {
            tree.insert(&w.path, &w.content);
        }
        let sources: Vec<(&str, &str)> = tree.iter().map(|(&path, &text)| (path, text)).collect();
        let history = if head == Some(commit) {
            running = None;
            repo
        } else {
            let running = running.as_mut().expect("the head commit is the last one");
            running.replay(c);
            &*running
        };
        checkout_span.end();

        let mut scan = scan_tree(
            history,
            commit,
            &sources,
            defines,
            opts,
            &side_sentinel(sconf, &format!("c{}", commit.0)),
            obs.clone(),
        )?;

        // Lifecycle events: the first commit births everything; later
        // commits ride the delta classifier, using `old_fingerprint` to
        // stay on a track across line-map re-keys.
        let classify_span = obs.span("delta.classify", "delta");
        let mut next_live: HashMap<u64, Fingerprint> = HashMap::new();
        let mut unscanned: Vec<Finding> = Vec::new();
        match &prev {
            None => {
                let mut born: Vec<&Finding> = scan.findings.iter().collect();
                born.sort_by(canon_order);
                for f in born {
                    let track = f.fingerprint;
                    next_live.insert(f.fingerprint.0, track);
                    vc_obs::counter_inc(names::LIFE_BORN);
                    db.push_event(event_for(commit, track, f, LifeEventKind::Born));
                }
            }
            Some((prev_findings, prev_sources)) => {
                let mut report = classify(
                    prev_findings,
                    &scan.findings,
                    prev_sources,
                    &scan.sources,
                    &HashSet::new(),
                );
                report.mark_unscanned(&scan.analysis.report.failures);
                for row in &report.rows {
                    record_row(commit, row, &live, &mut next_live, &mut db);
                    if row.status == DeltaStatus::Unscanned {
                        unscanned.push(row.finding.clone());
                    }
                }
            }
        }
        live = next_live;
        classify_span.end();

        // Suppression: re-evaluated at every commit against the inline
        // annotations of *this* revision plus the persisted store, whose
        // coordinates first move with this revision step so the
        // nearby-line fallback keeps working under drift. The suppressed
        // event lands after the track's lifecycle event, so a track
        // suppressed at head finishes in the `suppressed` bucket.
        let suppress_span = obs.span("history.suppress", "history");
        if let Some((_, prev_sources)) = &prev {
            suppress.advance(prev_sources, &scan.sources);
        }
        let inline = InlineSuppressions::from_sources(&scan.sources);
        let mut present: Vec<&Finding> = scan.findings.iter().collect();
        present.sort_by(canon_order);
        for f in present {
            let by_inline = inline.allows(&f.file, f.line, &f.scenario);
            if by_inline {
                vc_obs::counter_inc(names::SUPPRESS_INLINE);
            }
            let by_store = !by_inline && suppress.match_and_heal(f).is_some();
            if by_inline || by_store {
                let track = live.get(&f.fingerprint.0).copied().unwrap_or(f.fingerprint);
                db.push_event(event_for(commit, track, f, LifeEventKind::Suppressed));
            }
        }
        suppress_span.end();

        // The commit's candidate funnel, prune patterns broken out.
        let analysis = &scan.analysis;
        db.aggs.push(CommitAgg {
            commit,
            raw: analysis.raw_candidates as u64,
            cross_scope: analysis.cross_scope_candidates as u64,
            pruned: PruneReason::ALL
                .iter()
                .map(|&r| {
                    (
                        r.label().to_string(),
                        analysis.prune_outcome.count(r) as u64,
                    )
                })
                .collect(),
            reported: analysis.ranked.len() as u64,
        });
        if !analysis.report.failures.is_empty() {
            failures.push((commit, analysis.report.failures.clone()));
        }

        // An unscanned finding stays on the comparison side, so the next
        // revision that scans its function decides its fate.
        scan.findings.extend(unscanned);
        prev = Some((scan.findings, scan.sources));
        revision_span.end();
    }

    let funnel = db.funnel();
    vc_obs::counter_add(names::LIFE_SUPPRESSED, funnel.suppressed);
    vc_obs::counter_add(names::LIFE_LIVE, funnel.live);

    mem.finish();
    span.end();
    Ok(HistoryOutcome {
        db,
        suppress,
        head,
        commits: repo.commits().len(),
        failures,
    })
}

/// Applies one classified row to the track state and the event stream.
fn record_row(
    commit: CommitId,
    row: &DeltaRow,
    live: &HashMap<u64, Fingerprint>,
    next_live: &mut HashMap<u64, Fingerprint>,
    db: &mut LifeDb,
) {
    // A matched row's track comes from the *old* side's live map; an
    // untracked old fingerprint (scan started mid-history) starts a track
    // under its own name.
    let old_track = row
        .old_fingerprint
        .map(|fp| live.get(&fp.0).copied().unwrap_or(fp));
    match row.status {
        DeltaStatus::New => {
            let track = row.finding.fingerprint;
            next_live.insert(row.finding.fingerprint.0, track);
            vc_obs::counter_inc(names::LIFE_BORN);
            db.push_event(event_for(commit, track, &row.finding, LifeEventKind::Born));
        }
        DeltaStatus::Persisting => {
            let track = old_track.expect("matched row carries old_fingerprint");
            next_live.insert(row.finding.fingerprint.0, track);
            vc_obs::counter_inc(names::LIFE_PERSISTING);
            db.push_event(event_for(
                commit,
                track,
                &row.finding,
                LifeEventKind::Persisting,
            ));
        }
        DeltaStatus::Churned => {
            let track = old_track.expect("matched row carries old_fingerprint");
            next_live.insert(row.finding.fingerprint.0, track);
            vc_obs::counter_inc(names::LIFE_CHURNED);
            db.push_event(event_for(
                commit,
                track,
                &row.finding,
                LifeEventKind::Churned,
            ));
        }
        DeltaStatus::Fixed => {
            let track = old_track.expect("fixed row carries old_fingerprint");
            vc_obs::counter_inc(names::LIFE_FIXED);
            db.push_event(event_for(commit, track, &row.finding, LifeEventKind::Fixed));
        }
        // The revision could not scan the finding's function: no event, and
        // the track stays live under the finding's last-seen fingerprint.
        DeltaStatus::Unscanned => {
            let track = old_track.expect("unscanned row carries old_fingerprint");
            next_live.insert(row.finding.fingerprint.0, track);
        }
        // The replay classifies with an empty baseline; `suppressed` rows
        // cannot occur (suppression is handled by the annotation/store
        // pass above).
        DeltaStatus::Suppressed => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_vcs::FileWrite;

    fn write(path: &str, content: &str) -> FileWrite {
        FileWrite {
            path: path.into(),
            content: content.into(),
        }
    }

    /// One library-retval bug (cross-scope even in single-author repos).
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

    fn run(repo: &Repository, obs: &ObsSession) -> HistoryOutcome {
        history_scan(
            repo,
            &[],
            &Options::paper(),
            &SentinelConfig::default(),
            SuppressStore::default(),
            obs.clone(),
        )
        .unwrap()
    }

    #[test]
    fn born_then_fixed_track_ends_fixed() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &bug_fn("alpha"))]);
        repo.commit(
            dev,
            2,
            "still there",
            vec![write("b.c", "int unrelated;\n")],
        );
        let c3 = repo.commit(dev, 3, "fix", vec![write("a.c", &clean_fn("alpha"))]);
        let obs = ObsSession::new();
        let out = run(&repo, &obs);
        assert_eq!(out.commits, 3);
        let funnel = out.db.funnel();
        assert_eq!(funnel.born, 1);
        assert_eq!(funnel.fixed, 1);
        assert_eq!(funnel.live, 0);
        assert!(funnel.balances());
        assert_eq!(obs.registry.counter(names::LIFE_COMMITS), 3);
        assert_eq!(obs.registry.counter(names::LIFE_BORN), 1);
        assert_eq!(obs.registry.counter(names::LIFE_PERSISTING), 1);
        assert_eq!(obs.registry.counter(names::LIFE_FIXED), 1);
        assert_eq!(obs.registry.counter(names::LIFE_LIVE), 0);
        let kinds: Vec<LifeEventKind> = out.db.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                LifeEventKind::Born,
                LifeEventKind::Persisting,
                LifeEventKind::Fixed
            ]
        );
        let rows = track_rows(&out.db);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, FinalState::Fixed);
        assert_eq!(rows[0].born, c1);
        assert_eq!(rows[0].last, c3);
    }

    #[test]
    fn each_revision_is_blamed_against_its_own_history() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(
            alice,
            1,
            "init",
            vec![write("a.c", "void fa(void) {\nint x = 1;\nuse(x);\n}\n")],
        );
        // bob overwrites alice's definition: cross-scope at this commit.
        let c2 = repo.commit(
            bob,
            2,
            "overwrite x",
            vec![write(
                "a.c",
                "void fa(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n",
            )],
        );
        // alice re-touches bob's line: no longer cross-scope from here on.
        let c3 = repo.commit(
            alice,
            3,
            "whitespace",
            vec![write(
                "a.c",
                "void fa(void) {\nint x = 1;\nx = 2; \nuse(x);\n}\n",
            )],
        );
        let out = run(&repo, &ObsSession::new());
        let seen: Vec<(CommitId, LifeEventKind)> =
            out.db.events.iter().map(|e| (e.commit, e.kind)).collect();
        assert_eq!(
            seen,
            vec![(c2, LifeEventKind::Born), (c3, LifeEventKind::Fixed)]
        );
    }

    #[test]
    fn inline_annotation_suppresses_at_head() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let body = bug_fn("alpha");
        repo.commit(dev, 1, "v1", vec![write("a.c", &body)]);
        // v2: annotate the definition line; the annotation is a comment,
        // so the fingerprint (and the finding) survive unchanged.
        let annotated = body.replace(
            "int ret = get_alpha();",
            "// vcheck:allow(retval)\nint ret = get_alpha();",
        );
        repo.commit(dev, 2, "triage", vec![write("a.c", &annotated)]);
        let obs = ObsSession::new();
        let out = run(&repo, &obs);
        let funnel = out.db.funnel();
        assert_eq!(funnel.born, 1, "{:#?}", out.db.events);
        assert_eq!(funnel.suppressed, 1);
        assert_eq!(funnel.live, 0);
        assert!(funnel.balances());
        assert_eq!(obs.registry.counter(names::SUPPRESS_INLINE), 1);
        assert_eq!(obs.registry.counter(names::LIFE_SUPPRESSED), 1);
    }

    #[test]
    fn store_suppression_survives_drift() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let body = bug_fn("alpha");
        let c1 = repo.commit(dev, 1, "v1", vec![write("a.c", &body)]);
        // v2: ten declarations above — pure drift.
        let mut padded = String::new();
        for i in 0..10 {
            padded.push_str(&format!("int pad_{i}(void);\n"));
        }
        padded.push_str(&body);
        repo.commit(dev, 2, "pad", vec![write("a.c", &padded)]);

        // Seed the store from the first revision's finding.
        let first = crate::delta::scan_revision(
            &repo,
            c1,
            &[],
            &Options::paper(),
            &SentinelConfig::default(),
            ObsSession::new(),
        )
        .unwrap();
        assert_eq!(first.findings.len(), 1);
        let f = &first.findings[0];
        let store = SuppressStore {
            entries: vec![crate::suppress::SuppressEntry {
                fingerprint: f.fingerprint.0,
                file: f.file.clone(),
                line: f.line,
                scenario: f.scenario.clone(),
                reason: "vetted".into(),
            }],
        };

        let obs = ObsSession::new();
        let out = history_scan(
            &repo,
            &[],
            &Options::paper(),
            &SentinelConfig::default(),
            store,
            obs.clone(),
        )
        .unwrap();
        let funnel = out.db.funnel();
        assert_eq!(funnel.suppressed, 1, "{:#?}", out.db.events);
        assert_eq!(funnel.live, 0);
        // Matched by fingerprint at both commits, and the entry's line
        // followed the drift.
        assert_eq!(obs.registry.counter(names::SUPPRESS_STORE), 2);
        assert_eq!(out.suppress.entries[0].line, f.line + 10);
    }

    #[test]
    fn db_bytes_are_identical_across_jobs() {
        let mut repo = Repository::new();
        let dev = repo.add_author("dev");
        let v1 = format!("{}{}", bug_fn("keep"), bug_fn("gone"));
        repo.commit(dev, 1, "v1", vec![write("a.c", &v1)]);
        let v2 = format!("{}{}{}", bug_fn("keep"), clean_fn("gone"), bug_fn("fresh"));
        repo.commit(dev, 2, "v2", vec![write("a.c", &v2)]);

        let mut texts = Vec::new();
        for jobs in [1, 4] {
            let sconf = SentinelConfig {
                jobs,
                ..SentinelConfig::default()
            };
            let out = history_scan(
                &repo,
                &[],
                &Options::paper(),
                &sconf,
                SuppressStore::default(),
                ObsSession::new(),
            )
            .unwrap();
            texts.push(out.db.to_text());
        }
        assert_eq!(texts[0], texts[1], "lifedb bytes must not depend on --jobs");
    }
}
