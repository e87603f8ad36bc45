//! Lifecycle-replay contract over generated multi-commit workloads.
//!
//! The generator scripts a fate for every planted bug
//! ([`vc_workload::life`]); these tests assert that `history_scan`
//! recovers exactly that script — every track's final state, the churn
//! events, a balanced funnel (born = fixed + suppressed + live) — that a
//! seeded suppression-store entry keeps covering its finding as the file
//! drifts, that a corrupted revision recovers as a `vcheck <dir>` scan of
//! its tree does, and that the findings database is byte-identical across
//! worker counts and across a journaled resume.

use std::path::PathBuf;

use valuecheck::{
    delta::scan_revision,
    history::{
        history_scan,
        track_rows,
        tracks_to_csv,
        HistoryOutcome, //
    },
    lifedb::{
        FinalState,
        LifeEventKind, //
    },
    pipeline::Options,
    sentinel::SentinelConfig,
    suppress::{
        SuppressEntry,
        SuppressStore, //
    },
};
use vc_obs::{
    names,
    ObsSession, //
};
use vc_workload::{
    corrupted_history,
    generate_life,
    truncated_history,
    LifeProfile, //
};

mod common;

fn temp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vc-life-{}-{}.journal", std::process::id(), name))
}

fn replay(
    w: &vc_workload::LifeWorkload,
    sconf: &SentinelConfig,
    store: SuppressStore,
) -> (HistoryOutcome, ObsSession) {
    let obs = ObsSession::new();
    let out = history_scan(&w.repo, &[], &Options::paper(), sconf, store, obs.clone())
        .expect("generated workload must build at every commit");
    (out, obs)
}

/// Sorted function names of the tracks that finished in `state`.
fn functions_in(out: &HistoryOutcome, state: FinalState) -> Vec<String> {
    let mut v: Vec<String> = track_rows(&out.db)
        .iter()
        .filter(|r| r.state == state)
        .map(|r| r.function.clone())
        .collect();
    v.sort();
    v
}

#[test]
fn classifies_every_planted_lifecycle() {
    let w = generate_life(&LifeProfile {
        seed: 7,
        commits: 6,
        live: 3,
        fixed: 2,
        suppressed: 2,
        churned: 2,
        files: 3,
        drift_lines: 5,
    });
    let (out, obs) = replay(&w, &SentinelConfig::default(), SuppressStore::default());

    assert_eq!(out.commits, 6);
    assert_eq!(
        functions_in(&out, FinalState::Live),
        w.expected_live,
        "live tracks must match the plant"
    );
    assert_eq!(functions_in(&out, FinalState::Fixed), w.expected_fixed);
    assert_eq!(
        functions_in(&out, FinalState::Suppressed),
        w.expected_suppressed
    );

    // Every relocated bug kept its track and logged exactly one churn
    // event at the action commit; nothing else churned.
    let mut churned: Vec<String> = out
        .db
        .events
        .iter()
        .filter(|e| e.kind == LifeEventKind::Churned)
        .map(|e| e.function.clone())
        .collect();
    churned.sort();
    assert_eq!(churned, w.expected_churned);
    assert!(out
        .db
        .events
        .iter()
        .filter(|e| e.kind == LifeEventKind::Churned)
        .all(|e| e.commit == w.commits[w.action]));

    // The funnel balances and the counters agree with it.
    let funnel = out.db.funnel();
    assert!(funnel.balances(), "born = fixed + suppressed + live");
    let total =
        (w.expected_live.len() + w.expected_fixed.len() + w.expected_suppressed.len()) as u64;
    assert_eq!(
        funnel.born, total,
        "everything is planted at the first commit"
    );
    assert_eq!(obs.registry.counter(names::LIFE_COMMITS), 6);
    assert_eq!(obs.registry.counter(names::LIFE_BORN), total);
    assert_eq!(
        obs.registry.counter(names::LIFE_CHURNED),
        w.expected_churned.len() as u64
    );
    assert_eq!(
        obs.registry.counter(names::LIFE_SUPPRESSED),
        w.expected_suppressed.len() as u64
    );
    assert_eq!(
        obs.registry.counter(names::LIFE_LIVE),
        w.expected_live.len() as u64
    );
    assert!(
        obs.registry.counter(names::SUPPRESS_INLINE) > 0,
        "the planted annotations must be what suppresses"
    );

    // The per-scenario aggregates see the same world: all bugs are
    // retval-pattern, so the scenario table carries the whole funnel.
    let stats = out.db.scenario_stats();
    let retval = stats.get("retval").expect("retval row present");
    assert_eq!(retval.born, total);
}

#[test]
fn store_entry_keeps_covering_through_drift() {
    // Suppress one *live* bug via the store (no annotation in the tree)
    // and let five commits of pad drift move its line: the entry must
    // keep matching and its coordinates must follow the finding down.
    let w = generate_life(&LifeProfile {
        seed: 13,
        suppressed: 0,
        ..LifeProfile::default()
    });
    let first = scan_revision(
        &w.repo,
        w.commits[0],
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        ObsSession::new(),
    )
    .expect("first revision must scan");
    let target = first
        .findings
        .iter()
        .find(|f| f.function.starts_with("stay_"))
        .expect("a live bug to triage");
    let store = SuppressStore {
        entries: vec![SuppressEntry {
            fingerprint: target.fingerprint.0,
            file: target.file.clone(),
            line: target.line,
            scenario: target.scenario.clone(),
            reason: "triaged".into(),
        }],
    };

    let (out, obs) = replay(&w, &SentinelConfig::default(), store);
    let suppressed = functions_in(&out, FinalState::Suppressed);
    assert_eq!(suppressed, vec![target.function.clone()]);
    assert_eq!(
        functions_in(&out, FinalState::Live).len(),
        w.expected_live.len() - 1,
        "only the triaged track leaves the live bucket"
    );
    assert!(out.db.funnel().balances());
    assert!(obs.registry.counter(names::SUPPRESS_STORE) > 0);
    // The advanced store is what the CLI saves back: the entry's line has
    // followed the accumulated pad drift past its original position.
    assert!(
        out.suppress.entries[0].line > target.line,
        "entry line {} must drift below the original {}",
        out.suppress.entries[0].line,
        target.line
    );
}

#[test]
fn lifedb_bytes_are_identical_across_jobs() {
    let w = generate_life(&LifeProfile {
        seed: 19,
        ..LifeProfile::default()
    });
    let mut texts: Vec<String> = Vec::new();
    let mut csvs: Vec<String> = Vec::new();
    for jobs in [1usize, 4] {
        let sconf = SentinelConfig {
            jobs,
            ..SentinelConfig::default()
        };
        let (out, _) = replay(&w, &sconf, SuppressStore::default());
        texts.push(out.db.to_text());
        csvs.push(tracks_to_csv(&out.db));
    }
    assert_eq!(
        texts[0], texts[1],
        "findings database identical for --jobs 1 vs --jobs 4"
    );
    assert_eq!(csvs[0], csvs[1], "track table identical across jobs");
}

#[test]
fn journaled_resume_reproduces_the_db() {
    let w = generate_life(&LifeProfile {
        seed: 23,
        ..LifeProfile::default()
    });
    let journal = temp_journal("resume");
    let cleanup = |journal: &PathBuf| {
        for c in 0..w.commits.len() {
            let mut p = journal.clone().into_os_string();
            p.push(format!(".c{c}"));
            let _ = std::fs::remove_file(PathBuf::from(p));
        }
    };
    cleanup(&journal);

    let mut sconf = SentinelConfig {
        jobs: 2,
        journal: Some(journal.clone()),
        ..SentinelConfig::default()
    };
    let (fresh, _) = replay(&w, &sconf, SuppressStore::default());

    sconf.resume = true;
    let (resumed, obs) = replay(&w, &sconf, SuppressStore::default());
    assert_eq!(
        resumed.db.to_text(),
        fresh.db.to_text(),
        "a journal replay must reproduce the findings database byte for byte"
    );
    let snap = obs.registry.snapshot();
    assert!(
        snap.counter("sentinel.units_replayed") > 0,
        "resume must replay journaled units rather than rescanning"
    );
    assert_eq!(snap.counter("sentinel.units_scanned"), 0);
    cleanup(&journal);
}

#[test]
fn corrupted_revision_recovers_as_a_scan_does() {
    let (repo, clean, broken) = corrupted_history();
    let obs = ObsSession::new();
    let out = history_scan(
        &repo,
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        SuppressStore::default(),
        obs.clone(),
    )
    .expect("a revision with salvageable functions must replay");
    assert_eq!(out.commits, 2);

    // The clean revision adds zeros, so the replay's front-end counters
    // are the corrupted revision's.
    let (failures, counters) = common::head_scan(&repo);
    assert_eq!(failures.len(), 2, "{failures:#?}");
    assert_eq!(common::front_end_counters(&obs), counters);

    // Both planted findings persist through the corrupted revision on the
    // tracks, and under the fingerprints, they were born with.
    let tracks: Vec<_> = track_rows(&out.db)
        .into_iter()
        .map(|r| (r.finding.function, r.state, r.born, r.last))
        .collect();
    let live = |f: &str| (f.to_string(), FinalState::Live, clean, broken);
    assert_eq!(tracks, [live("alpha"), live("beta")]);
    for e in out.db.events.iter().filter(|e| e.commit == broken) {
        assert_eq!(
            (e.kind, e.fingerprint),
            (LifeEventKind::Persisting, e.track)
        );
    }
}

#[test]
fn a_function_dropped_by_corruption_keeps_its_track() {
    let (mut repo, clean, broken) = truncated_history();
    // A third commit restores the clean file.
    let restore = vc_vcs::FileWrite {
        path: "a.c".into(),
        content: repo.snapshot_at(clean)["a.c"].clone(),
    };
    let dev = repo.add_author("dev");
    let restored = repo.commit(dev, 3, "restore a.c", vec![restore]);
    let obs = ObsSession::new();
    let out = history_scan(
        &repo,
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        SuppressStore::default(),
        obs.clone(),
    )
    .expect("a revision with salvageable functions must replay");

    // The truncated revision's failures are reported as its scan's.
    let (failures, _) = common::head_scan(&repo.checkout(broken));
    assert_eq!(failures.len(), 1, "{failures:#?}");
    assert_eq!(out.failures, [(broken, failures)]);

    // `alpha` is neither fixed nor reborn: its track records nothing at
    // the truncated revision and lives on once the file is restored.
    assert_eq!(obs.registry.counter(names::LIFE_FIXED), 0);
    assert_eq!(obs.registry.counter(names::LIFE_BORN), 2);
    let tracks: Vec<_> = track_rows(&out.db)
        .into_iter()
        .map(|r| (r.finding.function, r.state, r.born, r.last))
        .collect();
    let live = |f: &str| (f.to_string(), FinalState::Live, clean, restored);
    assert_eq!(tracks, [live("alpha"), live("beta")]);
}
