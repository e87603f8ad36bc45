//! Incremental per-commit analysis (§8.6).
//!
//! The paper integrates ValueCheck into development by analysing "only the
//! changed functions and the affected files in a commit", bringing per-commit
//! cost under five seconds. This module does the same: given a commit, it
//! rebuilds the program from the snapshot at that commit — with recovery,
//! as every revision build does — but runs detection only for functions
//! defined in the files the commit touched.

use std::collections::BTreeSet;

use vc_ir::{
    program::BuildError,
    Program, //
};
use vc_obs::ObsSession;
use vc_vcs::{
    CommitId,
    Repository, //
};

use crate::{
    harden::FailureRecord,
    pipeline::{
        build_tree,
        history_at,
        run_detected,
        Front,
        Options, //
    },
    prune::PruneConfig,
    rank::{
        RankConfig,
        Ranked, //
    },
    sentinel::{
        execute,
        Known,
        SentinelConfig, //
    },
};

/// The findings for one commit.
#[derive(Clone, Debug)]
pub struct CommitFindings {
    /// The analysed commit.
    pub commit: CommitId,
    /// Files the commit touched.
    pub changed_files: Vec<String>,
    /// Functions analysed (those defined in changed files).
    pub analysed_functions: usize,
    /// Ranked findings within the changed functions.
    pub findings: Vec<Ranked>,
    /// Units of work that failed and were isolated (a function the
    /// snapshot's build could not parse or lower, a poisoned changed
    /// function, a poisoned authorship lookup, a degraded prune or rank
    /// stage), as in a batch scan's report. Parse failures cover the whole
    /// snapshot, not only the changed files.
    pub failures: Vec<FailureRecord>,
}

/// Analyses the snapshot at `commit`, detecting only in its changed files.
///
/// Program-wide context (signatures, call sites, peer statistics) still
/// comes from the full snapshot — detection is local, the supporting indexes
/// are not, matching the paper's design where analysis runs per bitcode file
/// against whole-project metadata.
///
/// The snapshot is built with recovery, as `vcheck <dir>` builds a tree:
/// its parse failures lead [`CommitFindings::failures`] and its `recover.*`
/// counters land in the installed observability session. Both describe the
/// whole snapshot, exactly as a `vcheck <dir>` scan of that tree reports
/// them — a broken function in a file the commit did not touch shows up
/// (and is counted) again at every commit analysed. `Err` only when
/// nothing in the snapshot could be salvaged.
pub fn analyze_commit(
    repo: &Repository,
    commit: CommitId,
    defines: &[String],
    prune_config: &PruneConfig,
    rank_config: &RankConfig,
) -> Result<CommitFindings, BuildError> {
    let (prog, errors, stats) =
        build_tree(&repo.tree_at(commit), defines).map_err(|mut errors| errors.swap_remove(0))?;
    let front = (errors.as_slice(), &stats);
    let findings = analyze(&prog, repo, commit, prune_config, rank_config, Some(front));
    Ok(findings)
}

/// The incremental fast path: analyses `commit` against a program already
/// built for that snapshot (the equivalent of the paper's pre-compiled
/// bitcode). The sentinel executor runs at one job over the changed files'
/// functions only, each producing its summary once; pointer facts are resolved
/// on demand per indirect-call candidate. The rest is a batch scan's back
/// half, with authorship and ranking against the history as of `commit`;
/// peer statistics are scoped (via redundant-summary elimination) to the
/// callees and signatures the surviving candidates actually reference.
///
/// When `commit` is not `repo`'s head, that history is a replay of every
/// commit up to `commit`. A caller analysing many historical commits
/// should pass each one's checkout (`repo.checkout(commit)`), whose head
/// it is, and pay the replay once per commit outside its hot loop.
pub fn analyze_commit_in(
    prog: &Program,
    repo: &Repository,
    commit: CommitId,
    prune_config: &PruneConfig,
    rank_config: &RankConfig,
) -> CommitFindings {
    analyze(prog, repo, commit, prune_config, rank_config, None)
}

/// [`analyze_commit_in`], splicing the snapshot build's `front` (when
/// [`analyze_commit`] built it) ahead of the analysis failures.
fn analyze(
    prog: &Program,
    repo: &Repository,
    commit: CommitId,
    prune_config: &PruneConfig,
    rank_config: &RankConfig,
    front: Option<Front<'_>>,
) -> CommitFindings {
    let changed: BTreeSet<String> = repo
        .commit_info(commit)
        .writes
        .iter()
        .map(|w| w.path.clone())
        .collect();
    let opts = Options {
        prune: *prune_config,
        rank: *rank_config,
        ..Options::paper()
    };

    // Functions in files the commit did not touch are left out.
    let known: Vec<Known> = prog
        .funcs
        .iter()
        .map(|f| {
            if changed.contains(prog.source.name(f.file)) {
                Known::Run
            } else {
                Known::LeftOut
            }
        })
        .collect();
    let analysed = known.iter().filter(|k| matches!(k, Known::Run)).count();
    let history = history_at(repo, commit);
    let obs = ObsSession::current_or_new();
    let analysis = run_detected(prog, &history, &opts, obs, front, || {
        let sconf = SentinelConfig::sequential();
        execute(prog, opts.detect, opts.harden, &sconf, |_, _| known)
    });

    vc_obs::counter_inc(vc_obs::names::INCREMENTAL_COMMITS);
    vc_obs::counter_add(
        vc_obs::names::INCREMENTAL_FUNCTIONS_ANALYSED,
        analysed as u64,
    );
    CommitFindings {
        commit,
        changed_files: changed.into_iter().collect(),
        analysed_functions: analysed,
        findings: analysis.ranked,
        failures: analysis.report.failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use vc_vcs::FileWrite;

    fn write(path: &str, content: &str) -> FileWrite {
        FileWrite {
            path: path.into(),
            content: content.into(),
        }
    }

    #[test]
    fn analyzes_only_changed_files() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(
            alice,
            1,
            "init",
            vec![
                write("a.c", "void fa(void) {\nint x = 1;\nuse(x);\n}\n"),
                write("b.c", "void fb(void) {\nint y = 1;\nuse(y);\n}\n"),
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
        let findings = analyze_commit(
            &repo,
            c,
            &[],
            &PruneConfig::default(),
            &RankConfig::default(),
        )
        .unwrap();
        assert_eq!(findings.changed_files, vec!["a.c".to_string()]);
        assert_eq!(findings.analysed_functions, 1);
        assert_eq!(findings.findings.len(), 1);
        assert_eq!(&*findings.findings[0].item.candidate.var_name, "x");

        // The next run sees these findings through a store, which doubles
        // as a baseline suppression set.
        let (prog, _, _) = build_tree(&repo.tree_at(c), &[]).unwrap();
        let report = Report::from_ranked(&prog, &repo, &findings.findings);
        let fingerprinted: Vec<_> = report.rows.iter().map(|r| r.finding.clone()).collect();
        let path = temp_path("stored-run");
        let store = crate::store::SnapshotStore::from_findings(c, &fingerprinted);
        store.save(&path).unwrap();
        let previous = crate::store::SnapshotStore::load(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(previous, store);
        let stored = &previous.findings[0];
        assert_eq!(
            (stored.variable.as_str(), stored.file.as_str()),
            ("x", "a.c")
        );
        assert_eq!(stored.scenario, "overwritten");
        assert_ne!(
            stored.fingerprint.0, 0,
            "stored findings carry a real fingerprint"
        );
        assert_eq!(previous.fingerprint_set().len(), 1);
    }

    #[test]
    fn historical_commit_is_blamed_against_its_own_history() {
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
        repo.commit(
            alice,
            3,
            "whitespace",
            vec![write(
                "a.c",
                "void fa(void) {\nint x = 1;\nx = 2; \nuse(x);\n}\n",
            )],
        );
        let analyse = |repo: &Repository| {
            analyze_commit(
                repo,
                c,
                &[],
                &PruneConfig::default(),
                &RankConfig::default(),
            )
            .unwrap()
        };
        let historical = analyse(&repo);
        let checked_out = analyse(&repo.checkout(c));
        assert_eq!(historical.findings.len(), 1);
        assert_eq!(
            format!("{:?}", historical.findings),
            format!("{:?}", checked_out.findings)
        );
    }

    #[test]
    fn clean_commit_has_no_findings() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c = repo.commit(
            a,
            1,
            "init",
            vec![write("a.c", "int f(int v) { return v + 1; }\n")],
        );
        let findings = analyze_commit(
            &repo,
            c,
            &[],
            &PruneConfig::default(),
            &RankConfig::default(),
        )
        .unwrap();
        assert!(findings.findings.is_empty());
    }

    #[test]
    fn corrupted_commit_costs_only_its_broken_function() {
        let (repo, clean, broken) = vc_workload::corrupted_history();
        let analyse = |commit: CommitId| {
            let obs = ObsSession::new();
            let _g = obs.install();
            let (prune, rank) = (PruneConfig::default(), RankConfig::default());
            let findings = analyze_commit(&repo, commit, &[], &prune, &rank)
                .expect("a snapshot with salvageable functions must analyse");
            (findings, obs.registry.snapshot())
        };
        let (before, _) = analyse(clean);
        let (after, counters) = analyse(broken);
        assert_eq!(counters.counter(vc_obs::names::INCREMENTAL_COMMITS), 1);

        // The oracle: `vcheck <dir>`'s front-end accounting of the same tree.
        let tree = repo.snapshot_at(broken);
        let sources: Vec<(&str, &str)> =
            tree.iter().map(|(p, c)| (p.as_str(), c.as_str())).collect();
        let (_, errors, stats) = Program::build_recovering(&sources, &[]);
        let oracle = ObsSession::new();
        let mut report = Report::default();
        report.splice_parse_failures(&oracle.registry, &errors, &stats);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(after.failures, report.failures);
        for (name, value) in oracle.registry.snapshot().counters {
            assert_eq!(counters.counter(&name), value, "{name}");
        }

        // Both planted findings keep their clean-revision fingerprints.
        let fingerprints = |commit: CommitId, findings: &[Ranked]| {
            let (prog, _, _) = build_tree(&repo.tree_at(commit), &[]).unwrap();
            let report = Report::from_ranked(&prog, &repo, findings);
            report
                .rows
                .iter()
                .map(|r| r.fingerprint)
                .collect::<Vec<_>>()
        };
        let kept = fingerprints(broken, &after.findings);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept, fingerprints(clean, &before.findings));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vc-snap-{}-{}", std::process::id(), name))
    }

    #[test]
    fn historical_snapshots_are_analyzable() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(
            a,
            1,
            "v1 with helper",
            vec![write("a.c", "int helper(void) { return 1; }\n")],
        );
        let _c2 = repo.commit(
            a,
            2,
            "v2 removes helper",
            vec![write("a.c", "int other(void) { return 2; }\n")],
        );
        // Analysing c1 sees the old tree.
        let f = analyze_commit(
            &repo,
            c1,
            &[],
            &PruneConfig::default(),
            &RankConfig::default(),
        )
        .unwrap();
        assert_eq!(f.analysed_functions, 1);
    }
}
