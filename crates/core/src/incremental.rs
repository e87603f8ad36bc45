//! Incremental per-commit analysis (§8.6).
//!
//! The paper integrates ValueCheck into development by analysing "only the
//! changed functions and the affected files in a commit", bringing per-commit
//! cost under five seconds. This module does the same: given a commit, it
//! rebuilds the program from the snapshot at that commit — with recovery,
//! as every revision build does — but runs detection only for functions
//! defined in the files the commit touched.
//!
//! [`SnapshotStore`] persists the previous run's findings to disk so a
//! follow-up run can diff against them. The store is written by a tool that
//! may be killed mid-write and read by a newer binary with a different
//! format, so the file carries a trailing content checksum,
//! [`SnapshotStore::save`] is atomic (temp file + fsync + rename — a
//! concurrent reader sees the old store or the new one, never a torn mix),
//! and [`SnapshotStore::load`] never fails: a checksum mismatch degrades to
//! a cold (empty) store under `harden.snapshot_corrupt`, while a truncated,
//! malformed, or version-mismatched file degrades the same way under
//! `harden.snapshot_recovered`.

use std::{
    collections::{
        BTreeSet,
        HashSet, //
    },
    path::Path,
};

use vc_dataflow::summary::SigInterner;
use vc_ir::{
    program::BuildError,
    FuncId,
    Program, //
};
use vc_obs::ObsSession;
use vc_vcs::{
    CommitId,
    Repository, //
};

use crate::{
    detect::{
        demand_oracle,
        finalize_pointer_stage,
        run_unit,
        DetectOutcome, //
    },
    harden::FailureRecord,
    pipeline::{
        build_tree,
        history_at,
        run_detected,
        Options, //
    },
    prune::PruneConfig,
    rank::{
        RankConfig,
        Ranked, //
    },
    report::Report,
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

/// On-disk format version of [`SnapshotStore`]. Bumped whenever the line
/// format changes; older files are treated as cold caches, never parsed
/// across versions. v2 added the trailing `checksum` line; v3 added the
/// file, scenario, and drift-stable fingerprint fields (so a store doubles
/// as a `vcheck delta --baseline` suppression set).
pub const SNAPSHOT_FILE_VERSION: u32 = 3;

/// One persisted finding: the identity triple plus the coordinates the
/// differential scanner needs — file, scenario, and the drift-stable
/// [`Fingerprint`](crate::delta::Fingerprint) — enough to diff runs without
/// re-ranking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredFinding {
    /// Containing function.
    pub function: String,
    /// Variable name.
    pub variable: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// File of the definition.
    pub file: String,
    /// Scenario label (`retval`, `param`, or `overwritten`).
    pub scenario: String,
    /// Drift-stable fingerprint (hex16 on disk).
    pub fingerprint: u64,
}

/// Findings persisted between runs (the per-commit mode's memory).
///
/// The format is a line-oriented text file whose last line is an FNV-1a
/// checksum of everything above it:
///
/// ```text
/// valuecheck-snapshot v3
/// commit 42
/// finding <function>\t<variable>\t<line>\t<file>\t<scenario>\t<fp-hex16>
/// checksum <hex16>
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStore {
    /// The commit the stored findings belong to, when known.
    pub commit: Option<CommitId>,
    /// The findings of the stored run.
    pub findings: Vec<StoredFinding>,
}

impl SnapshotStore {
    /// Loads a store from disk. **Never fails**: a missing file is a normal
    /// cold start; any other defect degrades to a cold (empty) store, so
    /// the caller transparently rebuilds from scratch. Defects are counted
    /// by kind — a failed content checksum (bit rot, torn concurrent
    /// write) bumps `harden.snapshot_corrupt`, while a truncated,
    /// malformed, or version-mismatched file bumps
    /// `harden.snapshot_recovered`.
    pub fn load(path: &Path) -> SnapshotStore {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(_) => return SnapshotStore::default(), // cold start
        };
        let Some((body, sum)) = Self::split_checksum(&text) else {
            // No checksum line: a pre-v2 file or one truncated mid-write.
            vc_obs::counter_inc(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED);
            return SnapshotStore::default();
        };
        if content_hash(body) != sum {
            vc_obs::counter_inc(vc_obs::names::HARDEN_SNAPSHOT_CORRUPT);
            return SnapshotStore::default();
        }
        match Self::parse(body) {
            Some(store) => store,
            None => {
                vc_obs::counter_inc(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED);
                SnapshotStore::default()
            }
        }
    }

    /// Splits the file into (body, trailing checksum). `None` when the last
    /// line is not a well-formed `checksum <hex16>` record.
    fn split_checksum(text: &str) -> Option<(&str, u64)> {
        let trimmed = text.strip_suffix('\n')?;
        let body_end = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let sum = u64::from_str_radix(trimmed[body_end..].strip_prefix("checksum ")?, 16).ok()?;
        Some((&text[..body_end], sum))
    }

    fn parse(text: &str) -> Option<SnapshotStore> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let version = header.strip_prefix("valuecheck-snapshot v")?;
        if version.parse::<u32>().ok()? != SNAPSHOT_FILE_VERSION {
            return None;
        }
        let mut store = SnapshotStore::default();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(c) = line.strip_prefix("commit ") {
                store.commit = Some(CommitId(c.parse().ok()?));
            } else if let Some(f) = line.strip_prefix("finding ") {
                let mut parts = f.split('\t');
                let finding = StoredFinding {
                    function: parts.next()?.to_string(),
                    variable: parts.next()?.to_string(),
                    line: parts.next()?.parse().ok()?,
                    file: parts.next()?.to_string(),
                    scenario: parts.next()?.to_string(),
                    fingerprint: u64::from_str_radix(parts.next()?, 16).ok()?,
                };
                if parts.next().is_some() {
                    return None; // trailing garbage on the line
                }
                store.findings.push(finding);
            } else {
                return None; // unknown record kind
            }
        }
        Some(store)
    }

    /// Serialises and writes the store **atomically**: the content (plus
    /// its trailing checksum line) goes to a temp file in the same
    /// directory, is fsynced, and is renamed over `path`. A reader — or a
    /// crash — at any point sees either the complete old store or the
    /// complete new one, never a torn mix.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = format!("valuecheck-snapshot v{SNAPSHOT_FILE_VERSION}\n");
        if let Some(c) = self.commit {
            out.push_str(&format!("commit {}\n", c.0));
        }
        for f in &self.findings {
            out.push_str(&format!(
                "finding {}\t{}\t{}\t{}\t{}\t{:016x}\n",
                f.function, f.variable, f.line, f.file, f.scenario, f.fingerprint
            ));
        }
        out.push_str(&format!("checksum {:016x}\n", content_hash(&out)));

        let file_name = path
            .file_name()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?;
        let tmp = path.with_file_name(format!(
            ".{}.tmp.{}",
            file_name.to_string_lossy(),
            std::process::id()
        ));
        let write_and_rename = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(out.as_bytes())?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, path)
        };
        if let Err(e) = write_and_rename() {
            // Any failure — create, write, fsync, or rename — must not leave
            // `.tmp` debris behind: a long-lived daemon saves on every
            // shutdown and would otherwise accumulate orphans.
            let _ = std::fs::remove_file(&tmp);
            vc_obs::counter_inc(vc_obs::names::HARDEN_SNAPSHOT_SAVE_FAILED);
            return Err(e);
        }
        // Make the rename itself durable (best-effort: directory fsync is
        // not available on every platform).
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            }) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// The stored fingerprints as a suppression set (`vcheck delta
    /// --baseline`).
    pub fn fingerprint_set(&self) -> HashSet<u64> {
        self.findings.iter().map(|f| f.fingerprint).collect()
    }

    /// Builds a store directly from fingerprinted findings (`vcheck delta
    /// --write-baseline` records the new-revision scan this way).
    pub fn from_findings(commit: CommitId, findings: &[crate::delta::Finding]) -> SnapshotStore {
        SnapshotStore {
            commit: Some(commit),
            findings: findings
                .iter()
                .map(|f| StoredFinding {
                    function: f.function.clone(),
                    variable: f.variable.clone(),
                    line: f.line,
                    file: f.file.clone(),
                    scenario: f.scenario.clone(),
                    fingerprint: f.fingerprint.0,
                })
                .collect(),
        }
    }
}

/// FNV-1a over a text blob — the content checksum shared by the on-disk
/// stores (snapshot, suppression, lifecycle DB).
pub(crate) fn content_hash(text: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
    let mut findings = analyze_commit_in(&prog, repo, commit, prune_config, rank_config);
    let mut front = Report::default();
    front.splice_parse_failures(&ObsSession::current_or_new().registry, &errors, &stats);
    findings.failures.splice(0..0, front.failures);
    Ok(findings)
}

/// The incremental fast path: analyses `commit` against a program already
/// built for that snapshot (the equivalent of the paper's pre-compiled
/// bitcode). Detection runs `run_unit` only for the changed files'
/// functions, each producing its summary once; pointer facts are resolved
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
    let changed: BTreeSet<String> = repo
        .commit_info(commit)
        .writes
        .iter()
        .map(|w| w.path.clone())
        .collect();
    let changed_ids: BTreeSet<vc_ir::FileId> = prog
        .source
        .iter()
        .filter(|f| changed.contains(&f.name))
        .map(|f| f.id)
        .collect();
    let opts = Options {
        prune: *prune_config,
        rank: *rank_config,
        ..Options::paper()
    };

    let mut analysed = 0usize;
    let history = history_at(repo, commit);
    let analysis = run_detected(prog, &history, &opts, ObsSession::current_or_new(), || {
        let oracle = demand_oracle(prog, opts.detect, opts.harden);
        let interner = SigInterner::new(prog);
        let mut out = DetectOutcome::default();
        for (fi, f) in prog.funcs.iter().enumerate() {
            if !changed_ids.contains(&f.file) {
                continue;
            }
            analysed += 1;
            let fid = FuncId(fi as u32);
            let result = run_unit(
                prog,
                fid,
                oracle.as_ref(),
                &interner,
                opts.harden,
                vc_obs::MAIN_TID,
            );
            out.fold(prog, fid, result.into());
        }
        vc_obs::counter_add(vc_obs::names::DETECT_FUNCTIONS, analysed as u64);
        finalize_pointer_stage(oracle.as_ref(), &mut out);
        out
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
        assert_eq!(findings.findings[0].item.candidate.var_name, "x");

        // The next run sees these findings through a store, which doubles
        // as a baseline suppression set.
        let (prog, _, _) = build_tree(&repo.tree_at(c), &[]).unwrap();
        let fingerprinted = crate::delta::fingerprint_ranked(&prog, &findings.findings);
        let path = temp_path("stored-run");
        let store = SnapshotStore::from_findings(c, &fingerprinted);
        store.save(&path).unwrap();
        let previous = SnapshotStore::load(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(previous, store);
        let stored = &previous.findings[0];
        assert_eq!(
            (stored.variable.as_str(), stored.file.as_str()),
            ("x", "a.c")
        );
        assert_eq!(stored.scenario, "overwritten");
        assert_ne!(
            stored.fingerprint, 0,
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
            let found = crate::delta::fingerprint_ranked(&prog, findings);
            found.into_iter().map(|f| f.fingerprint).collect::<Vec<_>>()
        };
        let kept = fingerprints(broken, &after.findings);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept, fingerprints(clean, &before.findings));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vc-snap-{}-{}", std::process::id(), name))
    }

    #[test]
    fn snapshot_store_roundtrips() {
        let path = temp_path("roundtrip");
        let mut store = SnapshotStore::default();
        store.commit = Some(CommitId(7));
        store.findings.push(StoredFinding {
            function: "f".into(),
            variable: "x".into(),
            line: 3,
            file: "a.c".into(),
            scenario: "retval".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
        });
        store.save(&path).unwrap();
        let loaded = SnapshotStore::load(&path);
        assert_eq!(loaded, store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_snapshot_file_recovers_cold_and_counts() {
        // A file killed mid-write before the checksum line: structurally
        // incomplete, counted as recovered (not corrupt).
        let path = temp_path("truncated");
        std::fs::write(&path, "valuecheck-snapshot v3\ncommit 3\nfinding f\tx\n").unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            1
        );
        assert_eq!(
            obs.registry.counter(vc_obs::names::HARDEN_SNAPSHOT_CORRUPT),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_counts_as_corrupt_not_recovered() {
        let path = temp_path("bitrot");
        let mut store = SnapshotStore::default();
        store.commit = Some(CommitId(3));
        store.findings.push(StoredFinding {
            function: "f".into(),
            variable: "x".into(),
            line: 9,
            file: "a.c".into(),
            scenario: "param".into(),
            fingerprint: 7,
        });
        store.save(&path).unwrap();
        // Flip one content byte; the trailing checksum no longer matches.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\tx\t", "\ty\t")).unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry.counter(vc_obs::names::HARDEN_SNAPSHOT_CORRUPT),
            1
        );
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("vc-snap-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap");
        let mut store = SnapshotStore::default();
        store.commit = Some(CommitId(1));
        store.save(&path).unwrap();
        store.commit = Some(CommitId(2));
        store.save(&path).unwrap();
        assert_eq!(SnapshotStore::load(&path).commit, Some(CommitId(2)));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "store.snap")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_removes_its_temp_file_and_counts() {
        let dir = std::env::temp_dir().join(format!("vc-snap-failsave-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Make the destination a non-empty directory: the temp file is
        // created and written, but the atomic rename over it must fail.
        let path = dir.join("store.snap");
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        let obs = vc_obs::ObsSession::new();
        let result = {
            let _g = obs.install();
            let mut store = SnapshotStore::default();
            store.commit = Some(CommitId(1));
            store.save(&path)
        };
        assert!(result.is_err(), "rename over a non-empty dir must fail");
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_SAVE_FAILED),
            1
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "store.snap")
            .collect();
        assert!(leftovers.is_empty(), "temp debris left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatched_snapshot_recovers_cold() {
        let path = temp_path("version");
        std::fs::write(&path, "valuecheck-snapshot v999\ncommit 3\n").unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            1
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_file_is_a_silent_cold_start() {
        let path = temp_path("never-written");
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            0
        );
    }

    #[test]
    fn legacy_v2_snapshot_recovers_cold() {
        // A v2 file (pre-fingerprint format) with a *valid* checksum: the
        // version gate — not the checksum — must reject it.
        let path = temp_path("legacy-v2");
        let body = "valuecheck-snapshot v2\ncommit 3\nfinding f\tx\t9\n";
        let sum = {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for &b in body.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        };
        std::fs::write(&path, format!("{body}checksum {sum:016x}\n")).unwrap();
        let obs = vc_obs::ObsSession::new();
        let loaded = {
            let _g = obs.install();
            SnapshotStore::load(&path)
        };
        assert_eq!(loaded, SnapshotStore::default());
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_SNAPSHOT_RECOVERED),
            1
        );
        assert_eq!(
            obs.registry.counter(vc_obs::names::HARDEN_SNAPSHOT_CORRUPT),
            0
        );
        std::fs::remove_file(&path).ok();
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
