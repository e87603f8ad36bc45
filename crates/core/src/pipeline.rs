//! The end-to-end ValueCheck pipeline (Fig. 2): detection → authorship →
//! pruning → familiarity ranking, with per-stage accounting for the
//! evaluation tables.
//!
//! Every scan — batch, `--jobs`, delta and history revisions, commit
//! scans, serve requests — goes through one function, `run_detected`, which
//! records spans (`pipeline.run`, `stage.detect`, `stage.authorship`,
//! `stage.prune`, `stage.rank`; their durations are the per-stage times of
//! Table 7) and the candidate funnel (`funnel.raw` → `funnel.cross_scope`
//! → `funnel.pruned.<reason>` → `funnel.reported`) into the run's
//! [`ObsSession`].

use std::borrow::Cow;

use vc_ir::{
    program::{
        BuildError,
        RecoverStats, //
    },
    Program, //
};
use vc_obs::ObsSession;
use vc_vcs::{
    CommitId,
    Repository, //
};

use crate::{
    authorship::{
        Attributed,
        AuthorshipCtx, //
    },
    candidate::CallSites,
    detect::{
        DetectConfig,
        DetectOutcome, //
    },
    harden::{
        self,
        FailStage,
        FailureRecord,
        HardenConfig, //
    },
    prune::{
        verdicts,
        PeerScope,
        PeerStats,
        PruneConfig,
        PruneOutcome,
        PruneReason, //
    },
    rank::{
        rank,
        RankConfig,
        Ranked, //
    },
    report::Report,
    sentinel::{
        detect_program_sentinel,
        SentinelConfig, //
    },
};

/// Full pipeline configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Options {
    /// Detection options.
    pub detect: DetectConfig,
    /// Keep only cross-scope candidates (the paper's default; disabling is
    /// the "w/o Authorship" ablation of Table 6).
    pub cross_scope_only: bool,
    /// Pruning options.
    pub prune: PruneConfig,
    /// Ranking options.
    pub rank: RankConfig,
    /// Fault-isolation and budget knobs.
    pub harden: HardenConfig,
}

impl Options {
    /// The configuration the paper evaluates: cross-scope filtering on,
    /// all pruners on, DOK ranking on.
    pub fn paper() -> Options {
        Options {
            detect: DetectConfig::default(),
            cross_scope_only: true,
            prune: PruneConfig::default(),
            rank: RankConfig::default(),
            harden: HardenConfig::default(),
        }
    }
}

/// The result of one pipeline run, with stage-by-stage accounting.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// All unused definitions found by the detector.
    pub raw_candidates: usize,
    /// Candidates after the cross-scope filter (Table 4's "#Original").
    pub cross_scope_candidates: usize,
    /// Pruning outcome (counts per pattern; Table 4's breakdown).
    pub prune_outcome: PruneOutcome,
    /// Candidates lost to isolated per-candidate failures (each has a
    /// matching entry in `report.failures`).
    pub failed_candidates: usize,
    /// The final ranked findings.
    pub ranked: Vec<Ranked>,
    /// The rendered report.
    pub report: Report,
    /// The observability session the run recorded into: span trace (the
    /// `stage.*` spans time each stage, Table 7) plus counter/histogram
    /// registry (funnel, fixpoint iterations, DOK scores).
    pub obs: ObsSession,
}

impl Analysis {
    /// Candidates pruned by a given pattern.
    pub fn pruned_by(&self, reason: PruneReason) -> usize {
        self.prune_outcome.count(reason)
    }

    /// Final number of reported findings.
    pub fn detected(&self) -> usize {
        self.ranked.len()
    }
}

/// Runs the full ValueCheck pipeline over a program and its history, with
/// the zero-config defaults: detection is the [`sentinel`](crate::sentinel)
/// executor at one job ([`SentinelConfig::sequential`]), so every unit runs
/// once on the calling thread and no thread is spawned, recording into the
/// thread's installed [`ObsSession`] (or a fresh detached one when none is
/// installed).
pub fn run(prog: &Program, repo: &Repository, opts: &Options) -> Analysis {
    run_sentinel(
        prog,
        repo,
        opts,
        &SentinelConfig::sequential(),
        ObsSession::current_or_new(),
    )
}

/// Runs the pipeline with the sentinel executor driving the detection
/// stage: `sconf.jobs` workers, optional journal durability, and
/// `--resume` replay, recording spans and metrics into `obs`. The session
/// is installed on the current thread for the duration of the run so
/// instrumentation deep in the analysis crates reaches it. Everything
/// downstream of detection — and the report bytes — is independent of the
/// worker count.
pub fn run_sentinel(
    prog: &Program,
    repo: &Repository,
    opts: &Options,
    sconf: &SentinelConfig,
    obs: ObsSession,
) -> Analysis {
    run_detected(prog, repo, opts, obs, None, || {
        detect_program_sentinel(prog, opts.detect, opts.harden, sconf)
    })
}

/// A recovering build's front-end accounting: its build errors and
/// [`RecoverStats`], as [`build_tree`] returns them.
pub(crate) type Front<'a> = (&'a [BuildError], &'a RecoverStats);

/// The one pipeline run every scan goes through: installs `obs`, opens the
/// `pipeline.run` span, runs `detect` (a pass of the
/// [`sentinel`](crate::sentinel) executor) as `stage.detect`, then
/// authorship, pruning and ranking. With the build's `front` it splices
/// the parse failures ahead of the analysis failures and adds the
/// `recover.*` counters, as a `vcheck <dir>` scan of the tree reports them.
pub(crate) fn run_detected(
    prog: &Program,
    repo: &Repository,
    opts: &Options,
    obs: ObsSession,
    front: Option<Front<'_>>,
    detect: impl FnOnce() -> DetectOutcome,
) -> Analysis {
    let _guard = obs.install();
    let run_span = obs.span("pipeline.run", "pipeline");

    let detect_span = obs.span("stage.detect", "pipeline");
    let detect_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_DETECT);
    let outcome = detect();
    detect_mem.finish();
    detect_span.end();

    let mut analysis = run_stages(prog, repo, opts, obs, outcome);
    if let Some((errors, stats)) = front {
        (analysis.report).splice_parse_failures(&analysis.obs.registry, errors, stats);
    }
    run_span.end();
    analysis
}

/// Builds a tree the way every scan does: with recovery, so a corrupted
/// region costs only its function. `Err` carries every build error when
/// nothing was salvaged — the condition under which `vcheck <dir>` exits
/// 2; otherwise the build errors and [`RecoverStats`] come back with the
/// program for [`Report::splice_parse_failures`].
pub fn build_tree(
    sources: &[(&str, &str)],
    defines: &[String],
) -> Result<(Program, Vec<BuildError>, RecoverStats), Vec<BuildError>> {
    let (prog, errors, stats) = Program::build_recovering(sources, defines);
    if prog.funcs.is_empty() && !errors.is_empty() {
        Err(errors)
    } else {
        Ok((prog, errors, stats))
    }
}

/// The history truncated at `commit`, exactly as a checkout at that point
/// would see it: `repo` itself when `commit` is its head, otherwise a
/// replay of every commit up to `commit`. For one-off revisions: the two
/// sides of `vcheck delta` and a scan of one commit.
/// `vcheck history` visits every commit in order and grows one running
/// checkout instead ([`Repository::replay`]).
pub(crate) fn history_at(repo: &Repository, commit: CommitId) -> Cow<'_, Repository> {
    if repo.head() == Some(commit) {
        Cow::Borrowed(repo)
    } else {
        Cow::Owned(repo.checkout(commit))
    }
}

/// Everything downstream of detection: authorship, cross-scope filtering,
/// pruning, ranking, report assembly, and the funnel accounting.
fn run_stages(
    prog: &Program,
    repo: &Repository,
    opts: &Options,
    obs: ObsSession,
    outcome: DetectOutcome,
) -> Analysis {
    let candidates = outcome.candidates;
    let mut summaries = outcome.summaries;
    let mut failures = outcome.failures;
    let raw_candidates = candidates.len();

    let authorship_span = obs.span("stage.authorship", "pipeline");
    let authorship_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_AUTHORSHIP);
    // One walk over the program's calls collects every call site
    // authorship and the peer counts ask about.
    let call_sites = CallSites::asked(prog, &candidates);
    let ctx = AuthorshipCtx::new(prog, repo, &call_sites);
    // Authorship is isolated per candidate: one poisoned blame lookup costs
    // that candidate (recorded under `funnel.failed`), not the run. Each
    // candidate moves into its attribution, and out of the run when the
    // cross-scope filter drops it.
    let mut filtered: Vec<Attributed> = Vec::with_capacity(candidates.len());
    let mut failed_candidates = 0usize;
    for cand in candidates {
        let (func, file) = (cand.func, cand.span.file);
        let lookup = harden::isolated(opts.harden.isolate, || {
            harden::failpoint(FailStage::Authorship, &prog.func(func).name);
            ctx.attribute(cand)
        });
        match lookup {
            Ok(a) if a.cross_scope || !opts.cross_scope_only => filtered.push(a),
            Ok(_) => {}
            Err(message) => {
                failed_candidates += 1;
                vc_obs::counter_inc(vc_obs::names::HARDEN_POISONED_AUTHORSHIP);
                failures.push(FailureRecord {
                    stage: FailStage::Authorship,
                    file: prog.source.name(file).to_string(),
                    function: Some(prog.func(func).name.clone()),
                    message,
                });
            }
        }
    }
    let cross_scope_candidates = filtered.len();
    authorship_mem.finish();
    authorship_span.end();

    let prune_span = obs.span("stage.prune", "pipeline");
    let prune_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_PRUNE);
    // Peer statistics consume the summaries and signatures detection
    // already built; redundant-summary elimination skips every function
    // that cannot answer a peer question the surviving candidates ask.
    let scope = PeerScope::from_items(&outcome.sigs, &filtered);
    let peers = PeerStats::compute_with(
        prog,
        outcome.sigs,
        &mut summaries,
        Some(&scope),
        &call_sites,
    );
    // Pruning degrades whole-stage: a panic keeps every candidate (reports
    // may contain extra false positives, but nothing is lost). The stage
    // borrows the candidates and hands back one verdict each.
    let prune_outcome = match harden::isolated(opts.harden.isolate, || {
        harden::failpoint(FailStage::Prune, "<program>");
        verdicts(prog, &opts.prune, &peers, &summaries, &filtered)
    }) {
        Ok(verdicts) => PruneOutcome::from_verdicts(filtered, verdicts),
        Err(message) => {
            vc_obs::counter_inc(vc_obs::names::HARDEN_DEGRADED_PRUNE);
            failures.push(FailureRecord {
                stage: FailStage::Prune,
                file: "<program>".to_string(),
                function: None,
                message,
            });
            PruneOutcome {
                kept: filtered,
                pruned: Vec::new(),
            }
        }
    };
    prune_mem.finish();
    prune_span.end();

    let rank_span = obs.span("stage.rank", "pipeline");
    let rank_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_RANK);
    // Ranking degrades whole-stage: a panic falls back to the unranked
    // (detection) order with no familiarity scores.
    let ranked = match harden::isolated(opts.harden.isolate, {
        let kept = prune_outcome.kept.clone();
        move || {
            harden::failpoint(FailStage::Rank, "<program>");
            rank(prog, repo, &opts.rank, kept)
        }
    }) {
        Ok(ranked) => ranked,
        Err(message) => {
            vc_obs::counter_inc(vc_obs::names::HARDEN_DEGRADED_RANK);
            failures.push(FailureRecord {
                stage: FailStage::Rank,
                file: "<program>".to_string(),
                function: None,
                message,
            });
            prune_outcome
                .kept
                .iter()
                .map(|a| Ranked {
                    item: a.clone(),
                    familiarity: None,
                    author: None,
                })
                .collect()
        }
    };
    let mut report = Report::from_ranked(prog, repo, &ranked);
    report.failures = failures;
    rank_mem.finish();
    rank_span.end();

    // Candidate funnel (Table 4). Recorded here — not inside prune()/rank()
    // — so direct calls to those stages (the stage and ablation benches) don't
    // double-count. Balance invariant (checked by the fault harness):
    // raw = (raw - cross_scope - failed) + failed + pruned + reported.
    use vc_obs::names;
    for (name, n) in [
        (names::FUNNEL_RAW, raw_candidates),
        (names::FUNNEL_CROSS_SCOPE, cross_scope_candidates),
        (names::FUNNEL_FAILED, failed_candidates),
        (names::FUNNEL_REPORTED, ranked.len()),
    ] {
        obs.registry.add(name, n as u64);
    }
    for reason in PruneReason::ALL {
        let pruned = prune_outcome.count(reason) as u64;
        obs.registry
            .add(&names::funnel_pruned(reason.label()), pruned);
    }

    Analysis {
        raw_candidates,
        cross_scope_candidates,
        prune_outcome,
        failed_candidates,
        ranked,
        report,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_vcs::FileWrite;

    /// The Figure 1a + Figure 8 programs with a two-author history.
    fn two_author_setup() -> (Program, Repository) {
        let src = "int next_attr(int *bm);\n\
                   int get_permset(void);\n\
                   int calc_mask(void);\n\
                   int conv(int *bm) {\n\
                   int attr = next_attr(bm);\n\
                   for (attr = next_attr(bm); attr != -1; attr = next_attr(bm)) { use(attr); }\n\
                   return 0;\n\
                   }\n\
                   void acl(void) {\n\
                   int ret = get_permset();\n\
                   ret = calc_mask();\n\
                   if (ret) { handle(); }\n\
                   }\n";
        let prog = Program::build(&[("nfs.c", src)], &[]).unwrap();
        let mut repo = Repository::new();
        let author1 = repo.add_author("author1");
        let author2 = repo.add_author("author2");
        repo.commit(
            author1,
            1_000,
            "original implementation",
            vec![FileWrite {
                path: "nfs.c".into(),
                content: src.to_string(),
            }],
        );
        // author2 rewrites the overwriting lines (6 and 11).
        let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
        lines[5] = format!("{} ", lines[5]);
        lines[10] = format!("{} ", lines[10]);
        repo.commit(
            author2,
            2_000,
            "rework loop and mask computation",
            vec![FileWrite {
                path: "nfs.c".into(),
                content: lines.join("\n") + "\n",
            }],
        );
        (prog, repo)
    }

    #[test]
    fn paper_pipeline_reports_cross_scope_bugs() {
        let (prog, repo) = two_author_setup();
        let analysis = run(&prog, &repo, &Options::paper());
        let vars: Vec<&str> = analysis
            .report
            .rows
            .iter()
            .map(|r| r.variable.as_str())
            .collect();
        assert!(vars.contains(&"attr"), "vars: {vars:?}");
        assert!(vars.contains(&"ret"), "vars: {vars:?}");
        assert!(analysis.report.rows.iter().all(|r| r.cross_scope));
    }

    #[test]
    fn single_author_history_reports_nothing_cross_scope() {
        let src = "void f(void) { int x = 1; x = 2; use(x); }";
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        let mut repo = Repository::new();
        let a = repo.add_author("solo");
        repo.commit(
            a,
            1,
            "init",
            vec![FileWrite {
                path: "a.c".into(),
                content: src.into(),
            }],
        );
        let analysis = run(&prog, &repo, &Options::paper());
        assert_eq!(analysis.detected(), 0);
        assert_eq!(analysis.raw_candidates, 1);
    }

    #[test]
    fn without_authorship_ablation_reports_more() {
        let (prog, repo) = two_author_setup();
        let with = run(&prog, &repo, &Options::paper());
        let without = run(
            &prog,
            &repo,
            &Options {
                cross_scope_only: false,
                ..Options::paper()
            },
        );
        assert!(without.detected() >= with.detected());
        assert!(without.cross_scope_candidates >= with.cross_scope_candidates);
    }

    #[test]
    fn run_records_stage_spans_and_funnel() {
        let (prog, repo) = two_author_setup();
        let analysis = run(&prog, &repo, &Options::paper());
        let names: Vec<String> = analysis
            .obs
            .tracer
            .records()
            .into_iter()
            .map(|r| r.name)
            .collect();
        for stage in [
            "stage.detect",
            "stage.authorship",
            "stage.prune",
            "stage.rank",
            "pipeline.run",
        ] {
            assert!(names.contains(&stage.to_string()), "missing span {stage}");
        }
        let reg = &analysis.obs.registry;
        assert_eq!(
            reg.counter(vc_obs::names::FUNNEL_RAW),
            analysis.raw_candidates as u64
        );
        assert_eq!(
            reg.counter(vc_obs::names::FUNNEL_REPORTED),
            analysis.detected() as u64
        );
    }

    #[test]
    fn poisoned_authorship_loses_one_candidate_not_the_run() {
        let (prog, repo) = two_author_setup();
        let clean = run(&prog, &repo, &Options::paper());

        let _g = harden::arm_failpoint(FailStage::Authorship, "acl");
        let analysis = run(&prog, &repo, &Options::paper());
        assert_eq!(analysis.failed_candidates, 1);
        assert_eq!(analysis.raw_candidates, clean.raw_candidates);
        assert_eq!(analysis.detected(), clean.detected() - 1);
        let fail = &analysis.report.failures[0];
        assert_eq!(fail.stage, FailStage::Authorship);
        assert_eq!(fail.function.as_deref(), Some("acl"));
        assert!(fail.message.contains("injected fault"));
        assert_eq!(
            analysis.obs.registry.counter(vc_obs::names::FUNNEL_FAILED),
            1
        );
    }

    #[test]
    fn poisoned_prune_stage_degrades_to_keeping_everything() {
        let (prog, repo) = two_author_setup();
        let clean = run(&prog, &repo, &Options::paper());
        let _g = harden::arm_failpoint(FailStage::Prune, "<program>");
        let analysis = run(&prog, &repo, &Options::paper());
        // Nothing pruned: every cross-scope candidate survives to ranking.
        assert_eq!(analysis.prune_outcome.pruned.len(), 0);
        assert_eq!(analysis.detected(), analysis.cross_scope_candidates);
        assert!(analysis.detected() >= clean.detected());
        assert!(analysis
            .report
            .failures
            .iter()
            .any(|f| f.stage == FailStage::Prune));
    }

    #[test]
    fn poisoned_rank_stage_degrades_to_unranked_findings() {
        let (prog, repo) = two_author_setup();
        let clean = run(&prog, &repo, &Options::paper());
        let _g = harden::arm_failpoint(FailStage::Rank, "<program>");
        let analysis = run(&prog, &repo, &Options::paper());
        assert_eq!(analysis.detected(), clean.detected());
        assert!(analysis.ranked.iter().all(|r| r.familiarity.is_none()));
        assert!(analysis
            .report
            .failures
            .iter()
            .any(|f| f.stage == FailStage::Rank));
    }

    #[test]
    fn a_build_front_splices_ahead_of_the_analysis_failures() {
        let (_, repo) = two_author_setup();
        let mut tree = repo.tree_at(repo.head().unwrap());
        tree.push(("zz_bad.c", "void broken( { @@ }\n"));
        let (prog, errors, stats) = build_tree(&tree, &[]).unwrap();
        assert!(!errors.is_empty());
        let opts = Options::paper();
        let sequential = SentinelConfig::sequential();
        let _g = harden::arm_failpoint(FailStage::Authorship, "acl");

        let front = Some((errors.as_slice(), &stats));
        let analysis = run_detected(&prog, &repo, &opts, ObsSession::new(), front, || {
            detect_program_sentinel(&prog, opts.detect, opts.harden, &sequential)
        });
        let stages: Vec<FailStage> = analysis.report.failures.iter().map(|f| f.stage).collect();
        let mut expected = vec![FailStage::Parse; errors.len()];
        expected.push(FailStage::Authorship);
        assert_eq!(stages, expected);
        let parse_failures = vc_obs::names::HARDEN_PARSE_FAILURES;
        assert_eq!(
            analysis.obs.registry.counter(parse_failures),
            errors.len() as u64
        );

        // `run_sentinel` is handed no build: it splices nothing.
        let bare = run_sentinel(&prog, &repo, &opts, &sequential, ObsSession::new());
        assert_eq!(bare.report.failures.len(), 1);
        assert_eq!(bare.obs.registry.counter(parse_failures), 0);
    }

    #[test]
    fn sentinel_pipeline_matches_sequential_bytes() {
        let (prog, repo) = two_author_setup();
        let seq = run(&prog, &repo, &Options::paper());
        for jobs in [1, 2, 8] {
            let sconf = SentinelConfig {
                jobs,
                ..SentinelConfig::default()
            };
            let par = run_sentinel(
                &prog,
                &repo,
                &Options::paper(),
                &sconf,
                ObsSession::current_or_new(),
            );
            assert_eq!(
                par.report.canonical_bytes(),
                seq.report.canonical_bytes(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn funnel_balances_with_failures() {
        let (prog, repo) = two_author_setup();
        let _g = harden::arm_failpoint(FailStage::Authorship, "conv");
        let analysis = run(&prog, &repo, &Options::paper());
        let reg = &analysis.obs.registry;
        let raw = reg.counter(vc_obs::names::FUNNEL_RAW);
        let cross = reg.counter(vc_obs::names::FUNNEL_CROSS_SCOPE);
        let failed = reg.counter(vc_obs::names::FUNNEL_FAILED);
        let pruned: u64 = PruneReason::ALL
            .iter()
            .map(|r| reg.counter(&vc_obs::names::funnel_pruned(r.label())))
            .sum();
        let reported = reg.counter(vc_obs::names::FUNNEL_REPORTED);
        assert!(failed > 0);
        // filtered-out = (raw - failed) - cross; everything must add up.
        assert_eq!(raw, (raw - failed - cross) + failed + cross);
        assert_eq!(cross, pruned + reported);
    }
}
