//! Contract of the per-function summary layer (PR 9): dead-store facts
//! are computed exactly once per function on a cold scan, reused — not
//! rebuilt — on a warm `serve` re-scan of an unchanged tree, and the
//! shared-summary plumbing changes no observable output: reports stay
//! byte-identical across the sequential pipeline, the sentinel executor,
//! and serve warm/cold, and the cursor prune makes the same decisions from
//! the summary's delta map as the original per-candidate instruction
//! rescan.

use std::fs;

use valuecheck::{
    authorship::AuthorshipCtx,
    candidate::CallSites,
    detect::{detect_program_hardened, DetectConfig},
    harden::HardenConfig,
    pipeline::{run_sentinel, Options},
    prune::{prune, PeerStats, PruneConfig},
    sentinel::SentinelConfig,
    serve::{ServeConfig, ServeEngine},
};
use vc_dataflow::summary::{SigInterner, Summaries};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_workload::{generate, AppProfile};

mod common;
use common::{cold_canonical, write_tree};

fn build_app(seed: u64) -> (Program, vc_vcs::Repository) {
    let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
    profile.seed = seed.wrapping_mul(9001) ^ 0x51AB;
    profile.name = format!("summaries{seed}");
    let app = generate(&profile);
    let (prog, errors, _) = Program::build_recovering(&app.source_refs(), &app.defines);
    assert!(errors.is_empty(), "clean app must build cleanly");
    (prog, app.repo)
}

#[test]
fn cold_scan_builds_each_summary_exactly_once() {
    let (prog, repo) = build_app(1);
    let obs = ObsSession::new();
    let sequential = SentinelConfig::sequential();
    let analysis = run_sentinel(&prog, &repo, &Options::paper(), &sequential, obs.clone());
    assert!(
        !analysis.report.rows.is_empty(),
        "the generated app must produce findings for the counters to mean anything"
    );
    let snap = obs.registry.snapshot();

    // Detection builds one summary per function; the prune stage consumes
    // those shared facts instead of re-solving liveness, so `summary.built`
    // lands exactly on the function count.
    assert_eq!(
        snap.counter("summary.built"),
        prog.funcs.len() as u64,
        "dead-store facts must be computed exactly once per function"
    );
    // Every function is accounted for downstream: its summary is either
    // reused by the peer-statistics pass or eliminated as unable to answer
    // any peer question the candidate set asks.
    assert_eq!(
        snap.counter("summary.reused") + snap.counter("summary.eliminated"),
        prog.funcs.len() as u64,
        "peer stage must reuse or eliminate every summary, never rebuild"
    );
    assert!(
        snap.counter("summary.eliminated") > 0,
        "a realistic app has functions no peer question can reach"
    );
}

const BUGGY: &str = "int lib_a(void);\n\
                     int has_bug(void) {\n\
                     int got = lib_a();\n\
                     got = 2;\n\
                     return got;\n\
                     }\n";
const CLEAN: &str = "int clean_fn(void) { return 1; }\n";

fn counters(eng: &ServeEngine) -> (u64, u64) {
    let reg = &eng.obs().registry;
    (reg.counter("summary.built"), reg.counter("summary.reused"))
}

#[test]
fn warm_serve_rescan_reuses_summaries_without_rebuilding() {
    let dir = write_tree("summaries-warm", &[("a.c", BUGGY), ("b.c", CLEAN)]);
    let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();

    let first = eng.scan(None).unwrap();
    assert!(first.rebuilt);
    let (built_cold, _) = counters(&eng);
    assert!(built_cold >= 2, "cold scan builds every function's summary");

    // Unchanged tree: the warm request serves every function from the unit
    // cache — zero new summary builds, only reuses.
    let second = eng.scan(None).unwrap();
    assert!(!second.rebuilt);
    assert_eq!(second.unit_misses, 0, "unchanged tree misses nothing");
    let (built_warm, reused_warm) = counters(&eng);
    assert_eq!(
        built_warm, built_cold,
        "a warm re-scan of an unchanged tree must not rebuild any summary"
    );
    assert!(
        reused_warm > 0,
        "warm hits must be counted as summary reuses"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reports_stay_byte_identical_across_executors_and_serve_warmth() {
    let dir = write_tree("summaries-bytes", &[("a.c", BUGGY), ("b.c", CLEAN)]);
    let oracle = cold_canonical(&dir, &Options::paper());

    // Sequential vs sentinel (--jobs 4) on the same tree.
    let project = valuecheck::project::load_dir_or_empty(&dir).unwrap();
    let (prog, _errors, _) = Program::build_recovering(&project.source_refs(), &[]);
    let sconf = SentinelConfig {
        jobs: 4,
        ..SentinelConfig::default()
    };
    let par = run_sentinel(
        &prog,
        &project.repo,
        &Options::paper(),
        &sconf,
        ObsSession::new(),
    );
    assert_eq!(par.report.canonical_bytes(), oracle, "--jobs 4 vs cold");

    // Serve cold, then warm: both must match the batch oracle.
    let mut eng = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
    let cold = eng.scan(None).unwrap();
    assert_eq!(cold.report.canonical_bytes(), oracle, "serve cold vs cold");
    let warm = eng.scan(None).unwrap();
    assert_eq!(warm.report.canonical_bytes(), oracle, "serve warm vs cold");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cursor_prune_decisions_match_the_original_inline_rescan() {
    // The summary's per-key self-offset delta map replaced a per-candidate
    // instruction rescan in the cursor pruner. An empty summary store
    // forces `prune` down its defensive inline-rescan fallback — the
    // original algorithm — so the two paths must agree candidate by
    // candidate on generated truth workloads.
    for seed in 0..4u64 {
        let (prog, repo) = build_app(seed.wrapping_add(10));
        let out = detect_program_hardened(&prog, DetectConfig::default(), HardenConfig::default());
        let sites = CallSites::all(&prog);
        let items: Vec<_> = AuthorshipCtx::new(&prog, &repo, &sites)
            .attribute_all(out.candidates)
            .into_iter()
            .filter(|a| a.cross_scope)
            .collect();
        assert!(!items.is_empty(), "seed {seed}: no cross-scope candidates");

        let mut summaries = out.summaries;
        let peers =
            PeerStats::compute_with(&prog, SigInterner::new(&prog), &mut summaries, None, &sites);

        let with_summaries = prune(
            &prog,
            &PruneConfig::default(),
            &peers,
            &summaries,
            items.clone(),
        );
        let with_fallback = prune(
            &prog,
            &PruneConfig::default(),
            &peers,
            &Summaries::default(),
            items,
        );

        let digest = |o: &valuecheck::prune::PruneOutcome| {
            let kept: Vec<_> = o
                .kept
                .iter()
                .map(|a| (a.candidate.func_name.clone(), a.candidate.span))
                .collect();
            let pruned: Vec<_> = o
                .pruned
                .iter()
                .map(|(a, r)| (a.candidate.func_name.clone(), a.candidate.span, *r))
                .collect();
            (kept, pruned)
        };
        assert_eq!(
            digest(&with_summaries),
            digest(&with_fallback),
            "seed {seed}: summary-based cursor pruning changed a decision"
        );
    }
}
