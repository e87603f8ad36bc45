//! Property tests for the ValueCheck pipeline: detection is a subset of the
//! raw dead-store analysis, ranking is a permutation, and the pipeline is
//! deterministic and total over arbitrary generated programs and histories.
//!
//! Each property runs as a deterministic loop over cases drawn from a
//! seeded [`SplitMix64`]; a failing case prints its seed so it can be
//! replayed exactly.

use valuecheck::{
    candidate::CallSites,
    detect::{
        detect_program,
        DetectConfig, //
    },
    pipeline::{
        run,
        Options, //
    },
    rank::{
        rank,
        RankConfig, //
    },
    AuthorshipCtx,
};
use vc_dataflow::dead_stores;
use vc_ir::{
    cfg::Cfg,
    testing::source_from_seed,
    Program, //
};
use vc_obs::SplitMix64;
use vc_vcs::{
    FileWrite,
    Repository, //
};

fn build(seed: u64) -> Program {
    let src = source_from_seed(seed);
    Program::build(&[("g.c", src.as_str())], &[]).expect("generated source builds")
}

/// A single-author history matching the generated source.
fn repo_for(seed: u64) -> Repository {
    let src = source_from_seed(seed);
    let mut repo = Repository::new();
    let a = repo.add_author("solo");
    repo.commit(
        a,
        1_000,
        "import",
        vec![FileWrite {
            path: "g.c".into(),
            content: src,
        }],
    );
    repo
}

/// Every detector candidate corresponds to a raw dead store at the same
/// span (the detector adds classification, never new positives).
#[test]
fn candidates_are_dead_stores() {
    let mut rng = SplitMix64::new(0xE1);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let cands = detect_program(&prog, DetectConfig::default());
        for c in &cands {
            let f = prog.func(c.func);
            let cfg = Cfg::new(f);
            let dead = dead_stores(f, &cfg);
            assert!(
                dead.iter().any(|d| d.span == c.span && d.key == c.key),
                "seed {seed}: candidate {}:{} has no matching dead store",
                f.name,
                c.var_name
            );
        }
    }
}

/// Disabling alias analysis can only add candidates.
#[test]
fn alias_analysis_only_suppresses() {
    let mut rng = SplitMix64::new(0xE2);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let with = detect_program(&prog, DetectConfig::default());
        let without = detect_program(
            &prog,
            DetectConfig {
                use_alias_analysis: false,
                field_sensitive_pointers: true,
            },
        );
        assert!(without.len() >= with.len(), "seed {seed}");
    }
}

/// Ranking permutes its input without loss or duplication.
#[test]
fn ranking_is_a_permutation() {
    let mut rng = SplitMix64::new(0xE3);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let repo = repo_for(seed);
        let cands = detect_program(&prog, DetectConfig::default());
        let sites = CallSites::all(&prog);
        let attributed = AuthorshipCtx::new(&prog, &repo, &sites).attribute_all(cands);
        let mut before: Vec<String> = attributed
            .iter()
            .map(|a| {
                format!(
                    "{}:{}",
                    prog.func(a.candidate.func).name,
                    a.candidate.var_name
                )
            })
            .collect();
        let ranked = rank(&prog, &repo, &RankConfig::default(), attributed);
        let mut after: Vec<String> = ranked
            .iter()
            .map(|r| {
                format!(
                    "{}:{}",
                    prog.func(r.item.candidate.func).name,
                    r.item.candidate.var_name
                )
            })
            .collect();
        before.sort();
        after.sort();
        assert_eq!(before, after, "seed {seed}");
    }
}

/// With a single-author history nothing is cross-scope... except return
/// values of library functions, which the paper treats as a different
/// author. Verify exactly that dichotomy.
#[test]
fn single_author_cross_scope_is_library_retval_only() {
    let mut rng = SplitMix64::new(0xE4);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let repo = repo_for(seed);
        let cands = detect_program(&prog, DetectConfig::default());
        let sites = CallSites::all(&prog);
        let attributed = AuthorshipCtx::new(&prog, &repo, &sites).attribute_all(cands);
        for a in &attributed {
            if a.cross_scope {
                match &a.candidate.scenario {
                    valuecheck::Scenario::RetVal { callees } => {
                        assert!(
                            callees.iter().any(|c| !prog.defines_function(c)),
                            "seed {seed}: cross-scope retval with only in-project callees"
                        );
                    }
                    other => panic!("seed {seed}: unexpected cross-scope {other:?}"),
                }
            }
        }
    }
}

/// The full pipeline is total and deterministic over arbitrary programs.
#[test]
fn pipeline_is_total_and_deterministic() {
    let mut rng = SplitMix64::new(0xE5);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let prog = build(seed);
        let repo = repo_for(seed);
        let a = run(&prog, &repo, &Options::paper());
        let b = run(&prog, &repo, &Options::paper());
        assert_eq!(a.raw_candidates, b.raw_candidates, "seed {seed}");
        assert_eq!(a.detected(), b.detected(), "seed {seed}");
        let ra: Vec<_> = a
            .report
            .rows
            .iter()
            .map(|r| (&r.function, &r.variable))
            .collect();
        let rb: Vec<_> = b
            .report
            .rows
            .iter()
            .map(|r| (&r.function, &r.variable))
            .collect();
        assert_eq!(ra, rb, "seed {seed}");
    }
}
