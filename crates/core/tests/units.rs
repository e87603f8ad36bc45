//! The detection unit contract: every entry point that runs per-function
//! detection units — sequential (`detect_program_hardened`), the sentinel
//! executor at one and four jobs, a cold `serve` scan, a warm `serve`
//! rescan of the same tree, a revision scan (`delta::scan_revision`, the
//! path of `vcheck delta` and `vcheck history`), and a commit scan
//! (`delta::scan_commit`) of a commit that writes every file — runs them
//! through one runner and one outcome fold. So on the same program they
//! must agree on the candidates, the failure records, and the
//! `harden.poisoned.detect`, `harden.degraded.liveness` and
//! `detect.functions` counters, both when a unit panics and when a unit's
//! liveness budget runs out.

use std::fs;

use valuecheck::{
    delta::{scan_commit, scan_revision, RevScan},
    detect::{detect_program_hardened, DetectConfig},
    harden::{arm_failpoint, FailStage, FailureRecord, HardenConfig},
    pipeline::Options,
    prune::PruneConfig,
    rank::Ranked,
    sentinel::{detect_program_sentinel, SentinelConfig},
    serve::{ServeConfig, ServeEngine},
};
use vc_ir::Program;
use vc_obs::{Budget, ObsSession};
use vc_vcs::{FileWrite, Repository};

mod common {
    pub mod oracle;
    pub mod tree;
}
use common::{oracle::cold_canonical, tree::write_tree};

/// The head tree: every function overwrites its definition on a line bob
/// added over alice's definition, so every candidate is cross-scope; `h`
/// loops, so its liveness fixpoint needs more steps than the others.
const HEAD: &[(&str, &str)] = &[
    (
        "a.c",
        "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n\
         void g(void) {\nint y = 1;\ny = 2;\nuse(y);\n}\n",
    ),
    (
        "b.c",
        "void h(int n) {\nint z = 1;\nz = 2;\nwhile (n) {\nn = n - 1;\nuse(z);\n}\n}\n\
         void k(void) {\nint w = 1;\nw = 2;\nuse(w);\n}\n",
    ),
];

/// The counters the contract covers.
const COUNTERS: [&str; 3] = [
    "harden.poisoned.detect",
    "harden.degraded.liveness",
    "detect.functions",
];

/// What one entry point reported: sorted candidate renderings, failure
/// records, and the contract counters.
#[derive(Debug, PartialEq)]
struct Units {
    candidates: Vec<String>,
    failures: Vec<String>,
    counters: Vec<u64>,
}

impl Units {
    fn new(mut candidates: Vec<String>, failures: Vec<String>, obs: &ObsSession) -> Units {
        candidates.sort();
        Units {
            candidates,
            failures,
            counters: counters(obs),
        }
    }

    /// What a report-level entry point found: its ranked candidates.
    fn ranked(ranked: &[Ranked], failures: &[FailureRecord], obs: &ObsSession) -> Units {
        let candidates = ranked.iter().map(|r| format!("{:?}", r.item.candidate));
        let failures = failures.iter().map(|f| format!("{f:?}"));
        Units::new(candidates.collect(), failures.collect(), obs)
    }
}

fn counters(obs: &ObsSession) -> Vec<u64> {
    COUNTERS.iter().map(|c| obs.registry.counter(c)).collect()
}

/// Every pruner off and no cross-scope filter: each candidate reaches the
/// report, so report-level entry points expose the full candidate set.
fn keep_everything(hconf: HardenConfig) -> Options {
    Options {
        cross_scope_only: false,
        prune: PruneConfig {
            config_dependency: false,
            cursor: false,
            unused_hints: false,
            peer_definitions: false,
            ..PruneConfig::default()
        },
        harden: hconf,
        ..Options::paper()
    }
}

fn program() -> Program {
    Program::build(HEAD, &[]).unwrap()
}

/// What a serve reply exposes of a candidate: its report-row coordinates.
fn row_key(file: &str, line: u32, function: &str, variable: &str, low: bool) -> String {
    format!("{file}:{line} {function}.{variable} low_confidence={low}")
}

fn candidate_rows(prog: &Program, cands: &[valuecheck::candidate::Candidate]) -> Vec<String> {
    cands
        .iter()
        .map(|c| {
            row_key(
                prog.source.name(c.span.file),
                c.span.line(),
                &prog.func(c.func).name,
                &c.var_name,
                c.low_confidence,
            )
        })
        .collect()
}

fn sequential(hconf: HardenConfig) -> (Units, Vec<String>) {
    let prog = program();
    let obs = ObsSession::new();
    let out = {
        let _g = obs.install();
        detect_program_hardened(&prog, DetectConfig::default(), hconf)
    };
    let rows = candidate_rows(&prog, &out.candidates);
    let units = Units::new(
        out.candidates.iter().map(|c| format!("{c:?}")).collect(),
        out.failures.iter().map(|f| format!("{f:?}")).collect(),
        &obs,
    );
    (units, rows)
}

fn sentinel(hconf: HardenConfig, jobs: usize) -> Units {
    let prog = program();
    let obs = ObsSession::new();
    let sconf = SentinelConfig {
        jobs,
        ..SentinelConfig::default()
    };
    let out = {
        let _g = obs.install();
        detect_program_sentinel(&prog, DetectConfig::default(), hconf, &sconf)
    };
    Units::new(
        out.candidates.iter().map(|c| format!("{c:?}")).collect(),
        out.failures.iter().map(|f| format!("{f:?}")).collect(),
        &obs,
    )
}

/// A cold serve scan, or with `warm` a second scan of the same tree, whose
/// hit plan settles every cached unit beside the misses the executor runs;
/// the counters are then the warm request's alone. Also returns the last
/// request's unit misses.
fn serve(hconf: HardenConfig, name: &str, warm: bool) -> (Units, u64) {
    let dir = write_tree(&format!("units-{name}"), HEAD);
    let opts = keep_everything(hconf);
    let config = ServeConfig {
        opts,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&dir, config).unwrap();
    let mut resp = engine.scan(None).expect("cold scan succeeds");
    let mut before = vec![0; COUNTERS.len()];
    if warm {
        before = counters(engine.obs());
        resp = engine.scan(None).expect("warm scan succeeds");
        let lookups = resp.unit_hits + resp.unit_misses;
        assert_eq!(lookups, 4, "every unit is looked up");
    }
    let cold = cold_canonical(&dir, &opts);
    assert_eq!(
        resp.report.canonical_bytes(),
        cold,
        "serve replies with cold bytes"
    );
    let _ = fs::remove_dir_all(&dir);
    let mut units = Units::new(
        resp.report
            .rows
            .iter()
            .map(|r| row_key(&r.file, r.line, &r.function, &r.variable, r.low_confidence))
            .collect(),
        resp.report
            .failures
            .iter()
            .map(|f| format!("{f:?}"))
            .collect(),
        engine.obs(),
    );
    for (count, earlier) in units.counters.iter_mut().zip(before) {
        *count -= earlier;
    }
    (units, resp.unit_misses)
}

/// Alice writes every definition; bob's head commit adds the overwriting
/// lines to every file.
fn history() -> Repository {
    let mut repo = Repository::new();
    let alice = repo.add_author("alice");
    let bob = repo.add_author("bob");
    let without_overwrites = |content: &str| {
        content
            .lines()
            .filter(|l| !l.ends_with(" = 2;"))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
    };
    let writes = |f: &dyn Fn(&str) -> String| {
        HEAD.iter()
            .map(|(path, content)| FileWrite {
                path: path.to_string(),
                content: f(content),
            })
            .collect()
    };
    repo.commit(alice, 1, "definitions", writes(&without_overwrites));
    repo.commit(bob, 2, "overwrites", writes(&|c| c.to_string()));
    repo
}

/// A revision scan (`delta::scan_revision`) or a commit scan
/// (`delta::scan_commit`) at the head of [`history`], whose tree is
/// [`HEAD`] and whose head commit writes every file of it.
type Scan = fn(
    &Repository,
    vc_vcs::CommitId,
    &[String],
    &Options,
    &SentinelConfig,
    ObsSession,
) -> Result<RevScan, vc_ir::program::BuildError>;

fn at_head(scan: Scan, hconf: HardenConfig) -> Units {
    let repo = history();
    let obs = ObsSession::new();
    let head = repo.head().unwrap();
    let sconf = SentinelConfig::sequential();
    let opts = keep_everything(hconf);
    let scan = scan(&repo, head, &[], &opts, &sconf, obs.clone()).expect("the head builds");
    let analysis = &scan.analysis;
    Units::ranked(&analysis.ranked, &analysis.report.failures, &obs)
}

#[test]
fn a_poisoned_unit_looks_the_same_through_every_entry_point() {
    let _fp = arm_failpoint(FailStage::Detect, "g");
    let hconf = HardenConfig::default();
    let (seq, seq_rows) = sequential(hconf);

    assert_eq!(seq.failures.len(), 1, "{seq:?}");
    assert!(seq.failures[0].contains("injected fault"), "{seq:?}");
    assert!(seq.failures[0].contains("Some(\"g\")"), "{seq:?}");
    assert_eq!(seq.candidates.len(), 3, "f, h and k keep their candidates");
    assert_eq!(seq.counters, vec![1, 0, 4]);

    for jobs in [1, 4] {
        assert_eq!(sentinel(hconf, jobs), seq, "sentinel at {jobs} jobs");
    }
    let (served, _) = serve(hconf, "poisoned", false);
    assert_eq!(served.failures, seq.failures, "serve failure records");
    assert_eq!(served.counters, seq.counters, "serve counters");
    let mut rows = seq_rows;
    rows.sort();
    assert_eq!(served.candidates, rows, "serve candidates");
    let (warm, misses) = serve(hconf, "poisoned-warm", true);
    assert_eq!(misses, 1, "the poisoned unit re-runs, the rest are hits");
    assert_eq!(warm, served, "warm serve rescan");
    assert_eq!(at_head(scan_revision, hconf), seq, "revision scan");
    assert_eq!(at_head(scan_commit, hconf), seq, "commit scan");
}

#[test]
fn a_liveness_exhausted_unit_looks_the_same_through_every_entry_point() {
    // Enough steps for every straight-line function, too few for `h`'s loop.
    let hconf = HardenConfig {
        liveness_budget: Budget::steps(LOOP_STARVING_STEPS),
        ..HardenConfig::default()
    };
    let (seq, seq_rows) = sequential(hconf);

    assert!(seq.failures.is_empty(), "{seq:?}");
    assert_eq!(seq.counters, vec![0, 1, 4]);
    // Only `h` is degraded: its candidates, partial facts and all, are
    // kept at low confidence; every other function's are not.
    assert!(seq_rows.iter().any(|r| r.contains(" h.z ")), "{seq_rows:?}");
    for row in &seq_rows {
        assert_eq!(
            row.contains(" h."),
            row.ends_with("low_confidence=true"),
            "{seq_rows:?}"
        );
    }

    for jobs in [1, 4] {
        assert_eq!(sentinel(hconf, jobs), seq, "sentinel at {jobs} jobs");
    }
    let (served, _) = serve(hconf, "exhausted", false);
    assert_eq!(served.failures, seq.failures, "serve failure records");
    assert_eq!(served.counters, seq.counters, "serve counters");
    let mut rows = seq_rows;
    rows.sort();
    assert_eq!(served.candidates, rows, "serve candidates");
    let (warm, misses) = serve(hconf, "exhausted-warm", true);
    assert_eq!(misses, 0, "the exhausted unit is cached like the rest");
    assert_eq!(warm, served, "warm serve rescan");
    assert_eq!(at_head(scan_revision, hconf), seq, "revision scan");
    assert_eq!(at_head(scan_commit, hconf), seq, "commit scan");
}

/// A liveness step budget that the straight-line functions fit in and the
/// looping `h` does not.
const LOOP_STARVING_STEPS: u64 = 3;
