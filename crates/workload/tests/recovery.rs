//! The parse-recovery harness: seeded corruption sweeps over generated
//! applications (`tools/ci.sh recovery`).
//!
//! For every seed this test generates an application, plants the committed
//! fault file ([`vc_workload::corrupt`]), scans the pristine sources once,
//! and then applies every [`CorruptKind`] to a clone. The recovery contract:
//!
//! 1. zero panics escape the front end or the pipeline;
//! 2. every planted bug outside the corrupted region is still reported,
//!    with the **same fingerprint** as the pristine scan — one mangled
//!    function costs only itself;
//! 3. the corrupted function costs exactly one function-granular parse
//!    failure record (and its finding either vanishes or survives at low
//!    confidence, per its scripted [`BugFate`]);
//! 4. the [`RecoverStats`] funnel matches the corruption kind exactly, and
//!    the detection funnel still balances;
//! 5. report output stays byte-identical across `--jobs` and a journaled
//!    `--resume` on corrupted input.

use std::{
    collections::BTreeSet,
    panic::{
        catch_unwind,
        AssertUnwindSafe, //
    },
    path::PathBuf,
};

use valuecheck::{
    harden::{
        FailStage,
        FailureRecord, //
    },
    pipeline::{
        run_sentinel,
        Analysis,
        Options, //
    },
    prune::PruneReason,
    sentinel::SentinelConfig,
};
use vc_ir::{
    program::{
        BuildError,
        RecoverStats, //
    },
    Program,
};
use vc_obs::ObsSession;
use vc_workload::{
    corrupt::{
        corrupt,
        plant_fault_file,
        BugFate,
        CorruptKind, //
    },
    generate,
    AppProfile,
    GeneratedApp, //
};

/// Number of deterministic seeds the suite sweeps (`tools/ci.sh recovery`).
const SEEDS: u64 = 32;

struct Scan {
    analysis: Analysis,
    errors: Vec<BuildError>,
    stats: RecoverStats,
    obs: ObsSession,
}

/// Builds with recovery and runs the paper pipeline, all under
/// `catch_unwind`: a corrupted front end must never panic.
fn scan(app: &GeneratedApp, label: &str) -> Scan {
    let obs = ObsSession::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (prog, errors, stats) = Program::build_recovering(&app.source_refs(), &app.defines);
        let analysis = run_sentinel(
            &prog,
            &app.repo,
            &Options::paper(),
            &SentinelConfig::sequential(),
            obs.clone(),
        );
        (analysis, errors, stats)
    }));
    let (analysis, errors, stats) =
        outcome.unwrap_or_else(|_| panic!("{label}: a panic escaped the recovering front end"));
    Scan {
        analysis,
        errors,
        stats,
        obs,
    }
}

/// Fingerprints of every reported finding, keyed for set comparison.
fn fingerprint_set(s: &Scan) -> BTreeSet<u64> {
    (s.analysis.report.rows.iter())
        .map(|r| r.fingerprint.0)
        .collect()
}

/// Fingerprints of the findings in `function`.
fn function_fingerprints(s: &Scan, function: &str) -> BTreeSet<u64> {
    (s.analysis.report.rows.iter())
        .filter(|r| r.function == function)
        .map(|r| r.fingerprint.0)
        .collect()
}

/// Folds build errors into failure records exactly as `vcheck` does.
fn folded_failures(s: &Scan) -> Vec<FailureRecord> {
    s.errors
        .iter()
        .map(|e| FailureRecord {
            stage: FailStage::Parse,
            file: e.file().to_string(),
            function: e.function().map(str::to_string),
            message: e.to_string(),
        })
        .collect()
}

fn assert_funnel_balances(s: &Scan, label: &str) {
    let reg = &s.obs.registry;
    let raw = reg.counter("funnel.raw");
    let cross = reg.counter("funnel.cross_scope");
    let failed = reg.counter("funnel.failed");
    let pruned: u64 = PruneReason::ALL
        .iter()
        .map(|r| reg.counter(&format!("funnel.pruned.{}", r.label())))
        .sum();
    let reported = reg.counter("funnel.reported");
    assert!(
        raw >= cross + failed,
        "{label}: funnel shrinks monotonically (raw={raw} cross={cross} failed={failed})"
    );
    assert_eq!(
        raw,
        (raw - failed - cross) + failed + pruned + reported,
        "{label}: funnel must balance"
    );
    assert_eq!(
        cross,
        pruned + reported,
        "{label}: every cross-scope candidate is pruned or reported"
    );
}

/// The exact [`RecoverStats`] shape each corruption kind must produce on an
/// otherwise-clean application.
fn assert_stats_match(kind: CorruptKind, stats: &RecoverStats, label: &str) {
    assert_eq!(stats.files_dropped, 0, "{label}: no whole file is lost");
    assert_eq!(
        stats.parse_errors, 1,
        "{label}: one corrupted region, one parse diagnostic"
    );
    let (dropped, poisoned) = if kind.salvageable() { (0, 1) } else { (1, 0) };
    assert_eq!(
        stats.functions_dropped, dropped,
        "{label}: item-level corruption costs exactly the victim"
    );
    assert_eq!(
        stats.poisoned_stmts, poisoned,
        "{label}: body-level corruption poisons exactly one region"
    );
    match kind {
        CorruptKind::GarbageBytes | CorruptKind::UntermString => assert!(
            stats.lex_errors >= 1,
            "{label}: unlexable bytes must surface as lex errors"
        ),
        _ => assert_eq!(stats.lex_errors, 0, "{label}: corruption lexes cleanly"),
    }
}

fn run_one_seed(seed: u64) {
    let mut profile = AppProfile::nfs_ganesha().scaled(0.02);
    profile.seed = seed.wrapping_mul(104_729) ^ 0xC0DE;
    profile.name = format!("recov{seed}");
    let mut base = generate(&profile);
    let ff = plant_fault_file(&mut base, seed);

    // --- pristine truth ----------------------------------------------------
    let pristine = scan(&base, &format!("seed {seed} pristine"));
    assert!(
        pristine.errors.is_empty(),
        "seed {seed}: the pristine app must build cleanly"
    );
    assert_eq!(
        pristine.stats,
        RecoverStats::default(),
        "seed {seed}: recovery is a no-op on clean sources"
    );
    let pristine_fps = fingerprint_set(&pristine);
    for f in &ff.functions {
        assert_eq!(
            function_fingerprints(&pristine, f).len(),
            1,
            "seed {seed}: each fault-file function plants exactly one finding"
        );
    }

    // --- one corruption kind at a time ------------------------------------
    for kind in CorruptKind::ALL {
        let label = format!("seed {seed} {kind:?}");
        let mut app = base.clone();
        let cor = corrupt(&mut app, &ff, kind);
        let s = scan(&app, &label);

        // Exactly one failure, function-granular, pinned to the victim.
        let failures = folded_failures(&s);
        assert_eq!(
            failures.len(),
            1,
            "{label}: one corrupted function, one failure record ({failures:?})"
        );
        assert_eq!(
            failures[0].file, cor.file,
            "{label}: failure names the file"
        );
        assert_eq!(
            failures[0].function.as_deref(),
            Some(cor.victim.as_str()),
            "{label}: failure is attributed to the corrupted function"
        );

        // Every planted bug meets its scripted fate.
        let mut expected = pristine_fps.clone();
        for (func, fate) in &cor.fates {
            let in_pristine = function_fingerprints(&pristine, func);
            let in_corrupted = function_fingerprints(&s, func);
            match fate {
                BugFate::Kept | BugFate::KeptLowConfidence => {
                    assert_eq!(
                        in_corrupted, in_pristine,
                        "{label}: {func} keeps its finding, fingerprint unchanged"
                    );
                }
                BugFate::Lost => {
                    assert!(
                        in_corrupted.is_empty(),
                        "{label}: {func} was dropped, its finding must vanish"
                    );
                    for fp in in_pristine {
                        expected.remove(&fp);
                    }
                }
            }
            if *fate == BugFate::KeptLowConfidence {
                let row = s
                    .analysis
                    .report
                    .rows
                    .iter()
                    .find(|r| r.function == *func)
                    .unwrap_or_else(|| panic!("{label}: {func} must still be reported"));
                assert!(
                    row.low_confidence,
                    "{label}: a finding out of a poisoned parse is low confidence"
                );
            }
        }
        assert_eq!(
            fingerprint_set(&s),
            expected,
            "{label}: everything outside the corrupted region is untouched"
        );

        assert_stats_match(kind, &s.stats, &label);
        assert_funnel_balances(&s, &label);
    }
}

#[test]
fn thirty_two_seeds_survive_source_corruption() {
    for seed in 0..SEEDS {
        run_one_seed(seed);
    }
}

#[test]
fn corrupted_scans_are_byte_identical_across_jobs_and_resume() {
    for seed in [0u64, 8, 16, 24] {
        let mut profile = AppProfile::nfs_ganesha().scaled(0.02);
        profile.seed = seed.wrapping_mul(104_729) ^ 0xC0DE;
        profile.name = format!("recov{seed}");
        let mut base = generate(&profile);
        let ff = plant_fault_file(&mut base, seed);

        for kind in CorruptKind::ALL {
            let label = format!("seed {seed} {kind:?}");
            let mut app = base.clone();
            corrupt(&mut app, &ff, kind);
            let (prog, _errors, _stats) =
                Program::build_recovering(&app.source_refs(), &app.defines);
            let seq = run_sentinel(
                &prog,
                &app.repo,
                &Options::paper(),
                &SentinelConfig::sequential(),
                ObsSession::new(),
            );

            let sconf = SentinelConfig {
                jobs: 4,
                ..SentinelConfig::default()
            };
            let par = run_sentinel(
                &prog,
                &app.repo,
                &Options::paper(),
                &sconf,
                ObsSession::new(),
            );
            assert_eq!(
                par.report.canonical_bytes(),
                seq.report.canonical_bytes(),
                "{label}: corrupted input must not break --jobs determinism"
            );

            // One journaled run plus a resume replaying it completely.
            let journal = temp_journal(&format!("{seed}-{kind:?}"));
            let _ = std::fs::remove_file(&journal);
            let mut jconf = SentinelConfig {
                jobs: 2,
                journal: Some(journal.clone()),
                ..SentinelConfig::default()
            };
            let fresh = run_sentinel(
                &prog,
                &app.repo,
                &Options::paper(),
                &jconf,
                ObsSession::new(),
            );
            jconf.resume = true;
            let resumed = run_sentinel(
                &prog,
                &app.repo,
                &Options::paper(),
                &jconf,
                ObsSession::new(),
            );
            assert_eq!(
                fresh.report.canonical_bytes(),
                seq.report.canonical_bytes(),
                "{label}: journaled run matches the sequential report"
            );
            assert_eq!(
                resumed.report.canonical_bytes(),
                seq.report.canonical_bytes(),
                "{label}: resumed run matches the sequential report"
            );
            let _ = std::fs::remove_file(&journal);
        }
    }
}

fn temp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "vc-recovery-{}-{}.journal",
        std::process::id(),
        name
    ))
}
