//! Determinism and resumability contract of the sentinel executor.
//!
//! The parallel scan executor promises that worker count, journal
//! presence, and resume points are **invisible in the output**: the report
//! bytes (CSV + JSON) and the `--stats` counter snapshot are identical for
//! `--jobs 1/2/8`, and replaying a journal — once or twice — reproduces the
//! uninterrupted run byte for byte.

use std::path::PathBuf;

use valuecheck::{
    harden::{
        arm_failpoint,
        FailStage, //
    },
    pipeline::{
        run_sentinel,
        Options, //
    },
    prune::PruneReason,
    sentinel::SentinelConfig,
};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_workload::{
    faults::PANIC_NEEDLE,
    generate,
    inject_faults,
    AppProfile, //
};

fn build_app(seed: u64) -> (Program, vc_vcs::Repository) {
    let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
    profile.seed = seed.wrapping_mul(6271) ^ 0x5E17;
    profile.name = format!("sentinel{seed}");
    let app = generate(&profile);
    let (prog, errors, _) = Program::build_recovering(&app.source_refs(), &app.defines);
    assert!(errors.is_empty(), "clean app must build cleanly");
    (prog, app.repo)
}

fn temp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "vc-sentinel-{}-{}.journal",
        std::process::id(),
        name
    ))
}

#[test]
fn report_and_stats_are_byte_identical_across_jobs() {
    let (prog, repo) = build_app(1);
    let seq = run_sentinel(
        &prog,
        &repo,
        &Options::paper(),
        &SentinelConfig::sequential(),
        ObsSession::new(),
    );
    assert!(
        !seq.report.rows.is_empty(),
        "the generated app must produce findings for the comparison to mean anything"
    );

    let mut stats: Vec<String> = Vec::new();
    for jobs in [1usize, 2, 8] {
        let sconf = SentinelConfig {
            jobs,
            ..SentinelConfig::default()
        };
        let obs = ObsSession::new();
        let par = run_sentinel(&prog, &repo, &Options::paper(), &sconf, obs.clone());
        assert_eq!(
            par.report.canonical_bytes(),
            seq.report.canonical_bytes(),
            "jobs={jobs}: report must match the sequential pipeline byte for byte"
        );
        stats.push(obs.registry.snapshot().render_text());
    }
    assert_eq!(stats[0], stats[1], "--stats identical for jobs 1 vs 2");
    assert_eq!(stats[0], stats[2], "--stats identical for jobs 1 vs 8");
}

#[test]
fn journal_replay_is_idempotent() {
    let (prog, repo) = build_app(2);
    let journal = temp_journal("idempotent");
    let _ = std::fs::remove_file(&journal);

    let mut sconf = SentinelConfig {
        jobs: 2,
        journal: Some(journal.clone()),
        ..SentinelConfig::default()
    };
    let fresh = run_sentinel(&prog, &repo, &Options::paper(), &sconf, ObsSession::new());

    // Resume once, then resume again: each replays the complete journal,
    // rescans nothing, and reproduces the report exactly.
    sconf.resume = true;
    for round in 1..=2 {
        let obs = ObsSession::new();
        let resumed = run_sentinel(&prog, &repo, &Options::paper(), &sconf, obs.clone());
        assert_eq!(
            resumed.report.canonical_bytes(),
            fresh.report.canonical_bytes(),
            "resume round {round} must reproduce the fresh report"
        );
        let snap = obs.registry.snapshot();
        assert_eq!(
            snap.counter("sentinel.units_replayed"),
            prog.funcs.len() as u64,
            "resume round {round} replays every unit"
        );
        assert_eq!(snap.counter("sentinel.units_scanned"), 0);
        assert_eq!(snap.counter("sentinel.duplicate_records"), 0);
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn fault_sweep_holds_under_parallel_workers() {
    // The faults.rs 32-seed sweep runs the sequential pipeline; this is the
    // same contract under `--jobs 4`, exercising the shared failpoint plan:
    // the detect-stage failpoint armed on this thread must fire inside
    // whichever worker thread picks up the poisoned unit.
    for seed in 0..4u64 {
        let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
        profile.seed = seed.wrapping_mul(7919) ^ 0xFA17;
        profile.name = format!("pfaulted{seed}");
        let mut app = generate(&profile);
        let faults = inject_faults(&mut app, seed);
        let _fp = arm_failpoint(FailStage::Detect, PANIC_NEEDLE);

        let (prog, _errors, _) = Program::build_recovering(&app.source_refs(), &app.defines);
        let sconf = SentinelConfig {
            jobs: 4,
            ..SentinelConfig::default()
        };
        let obs = ObsSession::new();
        let analysis = run_sentinel(&prog, &app.repo, &Options::paper(), &sconf, obs.clone());

        // The poisoned unit ran once and failed; every other unit it was
        // scanned with completed.
        let reg = &obs.registry;
        assert_eq!(
            reg.counter("harden.poisoned.detect"),
            1,
            "seed {seed}: one poisoned function"
        );
        assert_eq!(
            reg.counter("sentinel.units_completed") + 1,
            reg.counter("sentinel.units_scanned"),
            "seed {seed}: every unit but the poisoned one completes"
        );
        let detect_failures = analysis
            .report
            .failures
            .iter()
            .filter(|f| {
                f.stage == FailStage::Detect
                    && f.function
                        .as_deref()
                        .is_some_and(|f| f.contains(PANIC_NEEDLE))
            })
            .count();
        assert_eq!(
            detect_failures, 1,
            "seed {seed}: exactly one detect failure"
        );

        // Funnel still balances with a poisoned unit under parallel workers.
        let raw = reg.counter("funnel.raw");
        let cross = reg.counter("funnel.cross_scope");
        let failed = reg.counter("funnel.failed");
        let pruned: u64 = PruneReason::ALL
            .iter()
            .map(|r| reg.counter(&format!("funnel.pruned.{}", r.label())))
            .sum();
        let reported = reg.counter("funnel.reported");
        assert_eq!(raw - failed - cross + failed + cross, raw);
        assert_eq!(cross, pruned + reported, "seed {seed}: funnel balance");

        // Planted dead-store faults still surface as report rows.
        for fault in faults
            .iter()
            .filter(|f| f.evidence == vc_workload::Evidence::ReportRow)
        {
            let hits = analysis
                .report
                .rows
                .iter()
                .filter(|r| r.function == fault.function)
                .count();
            assert_eq!(
                hits, 1,
                "seed {seed}: fault {:?} must leave one report row",
                fault.kind
            );
        }
    }
}
