//! The fault-injection harness: 32 seeded runs over mutated applications.
//!
//! For every seed this test generates an application, injects one fault of
//! every kind ([`vc_workload::faults`]), and runs the full pipeline under
//! `catch_unwind`. The robustness contract (`ISSUE` acceptance criteria):
//!
//! 1. zero uncaught panics escape the pipeline;
//! 2. every injected fault leaves exactly one piece of evidence (a parse or
//!    detect failure record, or a report row);
//! 3. the candidate funnel balances:
//!    `raw = filtered_out + failed + pruned + reported`.

use std::panic::{
    catch_unwind,
    AssertUnwindSafe, //
};

use valuecheck::{
    harden::{
        arm_failpoint,
        FailStage,
        FailureRecord, //
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
    AppProfile,
    Evidence,
    FaultKind, //
};

/// Number of deterministic seeds the suite sweeps (`tools/ci.sh faults`).
const SEEDS: u64 = 32;

fn run_one_seed(seed: u64) {
    let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
    profile.seed = seed.wrapping_mul(7919) ^ 0xFA17;
    profile.name = format!("faulted{seed}");
    let mut app = generate(&profile);
    let faults = inject_faults(&mut app, seed);
    assert_eq!(
        faults.len(),
        FaultKind::ALL.len(),
        "seed {seed}: every fault kind injected"
    );

    // The PanicInjection fault is armed here: any detect-stage unit whose
    // function name matches the needle panics inside the pipeline.
    let _fp = arm_failpoint(FailStage::Detect, PANIC_NEEDLE);

    let obs = ObsSession::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (prog, errors, _) = Program::build_recovering(&app.source_refs(), &app.defines);
        let analysis = run_sentinel(
            &prog,
            &app.repo,
            &Options::paper(),
            &SentinelConfig::sequential(),
            obs.clone(),
        );
        (analysis, errors)
    }));
    let (mut analysis, parse_errors) = outcome.unwrap_or_else(|_| {
        panic!("seed {seed}: a panic escaped the hardened pipeline");
    });

    // Fold parse errors into the failure records, as vcheck does.
    for e in &parse_errors {
        let file = match e {
            vc_ir::program::BuildError::Parse { file, .. }
            | vc_ir::program::BuildError::Lower { file, .. } => file.clone(),
        };
        analysis.report.failures.push(FailureRecord {
            stage: FailStage::Parse,
            file,
            function: None,
            message: e.to_string(),
        });
    }

    // --- each fault reported exactly once --------------------------------
    for fault in &faults {
        let hits = match fault.evidence {
            Evidence::ParseFailure => analysis
                .report
                .failures
                .iter()
                .filter(|f| f.stage == FailStage::Parse && f.file == fault.file)
                .count(),
            Evidence::DetectFailure => analysis
                .report
                .failures
                .iter()
                .filter(|f| {
                    f.stage == FailStage::Detect && f.function.as_deref() == Some(&fault.function)
                })
                .count(),
            Evidence::ReportRow => analysis
                .report
                .rows
                .iter()
                .filter(|r| r.function == fault.function)
                .count(),
        };
        assert_eq!(
            hits, 1,
            "seed {seed}: fault {:?} in {} must leave exactly one {:?}",
            fault.kind, fault.file, fault.evidence
        );
    }

    // --- funnel balance ----------------------------------------------------
    let reg = &obs.registry;
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
        "seed {seed}: funnel shrinks monotonically (raw={raw} cross={cross} failed={failed})"
    );
    let filtered_out = raw - failed - cross;
    assert_eq!(
        raw,
        filtered_out + failed + pruned + reported,
        "seed {seed}: funnel must balance (raw={raw} filtered={filtered_out} \
         failed={failed} pruned={pruned} reported={reported})"
    );
    assert_eq!(
        cross,
        pruned + reported,
        "seed {seed}: every cross-scope candidate is pruned or reported"
    );

    // The injected panic is a detect-stage poisoning, visible in counters.
    assert_eq!(
        reg.counter("harden.poisoned.detect"),
        1,
        "seed {seed}: exactly one poisoned function"
    );
    assert_eq!(
        reg.counter("harden.parse_failures"),
        0,
        "parse counter belongs to vcheck; the harness folds errors directly"
    );
}

#[test]
fn thirty_two_seeds_survive_fault_injection() {
    for seed in 0..SEEDS {
        run_one_seed(seed);
    }
}

#[test]
fn faults_are_deterministic_in_the_seed() {
    let make = || {
        let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
        profile.seed = 99;
        profile.name = "det".into();
        let mut app = generate(&profile);
        let faults = inject_faults(&mut app, 5);
        (app.sources, faults)
    };
    let (s1, f1) = make();
    let (s2, f2) = make();
    assert_eq!(s1, s2);
    assert_eq!(f1.len(), f2.len());
    for (a, b) in f1.iter().zip(&f2) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.file, b.file);
        assert_eq!(a.function, b.function);
    }
}
