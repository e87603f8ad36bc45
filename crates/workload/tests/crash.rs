//! The kill-at-random-point crash sweep.
//!
//! For each [`CrashPoint`] in the sweep grid, this harness re-executes the
//! test binary as a child process that scans a seeded app with a journal and
//! **aborts mid-append** at the planned record — optionally after writing a
//! torn partial line. The parent then resumes from the survivor journal and
//! asserts the crash was invisible:
//!
//! 1. the resumed scan's findings equal an uninterrupted run's — no lost,
//!    no duplicated findings;
//! 2. every unit is accounted for exactly once
//!    (`units_replayed + units_scanned == units`, `duplicate_records == 0`);
//! 3. a torn tail record is detected by its checksum and skipped
//!    (`torn_record_skips`), never parsed as data.

use std::{
    path::PathBuf,
    process::{Command, Stdio},
};

use valuecheck::{
    detect::{
        detect_program_hardened,
        DetectConfig,
        DetectOutcome, //
    },
    harden::HardenConfig,
    sentinel::{
        arm_crash_plan,
        detect_program_sentinel,
        CrashPlan,
        SentinelConfig, //
    },
};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_workload::{
    faults::{CrashPoint, CRASH_ENV},
    generate,
    AppProfile, //
};

/// Second env var carrying the journal path to the child.
const JOURNAL_ENV: &str = "VC_CRASH_JOURNAL";

/// Seeds the sweep kills at every grid offset.
const SEEDS: [u64; 2] = [3, 11];

fn build_program(seed: u64) -> Program {
    let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
    profile.seed = seed.wrapping_mul(104_729) ^ 0xC7A5;
    profile.name = format!("crash{seed}");
    let app = generate(&profile);
    let (prog, errors, _) = Program::build_recovering(&app.source_refs(), &app.defines);
    assert!(errors.is_empty(), "clean app must build cleanly");
    prog
}

fn sconf(journal: PathBuf, resume: bool) -> SentinelConfig {
    SentinelConfig {
        jobs: 2,
        journal: Some(journal),
        resume,
        ..SentinelConfig::default()
    }
}

fn outcome_digest(out: &DetectOutcome) -> (Vec<String>, Vec<String>) {
    (
        out.candidates.iter().map(|c| format!("{c:?}")).collect(),
        out.failures.iter().map(|f| format!("{f:?}")).collect(),
    )
}

/// Child mode: not a real test. When [`CRASH_ENV`] is set, scan the seeded
/// app with an armed [`CrashPlan`] — the journal append aborts the process
/// at the planned record, exactly as an OOM kill would.
#[test]
fn crash_child_entry() {
    let Ok(spec) = std::env::var(CRASH_ENV) else {
        return; // normal test runs are a no-op
    };
    let point = CrashPoint::from_env(&spec).expect("malformed crash spec");
    let journal = PathBuf::from(std::env::var(JOURNAL_ENV).expect("missing journal path"));
    let prog = build_program(point.seed);
    arm_crash_plan(CrashPlan {
        abort_at_record: point.abort_at_record,
        torn_bytes: point.torn_bytes,
    });
    detect_program_sentinel(
        &prog,
        DetectConfig::default(),
        HardenConfig::default(),
        &sconf(journal, false),
    );
    // Reaching here means the planned abort never fired — the sweep grid is
    // out of range for this program. Fail loudly so the parent notices.
    panic!("crash plan {point:?} did not fire");
}

#[test]
fn kill_at_random_point_sweep_loses_and_duplicates_nothing() {
    let exe = std::env::current_exe().expect("current test binary");
    for seed in SEEDS {
        let prog = build_program(seed);
        let units = prog.funcs.len();
        assert!(units >= 4, "sweep needs a few units to kill between");
        let reference = outcome_digest(&detect_program_hardened(
            &prog,
            DetectConfig::default(),
            HardenConfig::default(),
        ));

        for point in CrashPoint::sweep(&[seed], units) {
            let journal = std::env::temp_dir().join(format!(
                "vc-crash-{}-{}-{}-{}.journal",
                std::process::id(),
                point.seed,
                point.abort_at_record,
                point.torn_bytes
            ));
            let _ = std::fs::remove_file(&journal);

            // The child kills itself mid-append.
            let status = Command::new(&exe)
                .args(["--exact", "crash_child_entry", "--test-threads", "1"])
                .env(CRASH_ENV, point.to_env())
                .env(JOURNAL_ENV, &journal)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .expect("spawn crash child");
            assert!(
                !status.success(),
                "{point:?}: the child must die mid-scan, not exit cleanly"
            );
            assert!(
                journal.exists(),
                "{point:?}: the journal must survive the crash"
            );

            // The survivor journal resumes into a byte-identical outcome.
            let obs = ObsSession::new();
            let resumed = {
                let _g = obs.install();
                detect_program_sentinel(
                    &prog,
                    DetectConfig::default(),
                    HardenConfig::default(),
                    &sconf(journal.clone(), true),
                )
            };
            assert_eq!(
                outcome_digest(&resumed),
                reference,
                "{point:?}: resume must lose and duplicate nothing"
            );
            let snap = obs.registry.snapshot();
            assert!(!snap.render_text().is_empty());
            let replayed = snap.counter("sentinel.units_replayed");
            let scanned = snap.counter("sentinel.units_scanned");
            assert_eq!(
                replayed + scanned,
                units as u64,
                "{point:?}: every unit exactly once"
            );
            assert_eq!(
                replayed, point.abort_at_record as u64,
                "{point:?}: exactly the durably journaled records replay"
            );
            assert_eq!(snap.counter("sentinel.duplicate_records"), 0, "{point:?}");
            assert_eq!(snap.counter("sentinel.journal_discarded"), 0, "{point:?}");
            let torn = snap.counter("sentinel.torn_record_skips");
            if point.torn_bytes > 0 {
                assert_eq!(torn, 1, "{point:?}: the torn tail is detected and skipped");
            } else {
                assert_eq!(torn, 0, "{point:?}: clean crash leaves no torn record");
            }
            let _ = std::fs::remove_file(&journal);
        }
    }
}
