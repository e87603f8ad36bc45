//! The output oracles count tampered outputs as failed and untampered
//! ones as passed: one dropped report row (`scan-cold`), one extra finding
//! fingerprint (`serve-edit`), one swapped fate (`history-replay`).

use std::path::PathBuf;

use repobench::{
    history_replay::life_profile,
    oracle::{
        check_replay,
        check_scan,
        check_serve_reply,
        reply_fingerprints,
        Fates,
        Tally, //
    },
    scan_cold::{
        sentinel_config,
        write_tree,
        SMALL_SCALE, //
    },
};
use valuecheck::{
    history::history_scan,
    pipeline::{
        run_sentinel,
        Options, //
    },
    serve::{
        ServeConfig,
        ServeEngine, //
    },
    suppress::SuppressStore,
};
use vc_ir::Program;
use vc_obs::{
    Json,
    ObsSession, //
};
use vc_workload::{
    generate,
    generate_life,
    AppProfile, //
};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("oracle-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Counts one check in a fresh tally and returns the failure count.
fn failures(check: Result<(), String>) -> u64 {
    let mut tally = Tally::default();
    tally.record("tamper test", check);
    assert_eq!(tally.attempted, 1);
    tally.failed
}

#[test]
fn scan_oracle_fails_a_dropped_row() {
    let profile = AppProfile {
        seed: 3,
        ..AppProfile::openssl()
    }
    .scaled(SMALL_SCALE);
    let app = generate(&profile);
    let (prog, errors, _) = Program::build_recovering(&app.source_refs(), &[]);
    let analysis = run_sentinel(
        &prog,
        &app.repo,
        &Options::paper(),
        &sentinel_config(),
        ObsSession::new(),
    );
    let mut report = analysis.report;
    let csv = report.to_csv();
    assert!(!report.rows.is_empty());
    assert_eq!(
        failures(check_scan(
            &report,
            &csv,
            errors.len(),
            &profile,
            &app.truth
        )),
        0,
        "the untampered report passes"
    );

    report.rows.pop();
    let csv = report.to_csv();
    assert_eq!(
        failures(check_scan(
            &report,
            &csv,
            errors.len(),
            &profile,
            &app.truth
        )),
        1,
        "a dropped row fails"
    );
}

#[test]
fn serve_oracle_fails_an_extra_fingerprint() {
    let profile = AppProfile {
        seed: 3,
        ..AppProfile::mysql()
    }
    .scaled(SMALL_SCALE);
    let app = generate(&profile);
    let dir = work_dir("serve");
    write_tree(&dir, &app.sources).unwrap();
    let mut engine = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
    let (reply, _) = engine.handle_line("{\"op\":\"scan\"}", 1);
    let reference = reply_fingerprints(&reply);
    assert!(!reference.is_empty());
    assert_eq!(failures(check_serve_reply(&reply, &reference)), 0);

    let mut tampered = reply.clone();
    let Json::Obj(fields) = &mut tampered else {
        panic!("a reply is an object")
    };
    let (_, delta) = fields.iter_mut().find(|(k, _)| k == "delta").unwrap();
    let Json::Obj(classes) = delta else {
        panic!("delta is an object")
    };
    let (_, new) = classes.iter_mut().find(|(k, _)| k == "new").unwrap();
    let Json::Arr(new) = new else {
        panic!("delta.new is an array")
    };
    new.push(Json::Obj(vec![(
        "fingerprint".into(),
        Json::Str("00000000deadbeef".into()),
    )]));
    assert_eq!(
        failures(check_serve_reply(&tampered, &reference)),
        1,
        "an extra fingerprint fails"
    );

    let refused = Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str("shed".into())),
    ]);
    assert_eq!(failures(check_serve_reply(&refused, &reference)), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_oracle_fails_a_swapped_fate() {
    let w = generate_life(&life_profile(5, true));
    let out = history_scan(
        &w.repo,
        &[],
        &Options::paper(),
        &sentinel_config(),
        SuppressStore::default(),
        ObsSession::new(),
    )
    .unwrap();
    let fates = Fates::from_outcome(&out);
    assert_eq!(failures(check_replay(&fates, &w)), 0);

    let mut swapped = fates.clone();
    let moved = swapped.live.remove(0);
    swapped.fixed.push(moved);
    let swapped = swapped.sorted();
    assert_eq!(
        failures(check_replay(&swapped, &w)),
        1,
        "a live bug reported as fixed fails"
    );
}
