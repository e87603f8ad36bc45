//! One finding record on every surface: for one generated tree, the batch
//! report's rows, `scan_revision`'s findings and a cold `vcheck serve`
//! reply's `new` findings list the same fingerprints in the same order.
//! Each reads the fingerprint the report row was built with, so none of
//! them may reorder, drop or recompute one.

use std::fs;

use valuecheck::{
    delta::scan_revision,
    pipeline::{
        run_sentinel,
        Options, //
    },
    sentinel::SentinelConfig,
    serve::{
        ServeConfig,
        ServeEngine, //
    },
};
use vc_ir::Program;
use vc_obs::{
    Json,
    ObsSession, //
};
use vc_vcs::HistorySpec;
use vc_workload::{
    generate,
    AppProfile, //
};

mod common {
    pub mod tree;
}
use common::tree::write_tree;

#[test]
fn report_rows_revision_scan_and_serve_reply_list_the_same_fingerprints() {
    let app = generate(&AppProfile::mysql().scaled(0.05));
    let (opts, sconf) = (Options::paper(), SentinelConfig::sequential());

    let (prog, _, _) = Program::build_recovering(&app.source_refs(), &app.defines);
    let batch = run_sentinel(&prog, &app.repo, &opts, &sconf, ObsSession::new());
    let batch: Vec<String> = (batch.report.rows.iter())
        .map(|r| r.fingerprint.to_hex())
        .collect();
    assert!(
        batch.len() > 5,
        "{} findings are too few to compare",
        batch.len()
    );

    let head = app.repo.head().expect("the generated history has commits");
    let revision = scan_revision(
        &app.repo,
        head,
        &app.defines,
        &opts,
        &sconf,
        ObsSession::new(),
    )
    .unwrap();
    let revision: Vec<String> = (revision.findings.iter())
        .map(|f| f.fingerprint.to_hex())
        .collect();
    assert_eq!(revision, batch, "scan_revision");

    let mut files = app.sources.clone();
    let history = HistorySpec::from_repo(&app.repo).to_json();
    files.push(("history.json".to_string(), history));
    let dir = write_tree("identity", &files);
    let config = ServeConfig {
        defines: app.defines.clone(),
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&dir, config).unwrap();
    let (reply, _) = engine.handle_line("{\"op\":\"scan\"}", 1);
    let new = (reply.get("delta").and_then(|d| d.get("new")))
        .and_then(Json::as_arr)
        .expect("a scan reply classifies its findings");
    let served: Vec<&str> = (new.iter())
        .filter_map(|f| f.get("fingerprint")?.as_str())
        .collect();
    assert_eq!(served, batch, "a cold serve reply's new findings");
    let _ = fs::remove_dir_all(&dir);
}
