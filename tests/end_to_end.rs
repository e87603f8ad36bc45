//! Cross-crate end-to-end tests over generated workloads: pipeline counts,
//! determinism, report integrity, ablation orderings, and the per-commit
//! scan's consistency with the full revision scan.

use std::collections::HashSet;

use valuecheck::{
    delta::{
        scan_commit,
        scan_revision,
        RevScan, //
    },
    pipeline::{
        run,
        Options, //
    },
    prune::PruneConfig,
    sentinel::SentinelConfig,
};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_workload::{
    generate,
    AppProfile,
    PlantKind, //
};

fn scaled_run(profile: AppProfile) -> (vc_workload::GeneratedApp, Program, valuecheck::Analysis) {
    let app = generate(&profile);
    let prog = Program::build(&app.source_refs(), &app.defines).unwrap();
    let analysis = run(&prog, &app.repo, &Options::paper());
    (app, prog, analysis)
}

#[test]
fn pipeline_hits_profile_targets_per_app() {
    for profile in AppProfile::all() {
        let profile = profile.scaled(0.12);
        let (_app, _prog, analysis) = scaled_run(profile.clone());
        assert_eq!(
            analysis.cross_scope_candidates,
            profile.original_candidates(),
            "{}",
            profile.name
        );
        assert_eq!(analysis.detected(), profile.detected(), "{}", profile.name);
    }
}

#[test]
fn pipeline_is_deterministic() {
    let profile = AppProfile::nfs_ganesha().scaled(0.15);
    let (_, _, a) = scaled_run(profile.clone());
    let (_, _, b) = scaled_run(profile);
    let rows_a: Vec<String> = a
        .report
        .rows
        .iter()
        .map(|r| format!("{}:{}:{}", r.function, r.variable, r.line))
        .collect();
    let rows_b: Vec<String> = b
        .report
        .rows
        .iter()
        .map(|r| format!("{}:{}:{}", r.function, r.variable, r.line))
        .collect();
    assert_eq!(rows_a, rows_b);
}

#[test]
fn report_rows_are_ranked_by_familiarity() {
    let (_, _, analysis) = scaled_run(AppProfile::linux().scaled(0.15));
    let fams: Vec<f64> = analysis
        .report
        .rows
        .iter()
        .filter_map(|r| r.familiarity)
        .collect();
    for w in fams.windows(2) {
        assert!(w[0] <= w[1] + 1e-12, "ranking not ascending: {fams:?}");
    }
    // Ranks are 1..=n.
    for (i, r) in analysis.report.rows.iter().enumerate() {
        assert_eq!(r.rank, i + 1);
    }
}

#[test]
fn csv_report_round_trips_row_count() {
    let (_, _, analysis) = scaled_run(AppProfile::openssl().scaled(0.15));
    let csv = analysis.report.to_csv();
    assert_eq!(csv.lines().count(), analysis.report.rows.len() + 1);
    assert!(csv.starts_with("rank,file,line,function"));
}

#[test]
fn cross_scope_filter_only_removes_non_cross() {
    let profile = AppProfile::openssl().scaled(0.15);
    let app = generate(&profile);
    let prog = Program::build(&app.source_refs(), &app.defines).unwrap();
    let with = run(&prog, &app.repo, &Options::paper());
    let without = run(
        &prog,
        &app.repo,
        &Options {
            cross_scope_only: false,
            ..Options::paper()
        },
    );
    assert!(without.cross_scope_candidates >= with.cross_scope_candidates);
    // Every finding of the filtered run also appears in the unfiltered one.
    let unfiltered: HashSet<(String, String)> = without
        .report
        .rows
        .iter()
        .map(|r| (r.function.clone(), r.variable.clone()))
        .collect();
    for r in &with.report.rows {
        assert!(
            unfiltered.contains(&(r.function.clone(), r.variable.clone())),
            "{}:{} missing from unfiltered run",
            r.function,
            r.variable
        );
    }
    // The non-cross pool (drifter redundancies, benign ignorers) only shows
    // up in the unfiltered run.
    let planted_non_cross = app
        .truth
        .planted
        .iter()
        .filter(|p| matches!(p.kind, PlantKind::NonCross { .. }))
        .count();
    assert!(planted_non_cross > 0);
    assert!(without.detected() - with.detected() > 0);
}

#[test]
fn disabling_pruners_reports_more() {
    let profile = AppProfile::nfs_ganesha().scaled(0.15);
    let app = generate(&profile);
    let prog = Program::build(&app.source_refs(), &app.defines).unwrap();
    let full = run(&prog, &app.repo, &Options::paper());
    let unpruned = run(
        &prog,
        &app.repo,
        &Options {
            prune: PruneConfig {
                config_dependency: false,
                cursor: false,
                unused_hints: false,
                peer_definitions: false,
                ..PruneConfig::default()
            },
            ..Options::paper()
        },
    );
    assert_eq!(
        unpruned.detected(),
        full.detected() + full.prune_outcome.total_pruned()
    );
}

#[test]
fn incremental_findings_agree_with_full_run_at_head() {
    let profile = AppProfile::openssl().scaled(0.1);
    let app = generate(&profile);
    let head = app.repo.head().unwrap();
    let (opts, sconf) = (Options::paper(), SentinelConfig::sequential());
    let full = scan_revision(
        &app.repo,
        head,
        &app.defines,
        &opts,
        &sconf,
        ObsSession::new(),
    );
    let per_commit = scan_commit(
        &app.repo,
        head,
        &app.defines,
        &opts,
        &sconf,
        ObsSession::new(),
    );
    // The commit scan reports exactly the revision scan's findings in the
    // files the head commit wrote, under the same fingerprints.
    let written: HashSet<&str> = (app.repo.commit_info(head).writes.iter())
        .map(|w| w.path.as_str())
        .collect();
    let fingerprints = |scan: RevScan| {
        let findings = scan.findings.into_iter();
        let mut found: Vec<_> = (findings.filter(|f| written.contains(f.file.as_str())))
            .map(|f| (f.file, f.fingerprint))
            .collect();
        found.sort();
        found
    };
    let full = fingerprints(full.unwrap());
    let per_commit = fingerprints(per_commit.unwrap());
    assert!(!per_commit.is_empty(), "the head commit has findings");
    assert_eq!(per_commit, full);
}

#[test]
fn generated_loc_is_substantial() {
    // Table 7's scale column: full-scale workloads total ~85k MiniC lines.
    let total: usize = AppProfile::all()
        .iter()
        .map(|p| generate(&p.scaled(0.1)).loc())
        .sum();
    assert!(total > 5_000, "scaled LOC too small: {total}");
}
