//! Differential-scan contract over generated two-revision workloads.
//!
//! The generator plants a known new / fixed / persisting split
//! ([`vc_workload::delta`]); these tests assert that `delta_scan` recovers
//! exactly that split, that pure line drift never misclassifies a finding,
//! that a corrupted revision recovers as a `vcheck <dir>` scan of its tree
//! does, and that the delta report is byte-identical across worker counts
//! and across a journaled resume.

use std::collections::HashSet;
use std::path::PathBuf;

use valuecheck::{
    delta::{
        delta_scan,
        DeltaStatus,
        RevScan, //
    },
    pipeline::Options,
    sentinel::SentinelConfig,
};
use vc_obs::ObsSession;
use vc_workload::{
    corrupted_history,
    generate_delta,
    truncated_history,
    DeltaProfile, //
};

mod common;

fn temp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vc-delta-{}-{}.journal", std::process::id(), name))
}

/// Runs a delta scan over the workload and returns (outcome, obs).
fn scan(
    w: &vc_workload::DeltaWorkload,
    sconf: &SentinelConfig,
) -> (valuecheck::delta::DeltaOutcome, ObsSession) {
    let obs = ObsSession::new();
    let outcome = delta_scan(
        &w.repo,
        (w.from, w.to),
        &[],
        &Options::paper(),
        sconf,
        &HashSet::new(),
        obs.clone(),
    )
    .expect("generated workload must build at both revisions");
    (outcome, obs)
}

/// The sorted function names the report classified under `status`.
fn functions_with(report: &valuecheck::delta::DeltaReport, status: DeltaStatus) -> Vec<String> {
    let mut v: Vec<String> = report
        .rows
        .iter()
        .filter(|r| r.status == status)
        .map(|r| r.finding.function.clone())
        .collect();
    v.sort();
    v
}

#[test]
fn recovers_the_planted_new_fixed_persisting_split() {
    let w = generate_delta(&DeltaProfile {
        seed: 11,
        persisting: 5,
        fixed: 3,
        new: 2,
        files: 3,
        drift_lines: 7,
    });
    let (outcome, obs) = scan(&w, &SentinelConfig::default());
    let report = &outcome.report;

    assert_eq!(
        functions_with(report, DeltaStatus::Persisting),
        w.expected_persisting,
        "persisting functions must match the plant"
    );
    assert_eq!(functions_with(report, DeltaStatus::Fixed), w.expected_fixed);
    assert_eq!(functions_with(report, DeltaStatus::New), w.expected_new);
    assert!(report.has_new(), "planted new bugs must gate");

    // Pure line drift is absorbed by the fingerprint alone — the line-map
    // fallback never has to fire, and every persisting row records both
    // its old and its drifted new line.
    let snap = obs.registry.snapshot();
    assert_eq!(snap.counter(vc_obs::names::DELTA_LINE_MAPPED), 0);
    assert_eq!(
        snap.counter(vc_obs::names::DELTA_PERSISTING),
        w.expected_persisting.len() as u64
    );
    assert_eq!(
        snap.counter(vc_obs::names::DELTA_NEW),
        w.expected_new.len() as u64
    );
    assert_eq!(
        snap.counter(vc_obs::names::DELTA_FIXED),
        w.expected_fixed.len() as u64
    );
    for row in report
        .rows
        .iter()
        .filter(|r| r.status == DeltaStatus::Persisting)
    {
        let (old, new) = (row.old_line.unwrap(), row.new_line.unwrap());
        assert!(
            new > old,
            "{}: padding above must shift the definition down ({old} -> {new})",
            row.finding.function
        );
    }
}

#[test]
fn pure_line_shift_keeps_every_finding_persisting() {
    let w = generate_delta(&DeltaProfile {
        seed: 23,
        persisting: 6,
        fixed: 0,
        new: 0,
        files: 2,
        drift_lines: 9,
    });
    let (outcome, _obs) = scan(&w, &SentinelConfig::default());
    let report = &outcome.report;
    assert!(!report.rows.is_empty());
    assert!(
        report
            .rows
            .iter()
            .all(|r| r.status == DeltaStatus::Persisting),
        "a shift-only change must classify everything as persisting"
    );
    assert!(!report.has_new(), "shift-only delta must exit 0");
}

#[test]
fn self_delta_is_all_persisting() {
    let w = generate_delta(&DeltaProfile::default());
    let obs = ObsSession::new();
    let outcome = delta_scan(
        &w.repo,
        (w.to, w.to),
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        &HashSet::new(),
        obs.clone(),
    )
    .expect("self delta must scan");
    assert_eq!(outcome.report.count(DeltaStatus::New), 0);
    assert_eq!(outcome.report.count(DeltaStatus::Fixed), 0);
    assert!(!outcome.report.rows.is_empty(), "the revision has findings");
}

#[test]
fn report_bytes_are_identical_across_jobs() {
    let w = generate_delta(&DeltaProfile {
        seed: 31,
        ..DeltaProfile::default()
    });
    let mut bytes: Vec<Vec<u8>> = Vec::new();
    let mut stats: Vec<String> = Vec::new();
    for jobs in [1usize, 4] {
        let sconf = SentinelConfig {
            jobs,
            ..SentinelConfig::default()
        };
        let (outcome, obs) = scan(&w, &sconf);
        bytes.push(outcome.report.canonical_bytes());
        stats.push(obs.registry.snapshot().render_text());
    }
    assert_eq!(
        bytes[0], bytes[1],
        "delta report identical for --jobs 1 vs --jobs 4"
    );
    assert_eq!(
        stats[0], stats[1],
        "--stats identical for --jobs 1 vs --jobs 4"
    );
}

#[test]
fn journaled_resume_reproduces_the_report() {
    let w = generate_delta(&DeltaProfile {
        seed: 41,
        ..DeltaProfile::default()
    });
    let journal = temp_journal("resume");
    for side in ["from", "to"] {
        let mut p = journal.clone().into_os_string();
        p.push(".");
        p.push(side);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }

    let mut sconf = SentinelConfig {
        jobs: 2,
        journal: Some(journal.clone()),
        fsync_every: 4,
        ..SentinelConfig::default()
    };
    let (fresh, _) = scan(&w, &sconf);

    sconf.resume = true;
    let (resumed, obs) = scan(&w, &sconf);
    assert_eq!(
        resumed.report.canonical_bytes(),
        fresh.report.canonical_bytes(),
        "a journal replay must reproduce the delta report byte for byte"
    );
    let snap = obs.registry.snapshot();
    assert!(
        snap.counter("sentinel.units_replayed") > 0,
        "resume must replay journaled units rather than rescanning"
    );
    assert_eq!(snap.counter("sentinel.units_scanned"), 0);

    for side in ["from", "to"] {
        let mut p = journal.clone().into_os_string();
        p.push(".");
        p.push(side);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
}

#[test]
fn baseline_acknowledges_new_findings_without_touching_the_rest() {
    // A team triages the new findings of one delta run and writes them to a
    // baseline; the rerun then stops gating on them. Findings that match the
    // old side stay persisting — the baseline only intercepts would-be-new
    // rows.
    let w = generate_delta(&DeltaProfile {
        seed: 53,
        ..DeltaProfile::default()
    });
    let (plain, _) = scan(&w, &SentinelConfig::default());
    let baseline: HashSet<u64> = plain
        .report
        .rows
        .iter()
        .filter(|r| r.status == DeltaStatus::New)
        .map(|r| r.finding.fingerprint.0)
        .collect();
    assert_eq!(baseline.len(), w.expected_new.len());

    let obs = ObsSession::new();
    let outcome = delta_scan(
        &w.repo,
        (w.from, w.to),
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        &baseline,
        obs.clone(),
    )
    .expect("baseline delta must scan");
    assert_eq!(outcome.report.count(DeltaStatus::New), 0);
    assert_eq!(
        functions_with(&outcome.report, DeltaStatus::Suppressed),
        w.expected_new,
        "every triaged finding reappears as suppressed"
    );
    assert_eq!(
        functions_with(&outcome.report, DeltaStatus::Persisting),
        w.expected_persisting,
        "the baseline must not touch persisting findings"
    );
    assert!(
        !outcome.report.has_new(),
        "suppressed findings do not gate CI"
    );
    assert_eq!(
        obs.registry
            .snapshot()
            .counter(vc_obs::names::DELTA_SUPPRESSED),
        w.expected_new.len() as u64
    );
}

#[test]
fn corrupted_revision_recovers_as_a_scan_does() {
    let (repo, clean, broken) = corrupted_history();
    let obs = ObsSession::new();
    let outcome = delta_scan(
        &repo,
        (clean, broken),
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        &HashSet::new(),
        obs.clone(),
    )
    .expect("a revision with salvageable functions must scan");

    let (failures, counters) = common::head_scan(&repo);
    assert_eq!(failures.len(), 2, "{failures:#?}");
    assert_eq!(outcome.to.analysis.report.failures, failures);
    assert!(outcome.from.analysis.report.failures.is_empty());
    assert_eq!(common::front_end_counters(&obs), counters);

    // Both planted findings persist under their clean-revision fingerprints.
    let fingerprints = |scan: &RevScan| scan.findings.iter().map(|f| f.fingerprint).collect();
    let kept: Vec<_> = fingerprints(&outcome.to);
    assert_eq!(kept.len(), 2);
    assert_eq!(kept, fingerprints(&outcome.from));
    let persisting = functions_with(&outcome.report, DeltaStatus::Persisting);
    assert_eq!(persisting, ["alpha", "beta"]);
    assert_eq!(outcome.report.rows.len(), 2);
}

#[test]
fn a_function_dropped_by_corruption_is_unscanned_not_fixed() {
    let (repo, clean, broken) = truncated_history();
    let obs = ObsSession::new();
    let outcome = delta_scan(
        &repo,
        (clean, broken),
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        &HashSet::new(),
        obs.clone(),
    )
    .expect("a revision with salvageable functions must scan");

    let (failures, counters) = common::head_scan(&repo);
    assert_eq!(failures.len(), 1, "{failures:#?}");
    assert_eq!(failures[0].function.as_deref(), Some("alpha"));
    assert_eq!(outcome.to.analysis.report.failures, failures);
    assert_eq!(common::front_end_counters(&obs), counters);

    // `alpha`'s finding is not known to be gone: it is `unscanned`, and
    // nothing reads as fixed.
    let report = &outcome.report;
    assert_eq!(report.count(DeltaStatus::Fixed), 0);
    assert_eq!(functions_with(report, DeltaStatus::Unscanned), ["alpha"]);
    assert_eq!(functions_with(report, DeltaStatus::Persisting), ["beta"]);
}
