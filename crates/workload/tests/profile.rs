//! The profiling contract over generated workloads.
//!
//! This test binary installs the counting global allocator, so it exercises
//! the full `vc-prof` surface the `vcheck` binary ships with: folded-stack
//! profiles whose logical view is identical for any worker count and whose
//! self-times conserve root wall time, `mem.*` allocation metrics with
//! high-water marks, spans flushed (and tagged) from inside a panicking
//! isolation boundary, and the names-registry exhaustiveness sweep.

use std::collections::HashSet;

use valuecheck::{
    delta::delta_scan,
    harden::{
        arm_failpoint,
        FailStage, //
    },
    history::history_scan,
    pipeline::{
        run_sentinel,
        Options, //
    },
    sentinel::SentinelConfig,
    suppress::SuppressStore,
};
use vc_ir::Program;
use vc_obs::{
    profile::PANICKED_SUFFIX,
    FoldedProfile,
    ObsSession,
    Weight, //
};
use vc_workload::{
    faults::PANIC_NEEDLE,
    generate,
    generate_delta,
    generate_life,
    inject_faults,
    AppProfile,
    DeltaProfile,
    LifeProfile, //
};

/// The same wrapper `vcheck` installs: every allocation in this test binary
/// is counted and scope-attributed.
#[global_allocator]
static ALLOC: vc_obs::CountingAlloc = vc_obs::CountingAlloc;

fn build_app(seed: u64) -> (Program, vc_vcs::Repository) {
    let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
    profile.seed = seed.wrapping_mul(9973) ^ 0x9F0F;
    profile.name = format!("profiled{seed}");
    let app = generate(&profile);
    let (prog, errors, _) = Program::build_recovering(&app.source_refs(), &app.defines);
    assert!(errors.is_empty(), "clean app must build cleanly");
    (prog, app.repo)
}

#[test]
fn logical_folded_stacks_are_byte_identical_across_jobs() {
    let (prog, repo) = build_app(1);
    let mut renders: Vec<String> = Vec::new();
    for jobs in [1usize, 4] {
        let sconf = SentinelConfig {
            jobs,
            ..SentinelConfig::default()
        };
        let obs = ObsSession::new();
        let analysis = run_sentinel(&prog, &repo, &Options::paper(), &sconf, obs.clone());
        assert!(!analysis.report.rows.is_empty());
        let folded = FoldedProfile::logical(&obs.tracer.records());
        // The canonical view splices out `sentinel.worker.N` frames and
        // grafts the per-unit spans under the detect stage, so the stack
        // set and sample counts cannot depend on scheduling. Wall-clock
        // weights do vary run to run; sample weights must not.
        renders.push(folded.render(Weight::Samples));
    }
    assert_eq!(
        renders[0], renders[1],
        "logical folded stacks must be byte-identical for --jobs 1 vs --jobs 4"
    );
    assert!(
        renders[0].contains("pipeline.run;stage.detect;unit."),
        "unit frames graft under the detect stage:\n{}",
        renders[0]
    );
}

#[test]
fn per_root_self_times_sum_to_root_duration_within_tolerance() {
    let (prog, repo) = build_app(2);
    let sconf = SentinelConfig {
        jobs: 4,
        ..SentinelConfig::default()
    };
    let obs = ObsSession::new();
    run_sentinel(&prog, &repo, &Options::paper(), &sconf, obs.clone());
    let folded = FoldedProfile::from_records(&obs.tracer.records());
    assert!(!folded.roots().is_empty());
    for root in folded.roots() {
        // Acceptance bound: within 5 % of the root span's wall time (plus
        // 1 µs of truncation slack per boundary for micro-roots).
        let tolerance = (root.dur_us / 20).max(2);
        let drift = root.dur_us.abs_diff(root.self_sum_us);
        assert!(
            drift <= tolerance,
            "root {}: self-time sum {}us vs duration {}us (drift {}us > {}us)",
            root.name,
            root.self_sum_us,
            root.dur_us,
            drift,
            tolerance
        );
    }
}

#[test]
fn mem_high_water_metrics_are_recorded() {
    let (prog, repo) = build_app(3);
    let obs = ObsSession::new();
    let sequential = SentinelConfig::sequential();
    run_sentinel(&prog, &repo, &Options::paper(), &sequential, obs.clone());
    let snap = obs.registry.snapshot();

    // The global allocator is installed in this binary, so every pipeline
    // stage flushed its attribution window.
    assert!(
        snap.gauges
            .iter()
            .any(|(k, v)| k == vc_obs::names::MEM_HIGH_WATER_BYTES && *v > 0.0),
        "global high-water gauge missing: {:?}",
        snap.gauges
    );
    for scope in ["detect", "authorship", "prune", "rank"] {
        let name = vc_obs::names::mem(scope, "live_peak_bytes");
        assert!(
            snap.histograms
                .iter()
                .any(|(k, h)| *k == name && h.count > 0),
            "per-stage high-water histogram {name} missing"
        );
    }
    // And the exported JSON (what `--metrics-json` writes) carries them.
    let json = snap.to_json().to_string();
    assert!(json.contains(vc_obs::names::MEM_HIGH_WATER_BYTES));
    assert!(json.contains("mem.detect.alloc_bytes"));

    // The trace gained live-byte counter tracks for the Chrome exporter.
    assert!(!obs.tracer.counters().is_empty());
}

#[test]
fn every_emitted_metric_name_is_registered() {
    // A full parallel scan...
    let (prog, repo) = build_app(4);
    let sconf = SentinelConfig {
        jobs: 2,
        ..SentinelConfig::default()
    };
    let obs = ObsSession::new();
    run_sentinel(&prog, &repo, &Options::paper(), &sconf, obs.clone());
    // ...plus a differential scan, so `delta.*` names are exercised too.
    let w = generate_delta(&DeltaProfile::default());
    delta_scan(
        &w.repo,
        (w.from, w.to),
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        &HashSet::new(),
        obs.clone(),
    )
    .expect("delta workload must build");
    // ...plus a lifecycle replay, covering `life.*` and `suppress.*`.
    let life = generate_life(&LifeProfile::default());
    history_scan(
        &life.repo,
        &[],
        &Options::paper(),
        &SentinelConfig::default(),
        SuppressStore::default(),
        obs.clone(),
    )
    .expect("life workload must build at every commit");

    let snap = obs.registry.snapshot();
    let names: Vec<&String> = snap
        .counters
        .iter()
        .map(|(k, _)| k)
        .chain(snap.gauges.iter().map(|(k, _)| k))
        .chain(snap.histograms.iter().map(|(k, _)| k))
        .collect();
    assert!(
        names.len() > 20,
        "the sweep must see a representative metric surface, got {names:?}"
    );
    let strays: Vec<&&String> = names
        .iter()
        .filter(|n| !vc_obs::names::is_known(n))
        .collect();
    assert!(
        strays.is_empty(),
        "metric names emitted outside vc_obs::names: {strays:?}"
    );
}

#[test]
fn panicking_unit_flushes_its_span_with_a_panicked_tag() {
    let mut profile = AppProfile::nfs_ganesha().scaled(0.05);
    profile.seed = 0xBAD5EED;
    profile.name = "profilefault".to_string();
    let mut app = generate(&profile);
    inject_faults(&mut app, 11);
    let _fp = arm_failpoint(FailStage::Detect, PANIC_NEEDLE);

    let (prog, _errors, _) = Program::build_recovering(&app.source_refs(), &app.defines);
    let sconf = SentinelConfig {
        jobs: 2,
        ..SentinelConfig::default()
    };
    let obs = ObsSession::new();
    run_sentinel(&prog, &app.repo, &Options::paper(), &sconf, obs.clone());

    // The failpoint panicked inside the isolation boundary; the unit's open
    // span must still have been flushed, tagged.
    let records = obs.tracer.records();
    let panicked: Vec<_> = records.iter().filter(|r| r.panicked).collect();
    assert!(
        !panicked.is_empty(),
        "no span was flushed during the injected panic"
    );
    assert!(
        panicked
            .iter()
            .all(|r| r.name.starts_with("unit.") && r.name.contains(PANIC_NEEDLE)),
        "only the poisoned unit's spans may carry the panicked flag: {panicked:?}"
    );
    assert_eq!(panicked.len(), 1, "the poisoned unit runs once");
    // Healthy spans stay untagged.
    assert!(records
        .iter()
        .any(|r| r.name.starts_with("unit.") && !r.panicked));

    // And the folded profile renders them as partial frames with the
    // flamegraph annotation suffix.
    let folded = FoldedProfile::from_records(&records);
    assert!(
        folded.stacks().keys().any(|k| k.ends_with(PANICKED_SUFFIX)),
        "panicked frames must appear in the folded profile"
    );
}
