//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - field-sensitive vs field-insensitive pointer analysis (§4.1 cites
//!   Andersen's field-sensitive variant for scalability);
//! - alias analysis on/off in detection;
//! - pruning-pipeline order sensitivity (Fig. 2 applies Config → Cursor →
//!   Hints → Peer);
//! - the peer-definition thresholds (">10 occurrences", ">50% unused").
//!
//! Run with `cargo bench -p vc-bench --bench ablations`; results print as
//! a table and land in `BENCH_ablations.json`.

use valuecheck::{
    authorship::AuthorshipCtx,
    candidate::CallSites,
    detect::{
        detect_program,
        DetectConfig, //
    },
    prune::{
        prune,
        PeerStats,
        PruneConfig, //
    },
};
use vc_bench::harness::Harness;
use vc_dataflow::summary::{
    SigInterner,
    Summaries, //
};
use vc_ir::Program;
use vc_pointer::{
    Config as PtConfig,
    PointsTo, //
};
use vc_workload::{
    generate,
    AppProfile, //
};

fn pointer_field_sensitivity(h: &mut Harness) {
    let app = generate(&AppProfile::mysql().scaled(0.05));
    let sources = app.source_refs();
    let prog = Program::build(&sources, &app.defines).expect("workload builds");
    h.group("andersen_field_sensitivity").sample_size(20);
    for (label, fs) in [("field_sensitive", true), ("field_insensitive", false)] {
        h.bench(label, || {
            PointsTo::solve_with(
                &prog,
                PtConfig {
                    field_sensitive: fs,
                    ..PtConfig::default()
                },
            )
            .fact_count()
        });
    }
}

fn detection_alias_ablation(h: &mut Harness) {
    let app = generate(&AppProfile::openssl().scaled(0.1));
    let sources = app.source_refs();
    let prog = Program::build(&sources, &app.defines).expect("workload builds");
    h.group("detection_alias_analysis").sample_size(20);
    for (label, alias) in [("with_alias", true), ("without_alias", false)] {
        h.bench(label, || {
            detect_program(
                &prog,
                DetectConfig {
                    use_alias_analysis: alias,
                    field_sensitive_pointers: true,
                },
            )
            .len()
        });
    }
}

fn peer_thresholds(h: &mut Harness) {
    let app = generate(&AppProfile::nfs_ganesha().scaled(0.3));
    let sources = app.source_refs();
    let prog = Program::build(&sources, &app.defines).expect("workload builds");
    let candidates = detect_program(&prog, DetectConfig::default());
    let sites = CallSites::all(&prog);
    let ctx = AuthorshipCtx::new(&prog, &app.repo, &sites);
    let attributed: Vec<_> = ctx
        .attribute_all(candidates)
        .into_iter()
        .filter(|a| a.cross_scope)
        .collect();
    let mut summaries = Summaries::default();
    let peers =
        PeerStats::compute_with(&prog, SigInterner::new(&prog), &mut summaries, None, &sites);

    h.group("peer_threshold_sweep").sample_size(20);
    for min_occ in [2usize, 5, 10, 20] {
        let config = PruneConfig {
            peer_min_occurrences: min_occ,
            ..PruneConfig::default()
        };
        h.bench(&min_occ.to_string(), || {
            prune(&prog, &config, &peers, &summaries, attributed.clone())
                .kept
                .len()
        });
    }
}

fn prune_order(h: &mut Harness) {
    // The pipeline order affects attribution, not the surviving set; this
    // bench measures the cost of each single-pruner configuration.
    let app = generate(&AppProfile::linux().scaled(0.2));
    let sources = app.source_refs();
    let prog = Program::build(&sources, &app.defines).expect("workload builds");
    let candidates = detect_program(&prog, DetectConfig::default());
    let sites = CallSites::all(&prog);
    let ctx = AuthorshipCtx::new(&prog, &app.repo, &sites);
    let attributed: Vec<_> = ctx
        .attribute_all(candidates)
        .into_iter()
        .filter(|a| a.cross_scope)
        .collect();
    let mut summaries = Summaries::default();
    let peers =
        PeerStats::compute_with(&prog, SigInterner::new(&prog), &mut summaries, None, &sites);

    let configs: [(&str, PruneConfig); 5] = [
        ("all", PruneConfig::default()),
        ("only_config", only(|c| c.config_dependency = true)),
        ("only_cursor", only(|c| c.cursor = true)),
        ("only_hints", only(|c| c.unused_hints = true)),
        ("only_peer", only(|c| c.peer_definitions = true)),
    ];
    h.group("prune_single_pattern").sample_size(20);
    for (label, config) in configs {
        h.bench(label, || {
            prune(&prog, &config, &peers, &summaries, attributed.clone())
                .kept
                .len()
        });
    }
}

fn only(enable: impl Fn(&mut PruneConfig)) -> PruneConfig {
    let mut c = PruneConfig {
        config_dependency: false,
        cursor: false,
        unused_hints: false,
        peer_definitions: false,
        ..PruneConfig::default()
    };
    enable(&mut c);
    c
}

fn main() {
    let mut h = Harness::new("ablations");
    pointer_field_sensitivity(&mut h);
    detection_alias_ablation(&mut h);
    peer_thresholds(&mut h);
    prune_order(&mut h);
    h.finish();
}
