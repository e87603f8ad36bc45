//! Per-stage costs of the pipeline on one workload: parsing+lowering,
//! liveness, pointer analysis, detection, authorship, pruning, ranking.
//! Backs the Table 7 discussion of where the time goes.
//!
//! Run with `cargo bench -p vc-bench --bench analysis_stages`; results
//! print as a table and land in `BENCH_analysis_stages.json`.

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
    rank::{
        rank,
        RankConfig, //
    },
};
use vc_bench::harness::Harness;
use vc_dataflow::{
    liveness::live_variables,
    summary::{
        SigInterner,
        Summaries, //
    },
};
use vc_ir::{
    cfg::Cfg,
    Program, //
};
use vc_pointer::PointsTo;
use vc_workload::{
    generate,
    AppProfile, //
};

fn main() {
    let profile = AppProfile::openssl().scaled(0.15);
    let app = generate(&profile);
    let sources = app.source_refs();
    let prog = Program::build(&sources, &app.defines).expect("workload builds");

    let mut h = Harness::new("analysis_stages");
    h.group("analysis_stages").sample_size(20);

    h.bench("parse_and_lower", || {
        Program::build(&sources, &app.defines).expect("builds")
    });

    h.bench("liveness_all_functions", || {
        let mut total = 0usize;
        for f in &prog.funcs {
            let cfg = Cfg::new(f);
            total += live_variables(f, &cfg).iterations;
        }
        total
    });

    h.bench("pointer_analysis", || PointsTo::solve(&prog).fact_count());

    h.bench("detection", || {
        detect_program(&prog, DetectConfig::default()).len()
    });

    let candidates = detect_program(&prog, DetectConfig::default());
    h.bench("authorship_lookup", || {
        let sites = CallSites::asked(&prog, &candidates);
        let ctx = AuthorshipCtx::new(&prog, &app.repo, &sites);
        ctx.attribute_all(candidates.clone()).len()
    });

    let sites = CallSites::all(&prog);
    let ctx = AuthorshipCtx::new(&prog, &app.repo, &sites);
    let attributed: Vec<_> = ctx
        .attribute_all(candidates)
        .into_iter()
        .filter(|a| a.cross_scope)
        .collect();
    h.bench("pruning", || {
        let mut summaries = Summaries::default();
        let peers =
            PeerStats::compute_with(&prog, SigInterner::new(&prog), &mut summaries, None, &sites);
        prune(
            &prog,
            &PruneConfig::default(),
            &peers,
            &summaries,
            attributed.clone(),
        )
        .kept
        .len()
    });

    let mut summaries = Summaries::default();
    let peers =
        PeerStats::compute_with(&prog, SigInterner::new(&prog), &mut summaries, None, &sites);
    let kept = prune(
        &prog,
        &PruneConfig::default(),
        &peers,
        &summaries,
        attributed,
    )
    .kept;
    h.bench("familiarity_ranking", || {
        rank(&prog, &app.repo, &RankConfig::default(), kept.clone()).len()
    });

    h.finish();
}
