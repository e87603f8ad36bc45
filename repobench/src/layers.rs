//! Probes shared by the workloads: extra public calls, made after an
//! operation has ended, that split or explain one of its layers. Each
//! helper wraps its calls in [`Ledger`] probe spans and adds the values to
//! the operation's record.

use std::hint::black_box;

use valuecheck::{
    detect::detect_program_hardened,
    pipeline::Options, //
};
use vc_dataflow::summary::{
    build_summary,
    SigInterner, //
};
use vc_ir::{
    lexer::lex_recovering,
    parser::parse_recovering,
    FileId,
    FuncId,
    Program, //
};
use vc_obs::{
    names,
    ObsSession, //
};
use vc_pointer::DemandPointer;

use crate::ledger::Ledger;

/// Program spans `pipeline::run_sentinel` records, with the per-layer
/// metrics each counts toward (see [`Ledger::adopt`]).
pub const PIPELINE_SPANS: &[(&str, &[&str])] = &[
    ("pipeline.run", &[]),
    ("stage.detect", &["sentinel.detect_ms"]),
    ("stage.authorship", &["authorship.ms"]),
    ("stage.prune", &["prune.ms"]),
    ("stage.rank", &["rank.ms"]),
];

/// Program spans `history::history_scan` records: its own root plus one
/// pipeline run per commit.
pub const HISTORY_SPANS: &[(&str, &[&str])] = &[
    ("history.scan", &[]),
    ("pipeline.run", &[]),
    ("stage.detect", &["sentinel.detect_ms"]),
    ("stage.authorship", &["authorship.ms"]),
    ("stage.prune", &["prune.ms"]),
    ("stage.rank", &["rank.ms"]),
];

/// Adds the candidate funnel of one pipeline run: raw candidates, those
/// left after the cross-scope filter, and those pruned.
pub fn funnel(l: &mut Ledger, raw: u64, cross_scope: u64, pruned: u64) {
    l.add("n.candidates", raw as f64);
    l.add("n.cross_scope", cross_scope as f64);
    l.add("n.pruned", pruned as f64);
}

/// Splits a front-end build of `sources` that took `build_ms` into
/// `ir.lex_ms` (lexing alone), `ir.parse_ms` (parsing with recovery minus
/// lexing) and `ir.lower_ms` (the build minus parsing), so the three add up
/// to the build. Also records the token count.
pub fn split_front_end(l: &mut Ledger, group: usize, sources: &[(&str, &str)], build_ms: f64) {
    let (tokens, lex_ms) = l.probe("ir.lex_recovering", group, || {
        sources
            .iter()
            .enumerate()
            .map(|(i, (_, src))| lex_recovering(FileId(i as u32), src).0.len())
            .sum::<usize>()
    });
    let (_, parse_ms) = l.probe("ir.parse_recovering", group, || {
        for (i, (_, src)) in sources.iter().enumerate() {
            black_box(parse_recovering(FileId(i as u32), src));
        }
    });
    l.add("ir.lex_ms", lex_ms);
    l.add("ir.parse_ms", parse_ms - lex_ms);
    l.add("ir.lower_ms", build_ms - parse_ms);
    l.add("ir.tokens", tokens as f64);
}

/// Records the size of a built program.
pub fn program_counts(l: &mut Ledger, prog: &Program) {
    l.add("ir.functions", prog.funcs.len() as f64);
    l.add("ir.insts", prog.inst_count() as f64);
}

/// Sub-parts of detection, measured on their own: the sequential detector
/// (`detect.ms`, for `sentinel.speedup`), the pointer partition, and one
/// dataflow summary per function.
pub fn detect_probes(l: &mut Ledger, group: usize, prog: &Program, opts: &Options) {
    let obs = ObsSession::new();
    let (raw, ms) = l.probe("detect.detect_program_hardened", group, || {
        let _g = obs.install();
        detect_program_hardened(prog, opts.detect, opts.harden)
            .candidates
            .len()
    });
    l.add("detect.ms", ms);
    l.add("detect.raw_candidates", raw as f64);
    l.add(
        "n.pointer_solves",
        obs.registry.counter(names::POINTER_SOLVES) as f64,
    );

    let (components, ms) = l.probe("pointer.DemandPointer::new", group, || {
        partition_components(prog, opts)
    });
    l.add("pointer.partition_ms", ms);
    l.add("n.pointer_components", components as f64);

    let obs = ObsSession::new();
    let (_, ms) = l.probe("dataflow.build_summary", group, || {
        let _g = obs.install();
        let sigs = SigInterner::new(prog);
        for (i, f) in prog.funcs.iter().enumerate() {
            black_box(build_summary(
                f,
                sigs.sig_of(FuncId(i as u32)),
                opts.harden.liveness_budget,
            ));
        }
    });
    l.add("dataflow.summary_ms", ms);
    l.add(
        "dataflow.fixpoint_iterations",
        obs.registry.counter(names::DATAFLOW_FIXPOINT_ITERATIONS) as f64,
    );
}

/// Partitions `prog` into pointer-closed components, as detection does on
/// every run, and returns the component count.
pub fn partition_components(prog: &Program, opts: &Options) -> usize {
    DemandPointer::new(
        prog,
        vc_pointer::Config {
            field_sensitive: opts.detect.field_sensitive_pointers,
            budget: opts.harden.pointer_budget,
        },
        opts.harden.isolate,
    )
    .component_count()
}
