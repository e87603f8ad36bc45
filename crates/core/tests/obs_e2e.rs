//! End-to-end observability test: runs the full pipeline on the paper's
//! Figure 1a / Figure 8 programs with a two-author history and checks that
//! the recorded metrics tell a consistent story — the candidate funnel
//! adds up, the analysis-layer counters are live, and the exported Chrome
//! trace parses and nests correctly.

use valuecheck::{
    pipeline::{
        run_sentinel,
        Options, //
    },
    sentinel::SentinelConfig,
};
use vc_ir::Program;
use vc_obs::{
    Json,
    ObsSession, //
};
use vc_vcs::{
    FileWrite,
    Repository, //
};

/// The Figure 1a + Figure 8 programs with a two-author history (author 2
/// rewrites the overwriting lines, making both bugs cross-scope). The
/// trailing `dispatch` function stores the result of an *indirect* call
/// into a dead local, so the demand pointer oracle must solve its
/// component — keeping the `pointer.*` counters and the `pointer.solve`
/// span live now that functions without indirect calls never touch the
/// pointer stage.
fn two_author_setup() -> (Program, Repository) {
    let src = "int next_attr(int *bm);\n\
               int get_permset(void);\n\
               int calc_mask(void);\n\
               int conv(int *bm) {\n\
               int attr = next_attr(bm);\n\
               for (attr = next_attr(bm); attr != -1; attr = next_attr(bm)) { use(attr); }\n\
               return 0;\n\
               }\n\
               void acl(void) {\n\
               int ret = get_permset();\n\
               ret = calc_mask();\n\
               if (ret) { handle(); }\n\
               }\n\
               int ha(void) { return 1; }\n\
               void dispatch(void) {\n\
               int fp = ha;\n\
               int r = fp();\n\
               r = 7;\n\
               use(r);\n\
               }\n";
    let prog = Program::build(&[("nfs.c", src)], &[]).unwrap();
    let mut repo = Repository::new();
    let author1 = repo.add_author("author1");
    let author2 = repo.add_author("author2");
    repo.commit(
        author1,
        1_000,
        "original implementation",
        vec![FileWrite {
            path: "nfs.c".into(),
            content: src.to_string(),
        }],
    );
    let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
    lines[5] = format!("{} ", lines[5]);
    lines[10] = format!("{} ", lines[10]);
    repo.commit(
        author2,
        2_000,
        "rework loop and mask computation",
        vec![FileWrite {
            path: "nfs.c".into(),
            content: lines.join("\n") + "\n",
        }],
    );
    (prog, repo)
}

#[test]
fn funnel_counters_are_consistent_with_the_analysis() {
    let (prog, repo) = two_author_setup();
    let obs = ObsSession::new();
    let sequential = SentinelConfig::sequential();
    let analysis = run_sentinel(&prog, &repo, &Options::paper(), &sequential, obs.clone());
    let snap = obs.registry.snapshot();

    let raw = snap.counter("funnel.raw");
    let cross = snap.counter("funnel.cross_scope");
    let reported = snap.counter("funnel.reported");
    let pruned: u64 = valuecheck::prune::PruneReason::ALL
        .iter()
        .map(|r| snap.counter(&format!("funnel.pruned.{}", r.label())))
        .sum();

    // The funnel narrows and balances: everything cross-scope is either
    // pruned or reported.
    assert!(raw >= cross, "raw {raw} < cross {cross}");
    assert!(cross >= reported, "cross {cross} < reported {reported}");
    assert_eq!(cross, pruned + reported, "funnel leak");

    // And it matches the analysis result itself.
    assert_eq!(raw, analysis.raw_candidates as u64);
    assert_eq!(cross, analysis.cross_scope_candidates as u64);
    assert_eq!(reported, analysis.detected() as u64);
    assert!(reported >= 2, "Fig. 1a + Fig. 8 report attr and ret");
}

#[test]
fn analysis_layers_record_nonzero_counters() {
    let (prog, repo) = two_author_setup();
    let obs = ObsSession::new();
    let sequential = SentinelConfig::sequential();
    let _ = run_sentinel(&prog, &repo, &Options::paper(), &sequential, obs.clone());
    let snap = obs.registry.snapshot();

    assert!(snap.counter("dataflow.solves") > 0);
    assert!(snap.counter("dataflow.fixpoint_iterations") > 0);
    assert!(snap.counter("dataflow.worklist_pushes") > 0);
    assert!(snap.counter("pointer.solves") > 0);
    assert!(snap.counter("pointer.nodes") > 0);
    assert!(snap.counter("detect.functions") >= 2, "conv and acl");

    // The metrics snapshot exports as JSON that our own parser accepts.
    let text = snap.to_json().to_string_pretty();
    let parsed = vc_obs::json::parse(&text).expect("metrics JSON parses");
    assert!(parsed.get("counters").is_some());
    assert!(parsed.get("histograms").is_some());
}

#[test]
fn chrome_trace_parses_and_spans_nest() {
    let (prog, repo) = two_author_setup();
    let obs = ObsSession::new();
    let sequential = SentinelConfig::sequential();
    let _ = run_sentinel(&prog, &repo, &Options::paper(), &sequential, obs.clone());

    // The exported trace is valid JSON with the Chrome trace_event shape.
    let text = obs.tracer.to_chrome_json().to_string_pretty();
    let parsed = vc_obs::json::parse(&text).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("ts").and_then(Json::as_i64).is_some());
        assert!(ev.get("dur").and_then(Json::as_i64).is_some());
    }

    // The pipeline.run span contains every stage span.
    let records = obs.tracer.records();
    let root = records
        .iter()
        .find(|r| r.name == "pipeline.run")
        .expect("root span");
    for stage in [
        "stage.detect",
        "stage.authorship",
        "stage.prune",
        "stage.rank",
    ] {
        let s = records
            .iter()
            .find(|r| r.name == stage)
            .unwrap_or_else(|| panic!("missing span {stage}"));
        assert!(root.contains(s), "{stage} escapes pipeline.run");
        assert!(s.depth > root.depth, "{stage} not nested under root");
    }

    // Pointer solving happens inside detection.
    let detect = records.iter().find(|r| r.name == "stage.detect").unwrap();
    let psolve = records
        .iter()
        .find(|r| r.name == "pointer.solve")
        .expect("pointer.solve span");
    assert!(detect.contains(psolve), "pointer.solve escapes detection");

    // Stage spans never overlap each other (they are sequential).
    let stages: Vec<_> = records
        .iter()
        .filter(|r| r.name.starts_with("stage."))
        .collect();
    for (i, a) in stages.iter().enumerate() {
        for b in stages.iter().skip(i + 1) {
            let a_end = a.start_us + a.dur_us;
            let b_end = b.start_us + b.dur_us;
            assert!(
                a_end <= b.start_us || b_end <= a.start_us,
                "{} and {} overlap",
                a.name,
                b.name
            );
        }
    }
}
