//! The traced run's ledger: on every workload `unattributed_ms` equals what
//! the Chrome trace alone leaves uncovered (each operation's span minus the
//! union of the ledger layer spans under it, so overlapping or
//! double-counted layers fail), the unattributed share stays under the
//! workload's stated bound, every span links to an earlier parent, and
//! every metric `BENCHMARK.json` names is printed with its unit.

use std::path::PathBuf;

use repobench::{
    alloc::WindowAlloc,
    run::{
        run,
        Config,
        Workload,
        END_TO_END,
        PER_LAYER, //
    },
};
use vc_obs::Json;

#[global_allocator]
static ALLOC: WindowAlloc = WindowAlloc;

fn config(workload: Workload) -> Config {
    let work_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ledger-{}", workload.name()));
    let _ = std::fs::remove_dir_all(&work_dir);
    Config {
        workload,
        seed: 7,
        seconds: 1.0,
        small: true,
        work_dir,
    }
}

#[test]
fn layers_reconstruct_the_traced_operation() {
    for workload in Workload::ALL {
        let cfg = config(workload);
        let out = run(&cfg, true).unwrap();
        let name = workload.name();
        assert_eq!(
            out.tally.failed, 0,
            "{name}: every output passes its oracle"
        );
        assert!(out.tally.attempted > 0);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{name}: every per-layer metric, in order");

        let metric = |m: &str| out.metric(m).unwrap();
        let traced = metric("traced_op_ms");
        let unattributed = metric("unattributed_ms");
        assert!(traced > 0.0, "{name}");

        let ledger = out.ledger.as_ref().unwrap();
        for (id, span) in ledger.spans().iter().enumerate() {
            match span.parent {
                Some(p) => assert!(p < id, "{name}: span {id} links to a later parent"),
                None => assert!(
                    span.cat == "op" || span.cat == "probe",
                    "{name}: a {} span is a root",
                    span.cat
                ),
            }
        }
        let chrome = ledger.to_chrome_json().to_string();
        let parsed = vc_obs::json::parse(&chrome).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), ledger.spans().len());
        let from_trace = unattributed_from_trace(events, workload.ledger(), name);
        assert!(
            (from_trace - unattributed).abs() <= 1e-6 * traced + 1e-3,
            "{name}: trace leaves {from_trace} ms uncovered, ledger says {unattributed} ms"
        );
        let share = unattributed / traced;
        assert!(
            (0.0..workload.unattributed_max_share()).contains(&share),
            "{name}: unattributed share {share:.3} outside [0, {})",
            workload.unattributed_max_share()
        );
        assert!(metric("trace_overhead") > 0.0, "{name}");
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
    }
}

/// Mean over operations of the time no ledger layer covers, from the
/// Chrome trace alone: an operation span's duration minus the union of the
/// spans below it whose metric is in `ledger`. Also checks that each such
/// span lies inside its operation.
fn unattributed_from_trace(events: &[Json], ledger: &[&str], name: &str) -> f64 {
    struct Ev<'a> {
        cat: &'a str,
        parent: Option<usize>,
        ts: f64,
        dur: f64,
        metric: Option<&'a str>,
    }
    let num = |e: &Json, k: &str| match e.get(k) {
        Some(Json::Float(f)) => *f,
        Some(Json::Int(i)) => *i as f64,
        other => panic!("{name}: `{k}` is {other:?}"),
    };
    let evs: Vec<Ev> = events
        .iter()
        .map(|e| {
            let args = e.get("args").unwrap();
            Ev {
                cat: e.get("cat").and_then(Json::as_str).unwrap(),
                parent: args
                    .get("parent")
                    .and_then(Json::as_i64)
                    .map(|p| p as usize),
                ts: num(e, "ts"),
                dur: num(e, "dur"),
                metric: args.get("metric").and_then(Json::as_str),
            }
        })
        .collect();
    let root = |mut id: usize| {
        while let Some(p) = evs[id].parent {
            id = p;
        }
        id
    };
    let mut layers: Vec<Vec<(f64, f64)>> = evs.iter().map(|_| Vec::new()).collect();
    for (id, e) in evs.iter().enumerate() {
        if e.metric.is_some_and(|m| ledger.contains(&m)) {
            layers[root(id)].push((e.ts, e.ts + e.dur));
        }
    }
    let mut total = 0.0;
    let mut ops = 0;
    for (id, e) in evs.iter().enumerate().filter(|(_, e)| e.cat == "op") {
        let spans = &mut layers[id];
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for &(start, end) in spans.iter() {
            assert!(
                start >= e.ts - 5.0 && end <= e.ts + e.dur + 5.0,
                "{name}: layer [{start}, {end}] outside its operation [{}, {}]",
                e.ts,
                e.ts + e.dur
            );
            covered += (end - start.max(reach)).max(0.0);
            reach = reach.max(end);
        }
        total += (e.dur - covered) / 1e3;
        ops += 1;
    }
    assert!(ops > 0, "{name}: no operation in the trace");
    total / ops as f64
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let cfg = config(Workload::ServeEdit);
    let out = run(&cfg, false).unwrap();
    assert_eq!(out.tally.failed, 0);
    for (name, unit) in END_TO_END {
        let (_, value, u) = out.metrics.iter().find(|(n, _, _)| n == name).unwrap();
        assert_eq!(u, unit);
        assert!(*value > 0.0, "{name} must never read zero");
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc = vc_obs::json::parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
