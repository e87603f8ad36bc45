//! Integration contract of `vcheck serve` telemetry and `vcheck tail`,
//! against the real binary (see DESIGN.md §16).
//!
//! - `{"op":"status"}` works before the first scan: well-formed reply,
//!   `null` percentiles (never NaN or a panic), exit 0 on shutdown;
//! - `--trace` / `--metrics-json` flush on shutdown with the same export
//!   schemas as batch `vcheck scan`;
//! - `--event-log` appends one record per request; `vcheck tail` renders
//!   the stream with `--since` / `--op` / `--json` filters and exits 2 on
//!   a missing log.

use std::{
    fs,
    io::Write,
    path::Path,
    process::{Command, Output, Stdio},
};

use vc_obs::Json;

mod common {
    pub mod tree;
}
use common::tree::write_tree;

const BUGGY_FN: &str = "int lib_a(void);\n\
                        int has_bug(void) {\n\
                        int got = lib_a();\n\
                        got = 2;\n\
                        return got;\n\
                        }\n";

/// Runs `vcheck serve` over the given request lines, returning the exit
/// code and one parsed reply per line.
fn serve(dir: &Path, extra_args: &[&str], requests: &[&str]) -> (i32, Vec<Json>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg("serve")
        .arg(dir)
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("vcheck serve spawns");
    {
        let stdin = child.stdin.as_mut().unwrap();
        for line in requests {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let out = child.wait_with_output().expect("serve reaped");
    let replies = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| vc_obs::json::parse(l).expect("reply is JSON"))
        .collect();
    (out.status.code().unwrap_or(-1), replies)
}

fn tail(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg("tail")
        .args(args)
        .output()
        .expect("vcheck tail runs")
}

#[test]
fn status_before_first_scan_is_well_formed_and_exits_zero() {
    let dir = write_tree("serve-it-coldstatus", &[("a.c", BUGGY_FN)]);
    let (code, replies) = serve(&dir, &[], &["{\"op\":\"status\"}", "{\"op\":\"shutdown\"}"]);
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 2);
    let status = &replies[0];
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(status.get("warm").and_then(Json::as_bool), Some(false));
    assert_eq!(
        status.get("schema_version").and_then(Json::as_i64),
        Some(vc_obs::METRICS_SCHEMA_VERSION)
    );
    assert!(status.get("uptime_ms").and_then(Json::as_i64).is_some());
    assert_eq!(status.get("trace_id").and_then(Json::as_i64), Some(1));
    // No scan has ever run: scan/update percentiles are null, not NaN.
    for op in ["scan", "update"] {
        let o = status.get("ops").and_then(|ops| ops.get(op)).unwrap();
        assert_eq!(o.get("count").and_then(Json::as_i64), Some(0), "{op}");
        for pct in ["p50_us", "p95_us", "p99_us"] {
            assert_eq!(o.get(pct), Some(&Json::Null), "{op}.{pct}");
        }
    }
    let text = status.to_string();
    assert!(!text.contains("NaN") && !text.contains("nan"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_files_flush_and_tail_renders_the_event_log() {
    let dir = write_tree("serve-it-flush", &[("a.c", BUGGY_FN)]);
    let trace = dir.join("serve.trace.json");
    let metrics = dir.join("serve.metrics.json");
    let log = dir.join("serve.events");
    let (code, replies) = serve(
        &dir,
        &[
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-json",
            metrics.to_str().unwrap(),
            "--event-log",
            log.to_str().unwrap(),
        ],
        &[
            "{\"op\":\"scan\"}",
            "not even json",
            "{\"op\":\"status\"}",
            "{\"op\":\"shutdown\"}",
        ],
    );
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 4);
    // Every reply — ok, error, status, shutdown — carries its trace id.
    let ids: Vec<i64> = replies
        .iter()
        .map(|r| r.get("trace_id").and_then(Json::as_i64).unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3, 4]);
    // The status funnel balances mid-stream: 3 requests so far, 1 error.
    let counters = replies[2].get("counters").unwrap();
    let c = |n: &str| counters.get(n).and_then(Json::as_i64).unwrap();
    assert_eq!(
        c("serve.requests"),
        c("serve.replies") + c("serve.shed") + c("serve.errors") + c("serve.quarantined")
    );
    assert_eq!(c("serve.errors"), 1);
    assert_eq!(
        replies[2].get("event_log_dropped").and_then(Json::as_i64),
        Some(0)
    );

    // Metrics flush: the batch export schema, serve histograms included.
    let m = vc_obs::json::parse(&fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        m.get("schema_version").and_then(Json::as_i64),
        Some(vc_obs::METRICS_SCHEMA_VERSION)
    );
    assert_eq!(
        m.get("env").and_then(Json::as_str),
        Some(vc_obs::env_fingerprint().as_str())
    );
    assert!(m
        .get("histograms")
        .and_then(|h| h.get("serve.latency.scan"))
        .is_some());

    // Trace flush: Chrome trace_event JSON with the request span tree.
    let t = fs::read_to_string(&trace).unwrap();
    for span in ["serve.request", "serve.parse", "pipeline.run"] {
        assert!(t.contains(span), "trace missing {span}");
    }

    // `vcheck tail` renders every request, oldest first.
    let out = tail(&[log.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert!(lines[0].contains("trace=1") && lines[0].contains("scan"));
    assert!(lines[1].contains("error"), "{}", lines[1]);
    assert!(lines[3].contains("shutdown"));

    // --op filters to one op; --json emits the raw records.
    let out = tail(&[log.to_str().unwrap(), "--op", "scan"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("raw="), "scan records carry funnel deltas");
    let out = tail(&[log.to_str().unwrap(), "--op", "scan", "--json"]);
    let text = String::from_utf8(out.stdout).unwrap();
    let rec = vc_obs::json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(rec.get("op").and_then(Json::as_str), Some("scan"));
    assert_eq!(rec.get("outcome").and_then(Json::as_str), Some("ok"));
    assert!(rec.get("funnel").is_some());

    // --since 0 means "events newer than now": nothing qualifies.
    let out = tail(&[log.to_str().unwrap(), "--since", "0"]);
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "");
    // A generous window keeps everything.
    let out = tail(&[log.to_str().unwrap(), "--since", "3600"]);
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), 4);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tail_of_a_missing_log_exits_two() {
    let out = tail(&["/nonexistent/serve.events"]);
    assert_eq!(out.status.code(), Some(2));
}
