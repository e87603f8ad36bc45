//! End-to-end proof that the perf gate actually gates: a fresh run passes
//! against its own baseline, and an injected (failpoint-style) slowdown
//! makes the `perfgate` binary exit nonzero.

use std::{
    path::{
        Path,
        PathBuf, //
    },
    process::Command, //
};

use vc_bench::perf::{
    run_perf,
    run_serve_bench,
    set_injected_slowdown_ms,
    PerfConfig,
    ServeBenchConfig, //
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc-perfgate-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_reports(dir: &Path, config: &PerfConfig) {
    let (scan, stages) = run_perf(config);
    scan.save(&dir.join("BENCH_scan.json")).unwrap();
    stages.save(&dir.join("BENCH_stages.json")).unwrap();
    // A small storm keeps the e2e test fast; the gate treats the serve
    // report (percentiles + throughput_rps extra key) like any other.
    let storm = run_serve_bench(&ServeBenchConfig {
        scale: config.scale,
        requests: 8,
        seed: 7,
    });
    assert!(storm.throughput_rps > 0.0, "storm measured a request rate");
    storm.save(&dir.join("BENCH_serve.json")).unwrap();
}

fn gate(args: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(args)
        .status()
        .expect("spawn perfgate")
}

#[test]
fn gate_passes_on_own_baseline_and_trips_under_injected_slowdown() {
    let config = PerfConfig {
        scale: 0.05,
        runs: 1,
    };
    let dir = temp_dir("e2e");
    let dir_s = dir.to_str().unwrap();
    let baseline = dir.join("baseline.json");
    let baseline_s = baseline.to_str().unwrap();

    // Record the baseline from an honest run.
    write_reports(&dir, &config);
    let status = gate(&[
        "--current-dir",
        dir_s,
        "--baseline",
        baseline_s,
        "--write-baseline",
    ]);
    assert!(status.success(), "writing the baseline must exit 0");
    assert!(baseline.exists());

    // The same measurements gate cleanly against themselves.
    let status = gate(&["--current-dir", dir_s, "--baseline", baseline_s]);
    assert!(status.success(), "identical run must pass the gate");

    // Inject a 300 ms slowdown into every timed region and re-measure: with
    // a 50 ms floor and 1.2x ratio the regression is unambiguous.
    set_injected_slowdown_ms(300);
    write_reports(&dir, &config);
    set_injected_slowdown_ms(0);
    let status = gate(&[
        "--current-dir",
        dir_s,
        "--baseline",
        baseline_s,
        "--ratio",
        "1.2",
        "--floor-ms",
        "50",
    ]);
    assert!(
        !status.success(),
        "injected slowdown must trip the gate (exit nonzero)"
    );
    assert_eq!(status.code(), Some(1), "regression exit code is 1");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_errors_cleanly_without_reports() {
    let dir = temp_dir("empty");
    let status = gate(&["--current-dir", dir.to_str().unwrap()]);
    assert_eq!(status.code(), Some(2), "missing inputs are a usage error");
    let _ = std::fs::remove_dir_all(&dir);
}
