//! The perf observatory: deterministic scaled benchmark runs and the
//! regression gate that keeps CI honest about them.
//!
//! [`run_perf`] generates a fixed workload (same seed every run), scans it
//! `runs` times through the paper pipeline, and reduces each measured case
//! to its **median** — the noise-robust statistic the gate compares. Two
//! files come out, in the existing `BENCH_*.json` shape plus an environment
//! fingerprint:
//!
//! - `BENCH_scan.json` — end-to-end wall time of the full pipeline run,
//!   plus the whole-history lifecycle replay (`scan/history_replay`, the
//!   `vcheck history` path over a generated multi-commit workload) and the
//!   `history.json` loader (`vcs/history_load`: parse plus blame replay of
//!   the mysql profile's history);
//! - `BENCH_stages.json` — per-stage self-time breakdown (detect,
//!   authorship, prune, rank) extracted from the span profiler
//!   ([`vc_obs::profile`]), so a regression names the stage that caused it.
//!
//! [`run_serve_bench`] is the third report, `BENCH_serve.json`: a seeded
//! edit storm through an in-process warm [`ServeEngine`] via the daemon's
//! own request path, reduced to **exact** latency percentiles
//! (`serve/sustained_p50|p95|p99`) plus a `throughput_rps` figure — the
//! sustained editor-loop workload `vcheck serve` exists for, gated by the
//! same thresholds as the batch cases.
//!
//! [`compare`] checks a current report against a committed baseline
//! (`bench/baseline.json`) with *noise-tolerant* thresholds: a case only
//! regresses when it is both `ratio`× slower **and** at least `floor_ns`
//! absolutely slower — tiny cases can double in the noise without tripping
//! the gate, big cases can't creep. A case that disappears from the current
//! report also fails (coverage loss reads as a perf win otherwise).
//!
//! For testing the gate end-to-end there is a failpoint-style hook,
//! [`set_injected_slowdown_ms`]: the runner sleeps that long inside every
//! timed region, so a test can fabricate a real measured regression without
//! depending on machine speed.

use std::{
    path::Path,
    sync::atomic::{AtomicU64, Ordering::Relaxed},
    time::Instant,
};

use valuecheck::{
    history::history_scan,
    pipeline::{run_with_obs, Options},
    sentinel::SentinelConfig,
    serve::{ServeConfig, ServeEngine},
    suppress::SuppressStore,
};
use vc_ir::Program;
use vc_obs::{FoldedProfile, Json, ObsSession, MAIN_TID};
use vc_vcs::HistorySpec;
use vc_workload::{generate, generate_life, AppProfile, LifeProfile};

/// Injected extra latency per timed region, milliseconds. Test-only hook
/// (failpoint-style): proves the gate trips on a real measured slowdown.
static SLOWDOWN_MS: AtomicU64 = AtomicU64::new(0);

/// Arms the injected slowdown; 0 disarms.
pub fn set_injected_slowdown_ms(ms: u64) {
    SLOWDOWN_MS.store(ms, Relaxed);
}

fn injected_delay() {
    let ms = SLOWDOWN_MS.load(Relaxed);
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Configuration for one observatory run.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Workload scale (1.0 = the paper's published sizes).
    pub scale: f64,
    /// Timed runs per case; the reported statistic is their median.
    pub runs: usize,
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig {
            scale: 1.0,
            runs: 5,
        }
    }
}

/// One measured case: a name and its median over the configured runs.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfCase {
    /// Case label (`scan/total`, `stages/stage.detect`, ...).
    pub name: String,
    /// Median wall time across runs, nanoseconds.
    pub median_ns: u64,
    /// Number of runs the median was taken over.
    pub runs: usize,
}

/// A full report: measured cases plus the environment fingerprint.
#[derive(Clone, Debug, Default)]
pub struct PerfReport {
    /// Report name (`scan`, `stages`, or `baseline` for the merged file).
    pub name: String,
    /// Measured cases.
    pub cases: Vec<PerfCase>,
    /// Environment fingerprint (`os/arch/ncpu/profile`).
    pub env: String,
}

/// The machine/profile fingerprint recorded into every report. Compared
/// advisorily by the gate: a mismatch is reported but never fails the run.
/// The same string [`vc_obs::env_fingerprint`] stamps into the
/// `--metrics-json` export, so bench reports and metric dumps join on it.
pub fn env_fingerprint() -> String {
    vc_obs::env_fingerprint()
}

fn median(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs the deterministic scaled workload `config.runs` times and returns
/// the `(scan, stages)` reports.
pub fn run_perf(config: &PerfConfig) -> (PerfReport, PerfReport) {
    // A fixed workload: every paper profile, same seeds, every invocation —
    // the measured work is identical across runs and machines.
    let apps: Vec<_> = AppProfile::all()
        .into_iter()
        .map(|p| {
            let profile = if (config.scale - 1.0).abs() < 1e-9 {
                p
            } else {
                p.scaled(config.scale)
            };
            let app = generate(&profile);
            let prog = Program::build(&app.source_refs(), &app.defines)
                .unwrap_or_else(|e| panic!("perf workload failed to build: {e}"));
            (app, prog)
        })
        .collect();
    let opts = Options::paper();

    // The lifecycle workload behind `scan/history_replay`: a scripted
    // multi-commit history (live / fixed / suppressed / churned fates),
    // replayed end to end through `history_scan` each run.
    let scale_n = |n: usize| ((n as f64 * config.scale).round() as usize).max(1);
    let life = generate_life(&LifeProfile {
        seed: 5,
        commits: scale_n(8),
        live: scale_n(20),
        fixed: scale_n(12),
        suppressed: scale_n(8),
        churned: scale_n(4),
        files: scale_n(4),
        drift_lines: 6,
    });

    // The loader workload behind `vcs/history_load`: the mysql profile's
    // history as `genapp` writes it to `history.json`.
    let history_json = HistorySpec::from_repo(&apps[2].0.repo).to_json(); // Table 2 order: mysql

    // The warm-daemon workload behind `scan/serve_warm`: the nfs-ganesha
    // tree on disk, a warmed ServeEngine, and a one-file edit per run —
    // the editor-loop case the daemon exists for. The engine carries its
    // parse and unit caches across runs; only the edited file's dirty
    // closure re-analyzes.
    let serve_app = &apps[1].0; // AppProfile::all() Table 2 order: nfs-ganesha
    let serve_dir = std::env::temp_dir().join(format!("vc-perf-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_dir);
    for (path, content) in &serve_app.sources {
        let full = serve_dir.join(path);
        std::fs::create_dir_all(full.parent().unwrap()).expect("perf serve tree dir");
        std::fs::write(full, content).expect("perf serve tree write");
    }
    // Probe the smallest file: the editor-loop case is a small edit, and
    // the warm cost of an edit scales with the edited file's size (it is
    // the only file that re-parses).
    let probe_src = serve_app
        .sources
        .iter()
        .min_by_key(|(_, content)| content.len())
        .expect("serve app has sources");
    let probe_path = serve_dir.join(&probe_src.0);
    let probe_base = probe_src.1.clone();
    let probe_edited = format!("{probe_base}\nint vc_warm_probe(void) {{ return 1; }}\n");
    let mut engine = ServeEngine::new(
        &serve_dir,
        ServeConfig {
            opts,
            defines: serve_app.defines.clone(),
            ..ServeConfig::default()
        },
    )
    .expect("perf serve engine starts");
    engine.scan(None).expect("perf serve warmup scan");

    let stage_names = [
        "stage.detect",
        "stage.authorship",
        "stage.prune",
        "stage.rank",
    ];
    let mut total: Vec<u64> = Vec::with_capacity(config.runs);
    let mut history: Vec<u64> = Vec::with_capacity(config.runs);
    let mut recovery: Vec<u64> = Vec::with_capacity(config.runs);
    let mut serve_warm: Vec<u64> = Vec::with_capacity(config.runs);
    let mut summary: Vec<u64> = Vec::with_capacity(config.runs);
    let mut history_load: Vec<u64> = Vec::with_capacity(config.runs);
    let mut stages: Vec<Vec<u64>> = vec![Vec::with_capacity(config.runs); stage_names.len()];
    for run in 0..config.runs.max(1) {
        let mut stage_ns = [0u64; 4];
        let t0 = Instant::now();
        injected_delay();
        for (app, prog) in &apps {
            let obs = ObsSession::new();
            let analysis = run_with_obs(prog, &app.repo, &opts, obs.clone());
            std::hint::black_box(&analysis);
            // Per-stage self time from the folded main lane, where the
            // pipeline puts each stage with no sub-spans (self time is the
            // stage's wall time). The one-per-function worker-lane spans
            // are left out: folding them would time this harness.
            let mut records = obs.tracer.records();
            records.retain(|r| r.tid == MAIN_TID);
            let folded = FoldedProfile::from_records(&records);
            for (i, stage) in stage_names.iter().enumerate() {
                stage_ns[i] += folded
                    .top_self(usize::MAX)
                    .iter()
                    .filter(|(name, _)| name == stage)
                    .map(|(_, stat)| stat.self_us * 1_000)
                    .sum::<u64>();
            }
        }
        total.push(t0.elapsed().as_nanos() as u64);
        for (i, ns) in stage_ns.into_iter().enumerate() {
            stages[i].push(ns);
        }

        let t1 = Instant::now();
        injected_delay();
        let outcome = history_scan(
            &life.repo,
            &[],
            &opts,
            &SentinelConfig::default(),
            SuppressStore::default(),
            ObsSession::new(),
        )
        .unwrap_or_else(|e| panic!("perf history workload failed to build: {e}"));
        std::hint::black_box(&outcome);
        history.push(t1.elapsed().as_nanos() as u64);

        // The error-recovering front end over the same (clean) sources:
        // gates the overhead recovery bookkeeping adds to the common case
        // where nothing is corrupted.
        let t2 = Instant::now();
        injected_delay();
        for (app, _) in &apps {
            let (prog, errors, stats) = Program::build_recovering(&app.source_refs(), &app.defines);
            assert!(
                errors.is_empty() && stats == vc_ir::program::RecoverStats::default(),
                "recovery must be a no-op on the clean perf workload"
            );
            std::hint::black_box(&prog);
        }
        recovery.push(t2.elapsed().as_nanos() as u64);

        // Warm rescan after a one-file edit: flip the probe function in
        // and out so every run re-analyzes exactly one file's closure
        // against warm caches.
        let edited = if run % 2 == 0 {
            &probe_edited
        } else {
            &probe_base
        };
        std::fs::write(&probe_path, edited).expect("perf serve probe edit");
        let t3 = Instant::now();
        injected_delay();
        let resp = engine.scan(None).expect("perf serve warm scan");
        assert!(
            resp.unit_hits > 0,
            "warm rescan must hit the unit cache (got {} hits / {} misses)",
            resp.unit_hits,
            resp.unit_misses
        );
        std::hint::black_box(&resp);
        serve_warm.push(t3.elapsed().as_nanos() as u64);

        // Summary construction in isolation (not nested inside
        // stage.detect): one pass building every function's dataflow
        // summary — the unit of work detect and prune now share.
        let t4 = Instant::now();
        injected_delay();
        for (_, prog) in &apps {
            let interner = vc_dataflow::summary::SigInterner::new(prog);
            for (fi, f) in prog.funcs.iter().enumerate() {
                let s = vc_dataflow::summary::build_summary(
                    f,
                    interner.sig_of(vc_ir::FuncId(fi as u32)),
                    vc_obs::Budget::UNLIMITED,
                );
                std::hint::black_box(&s);
            }
        }
        summary.push(t4.elapsed().as_nanos() as u64);

        // `history.json` text to a blame-ready repository, as `vcheck`
        // loads a project with history.
        let t5 = Instant::now();
        injected_delay();
        let repo = HistorySpec::from_json(&history_json)
            .expect("perf history.json parses")
            .into_repository();
        std::hint::black_box(&repo);
        history_load.push(t5.elapsed().as_nanos() as u64);
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&serve_dir);

    let env = env_fingerprint();
    let scan = PerfReport {
        name: "scan".to_string(),
        cases: vec![
            PerfCase {
                name: "scan/total".to_string(),
                median_ns: median(total),
                runs: config.runs,
            },
            PerfCase {
                name: "scan/history_replay".to_string(),
                median_ns: median(history),
                runs: config.runs,
            },
            PerfCase {
                name: "scan/parse_recovery".to_string(),
                median_ns: median(recovery),
                runs: config.runs,
            },
            PerfCase {
                name: "scan/serve_warm".to_string(),
                median_ns: median(serve_warm),
                runs: config.runs,
            },
            PerfCase {
                name: "vcs/history_load".to_string(),
                median_ns: median(history_load),
                runs: config.runs,
            },
        ],
        env: env.clone(),
    };
    let stages_report = PerfReport {
        name: "stages".to_string(),
        cases: stage_names
            .iter()
            .zip(stages)
            .map(|(name, samples)| PerfCase {
                name: format!("stages/{name}"),
                median_ns: median(samples),
                runs: config.runs,
            })
            .chain(std::iter::once(PerfCase {
                name: "stages/stage.summary".to_string(),
                median_ns: median(summary),
                runs: config.runs,
            }))
            .collect(),
        env,
    };
    (scan, stages_report)
}

/// Configuration for the serve sustained-throughput bench.
#[derive(Clone, Copy, Debug)]
pub struct ServeBenchConfig {
    /// Workload scale (matches [`PerfConfig::scale`]).
    pub scale: f64,
    /// Requests in the edit storm (each one: edit a file, warm-rescan).
    pub requests: usize,
    /// Storm seed: which file each request edits.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> ServeBenchConfig {
        ServeBenchConfig {
            scale: 1.0,
            requests: 60,
            seed: 7,
        }
    }
}

/// The serve bench outcome: exact request-latency percentiles as a
/// [`PerfReport`] (the gate's unit) plus the sustained request rate.
#[derive(Clone, Debug)]
pub struct ServeBenchResult {
    /// `serve/sustained_p50|p95|p99` cases, values in nanoseconds.
    pub report: PerfReport,
    /// Sustained requests per second over the whole storm.
    pub throughput_rps: f64,
}

impl ServeBenchResult {
    /// The `BENCH_serve.json` shape: a standard [`PerfReport`] export plus
    /// a `throughput_rps` key. [`PerfReport::from_json`] ignores unknown
    /// keys, so the gate loads this file like any other report.
    pub fn to_json(&self) -> Json {
        let mut json = self.report.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.push((
                "throughput_rps".into(),
                Json::Float((self.throughput_rps * 100.0).round() / 100.0),
            ));
        }
        json
    }

    /// Writes the result to `path` (pretty JSON).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Deterministic xorshift64* (same stream on every platform/run).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Exact percentile over raw samples (nearest-rank on the sorted vec) —
/// unlike the serve daemon's log-linear histograms, the bench keeps every
/// sample, so the gated numbers carry no bucketing error.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs a seeded edit storm through an in-process warm [`ServeEngine`] via
/// the protocol path (`handle_line`, the same entry the daemon's worker
/// loop uses, so request telemetry is exercised while being measured) and
/// reports exact latency percentiles plus sustained throughput.
///
/// Every request edits one seeded-random file (toggling a probe function
/// in or out) and issues `{"op":"scan"}` — the editor-loop workload
/// `vcheck serve` exists for, sustained rather than one-shot.
pub fn run_serve_bench(config: &ServeBenchConfig) -> ServeBenchResult {
    let profile = {
        let p = AppProfile::all().into_iter().nth(1).expect("nfs-ganesha"); // Table 2 order
        if (config.scale - 1.0).abs() < 1e-9 {
            p
        } else {
            p.scaled(config.scale)
        }
    };
    let app = generate(&profile);
    let dir = std::env::temp_dir().join(format!("vc-perf-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (path, content) in &app.sources {
        let full = dir.join(path);
        std::fs::create_dir_all(full.parent().unwrap()).expect("storm tree dir");
        std::fs::write(full, content).expect("storm tree write");
    }
    let mut engine = ServeEngine::new(
        &dir,
        ServeConfig {
            opts: Options::paper(),
            defines: app.defines.clone(),
            ..ServeConfig::default()
        },
    )
    .expect("storm engine starts");
    // Warm-up request (the cold rebuild) is not part of the measurement.
    let (warm, _) = engine.handle_line("{\"op\":\"scan\"}", 0);
    assert_eq!(
        warm.get("ok").and_then(Json::as_bool),
        Some(true),
        "storm warm-up scan must succeed"
    );

    let mut state = config.seed | 1;
    let mut toggled = vec![false; app.sources.len()];
    let mut latencies: Vec<u64> = Vec::with_capacity(config.requests);
    let t0 = Instant::now();
    for seq in 1..=config.requests.max(1) as u64 {
        let i = (xorshift(&mut state) % app.sources.len() as u64) as usize;
        let (path, base) = &app.sources[i];
        toggled[i] = !toggled[i];
        let content = if toggled[i] {
            format!("{base}\nint vc_storm_probe_{i}(void) {{ return 1; }}\n")
        } else {
            base.clone()
        };
        std::fs::write(dir.join(path), content).expect("storm edit");
        let t = Instant::now();
        injected_delay();
        let (reply, _) = engine.handle_line("{\"op\":\"scan\"}", seq);
        latencies.push(t.elapsed().as_nanos() as u64);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "storm request {seq} must succeed"
        );
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    latencies.sort_unstable();
    let case = |name: &str, q: f64| PerfCase {
        name: format!("serve/sustained_{name}"),
        median_ns: exact_percentile(&latencies, q),
        runs: latencies.len(),
    };
    ServeBenchResult {
        report: PerfReport {
            name: "serve".to_string(),
            cases: vec![case("p50", 0.50), case("p95", 0.95), case("p99", 0.99)],
            env: env_fingerprint(),
        },
        throughput_rps: if elapsed > 0.0 {
            latencies.len() as f64 / elapsed
        } else {
            0.0
        },
    }
}

impl PerfReport {
    /// The report as JSON (the `BENCH_*.json` shape plus `env`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("env".into(), Json::Str(self.env.clone())),
            (
                "benches".into(),
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(c.name.clone())),
                                ("median_ns".into(), Json::Int(c.median_ns as i64)),
                                ("samples".into(), Json::Int(c.runs as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report written by [`PerfReport::to_json`]. Also accepts the
    /// plain `Harness` output shape (no `env` key).
    pub fn from_json(json: &Json) -> Option<PerfReport> {
        let name = json.get("name")?.as_str()?.to_string();
        let env = json
            .get("env")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let benches = match json.get("benches")? {
            Json::Arr(items) => items,
            _ => return None,
        };
        let mut cases = Vec::with_capacity(benches.len());
        for b in benches {
            cases.push(PerfCase {
                name: b.get("name")?.as_str()?.to_string(),
                median_ns: b.get("median_ns")?.as_i64()?.max(0) as u64,
                runs: b.get("samples").and_then(Json::as_i64).unwrap_or(1).max(0) as usize,
            });
        }
        Some(PerfReport { name, cases, env })
    }

    /// Loads and parses a report file.
    pub fn load(path: &Path) -> Result<PerfReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = vc_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        PerfReport::from_json(&json).ok_or_else(|| format!("{}: not a perf report", path.display()))
    }

    /// Writes the report to `path` (pretty JSON).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Merges several reports into one named `name` (case names must
    /// already be namespaced `group/case`, so collisions don't occur).
    pub fn merged(name: &str, parts: &[PerfReport]) -> PerfReport {
        PerfReport {
            name: name.to_string(),
            cases: parts.iter().flat_map(|p| p.cases.clone()).collect(),
            env: parts
                .first()
                .map(|p| p.env.clone())
                .unwrap_or_else(env_fingerprint),
        }
    }

    /// Looks up a case's median by name.
    pub fn median_ns(&self, case: &str) -> Option<u64> {
        self.cases
            .iter()
            .find(|c| c.name == case)
            .map(|c| c.median_ns)
    }
}

/// Gate thresholds. A case regresses only when it exceeds **both**: the
/// relative ratio (noise on small cases) and the absolute floor (creep on
/// large ones is still caught because big absolute deltas clear the floor).
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Maximum allowed `current / baseline` ratio (e.g. 1.6 = +60 %).
    pub max_ratio: f64,
    /// Minimum absolute slowdown, nanoseconds, before a case can regress.
    pub floor_ns: u64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            max_ratio: 1.6,
            floor_ns: 10_000_000, // 10 ms
        }
    }
}

/// One gate verdict: a regressed or vanished case.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// The case that regressed.
    pub case: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// Current median (0 when the case vanished).
    pub current_ns: u64,
    /// Human-readable reason.
    pub reason: String,
}

/// Compares `current` against `baseline`, returning every regression. An
/// empty result means the gate passes.
pub fn compare(baseline: &PerfReport, current: &PerfReport, t: &Thresholds) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.cases {
        let Some(cur) = current.median_ns(&base.name) else {
            out.push(Regression {
                case: base.name.clone(),
                baseline_ns: base.median_ns,
                current_ns: 0,
                reason: "case missing from current report".to_string(),
            });
            continue;
        };
        let over_floor = cur.saturating_sub(base.median_ns) >= t.floor_ns;
        let ratio = if base.median_ns == 0 {
            // A zero baseline can't support a ratio; the floor decides.
            f64::INFINITY
        } else {
            cur as f64 / base.median_ns as f64
        };
        if over_floor && ratio > t.max_ratio {
            out.push(Regression {
                case: base.name.clone(),
                baseline_ns: base.median_ns,
                current_ns: cur,
                reason: format!(
                    "{:.2}x over baseline (+{} ms)",
                    ratio,
                    (cur - base.median_ns) / 1_000_000
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cases: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            name: "t".into(),
            cases: cases
                .iter()
                .map(|(n, v)| PerfCase {
                    name: n.to_string(),
                    median_ns: *v,
                    runs: 3,
                })
                .collect(),
            env: "test".into(),
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report(&[("scan/total", 123), ("stages/stage.detect", 45)]);
        let back = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.cases, r.cases);
        assert_eq!(back.env, "test");
    }

    #[test]
    fn gate_needs_both_ratio_and_floor() {
        let t = Thresholds {
            max_ratio: 1.5,
            floor_ns: 10_000_000,
        };
        let base = report(&[("small", 1_000), ("big", 100_000_000)]);
        // Small case 100x slower but under the absolute floor: noise.
        let noisy = report(&[("small", 100_000), ("big", 100_000_000)]);
        assert!(compare(&base, &noisy, &t).is_empty());
        // Big case over both thresholds: regression.
        let slow = report(&[("small", 1_000), ("big", 200_000_000)]);
        let regs = compare(&base, &slow, &t);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].case, "big");
        // Big case +50ms but only 1.5x (not > ratio): passes.
        let creep = report(&[("small", 1_000), ("big", 150_000_000)]);
        assert!(compare(&base, &creep, &t).is_empty());
    }

    #[test]
    fn missing_case_is_a_regression() {
        let t = Thresholds::default();
        let base = report(&[("scan/total", 5)]);
        let cur = report(&[]);
        let regs = compare(&base, &cur, &t);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].reason.contains("missing"));
    }

    #[test]
    fn exact_percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_percentile(&samples, 0.50), 50);
        assert_eq!(exact_percentile(&samples, 0.95), 95);
        assert_eq!(exact_percentile(&samples, 0.99), 99);
        assert_eq!(exact_percentile(&samples, 1.0), 100);
        assert_eq!(exact_percentile(&[], 0.5), 0);
        assert_eq!(exact_percentile(&[7], 0.99), 7);
    }

    #[test]
    fn serve_bench_json_gates_like_a_report() {
        let result = ServeBenchResult {
            report: report(&[
                ("serve/sustained_p50", 1_000_000),
                ("serve/sustained_p99", 9_000_000),
            ]),
            throughput_rps: 41.237,
        };
        let json = result.to_json();
        assert_eq!(
            json.get("throughput_rps").and_then(Json::as_f64),
            Some(41.24)
        );
        // The gate's loader reads the same file, extra key and all.
        let back = PerfReport::from_json(&json).unwrap();
        assert_eq!(back.median_ns("serve/sustained_p50"), Some(1_000_000));
        assert_eq!(back.median_ns("serve/sustained_p99"), Some(9_000_000));
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = 7 | 1;
        let mut b = 7 | 1;
        for _ in 0..100 {
            let x = xorshift(&mut a);
            assert_eq!(x, xorshift(&mut b));
            assert_ne!(x, 0);
        }
    }

    #[test]
    fn merged_concatenates_cases() {
        let m = PerfReport::merged("baseline", &[report(&[("a/x", 1)]), report(&[("b/y", 2)])]);
        assert_eq!(m.median_ns("a/x"), Some(1));
        assert_eq!(m.median_ns("b/y"), Some(2));
        assert_eq!(m.name, "baseline");
    }
}
