//! One benchmark run: input generation, repeated set-up, then either the
//! untraced measurement (end-to-end metrics) or the traced run (per-layer
//! metrics).

use std::{
    collections::BTreeMap,
    io,
    path::{
        Path,
        PathBuf, //
    },
    time::Instant,
};

use crate::{
    alloc,
    history_replay::HistoryReplay,
    ledger::Ledger,
    oracle::Tally,
    scan_cold::ScanCold,
    serve_edit::ServeEdit,
    stats::{
        median,
        quantile,
        ratio, //
    },
};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("scan_kloc_per_s", "kloc/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// the workload does not run reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vcs.history_parse_ms", "ms"),
    ("vcs.history_build_ms", "ms"),
    ("vcs.commits", "count"),
    ("vcs.history_bytes", "bytes"),
    ("vcs.snapshot_ms", "ms"),
    ("project.load_ms", "ms"),
    ("ir.lex_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("ir.build_ms", "ms"),
    ("ir.tokens", "count"),
    ("ir.functions", "count"),
    ("ir.insts", "count"),
    ("ir.cached_build_ms", "ms"),
    ("ir.parse_cache_hit_ratio", "ratio"),
    ("pointer.partition_ms", "ms"),
    ("pointer.solved_ratio", "ratio"),
    ("dataflow.summary_ms", "ms"),
    ("dataflow.fixpoint_iterations", "count"),
    ("detect.ms", "ms"),
    ("detect.raw_candidates", "count"),
    ("sentinel.detect_ms", "ms"),
    ("sentinel.speedup", "x"),
    ("authorship.ms", "ms"),
    ("authorship.cross_scope_ratio", "ratio"),
    ("prune.ms", "ms"),
    ("prune.pruned_ratio", "ratio"),
    ("rank.ms", "ms"),
    ("report.encode_ms", "ms"),
    ("report.bytes", "bytes"),
    ("teardown_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.dirty_closure_ms", "ms"),
    ("serve.detect_ms", "ms"),
    ("serve.backend_ms", "ms"),
    ("serve.unit_hit_ratio", "ratio"),
    ("history.revision_ms", "ms"),
    ("delta.classify_ms", "ms"),
    ("traced_op_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead", "x"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one caller: cold scans of the four paper apps on disk.
    ScanCold,
    /// Closed loop, one client: a warm serve engine under file edits.
    ServeEdit,
    /// Closed loop, one caller: whole-history lifecycle replays.
    HistoryReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ScanCold,
        Workload::ServeEdit,
        Workload::HistoryReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan-cold",
            Workload::ServeEdit => "serve-edit",
            Workload::HistoryReplay => "history-replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The layers whose per-operation times, plus `unattributed_ms`, add up
    /// to `traced_op_ms` on this workload: each is a span around a public
    /// call the operation makes, or one the program records itself, and no
    /// two overlap.
    pub fn ledger(self) -> &'static [&'static str] {
        match self {
            Workload::ScanCold => &[
                "project.load_ms",
                "ir.build_ms",
                "sentinel.detect_ms",
                "authorship.ms",
                "prune.ms",
                "rank.ms",
                "report.encode_ms",
                "teardown_ms",
            ],
            Workload::ServeEdit => &[
                "serve.parse_ms",
                "serve.dirty_closure_ms",
                "serve.detect_ms",
                "authorship.ms",
                "prune.ms",
                "rank.ms",
                "report.encode_ms",
            ],
            Workload::HistoryReplay => {
                &["sentinel.detect_ms", "authorship.ms", "prune.ms", "rank.ms"]
            }
        }
    }

    /// Upper bound on `unattributed_ms / traced_op_ms`: the share of a
    /// traced operation no ledger layer covers. The serve engine loads the
    /// tree, checksums it, fingerprints findings and frees the program
    /// outside its spans; the history replay snapshots, builds, classifies
    /// and keeps its lifecycle database outside them. The probes estimate
    /// those parts, but an estimate is not summed into the ledger.
    pub fn unattributed_max_share(self) -> f64 {
        match self {
            Workload::ScanCold => 0.05,
            Workload::ServeEdit => 0.50,
            Workload::HistoryReplay => 0.90,
        }
    }
}

/// What one round measured: a request or replay, or one pass over the
/// four apps of `scan-cold`. Latency percentiles are taken over rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    /// Operation time in milliseconds; untimed edits, output checks and
    /// the traced run's probes are left out.
    pub ms: f64,
    /// The same time scaled to the reference host speed ([`crate::calib`]).
    pub scaled_ms: f64,
    /// Source KLOC the round analysed.
    pub kloc: f64,
}

/// A workload's measured operations.
pub trait Bench {
    /// One warm-up, repeated [`SETUP_REPEATS`] times before the
    /// measurement; returns its time in scaled milliseconds ([`crate::calib`]).
    fn setup(&mut self, tally: &mut Tally) -> io::Result<f64>;
    /// One round of operations, untraced.
    fn round(&mut self, tally: &mut Tally) -> io::Result<Round>;
    /// The same round with every public call in a [`Ledger`] span.
    fn traced_round(&mut self, tally: &mut Tally, ledger: &mut Ledger) -> io::Result<Round>;
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Scaled-down inputs, for tests.
    pub small: bool,
    /// Scratch directory for generated trees (created, not removed).
    pub work_dir: PathBuf,
}

/// A run's checked-operation tally and its metrics, `(name, value, unit)`.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked and failed.
    pub tally: Tally,
    /// The printed metrics, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans (empty when untraced).
    pub ledger: Option<Ledger>,
}

impl Outcome {
    /// The value of metric `name`, if printed.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

fn prepare(cfg: &Config) -> io::Result<Box<dyn Bench>> {
    let dir = cfg.work_dir.join(cfg.workload.name());
    Ok(match cfg.workload {
        Workload::ScanCold => Box::new(ScanCold::prepare(cfg.seed, cfg.small, &dir)?),
        Workload::ServeEdit => Box::new(ServeEdit::prepare(cfg.seed, cfg.small, &dir)?),
        Workload::HistoryReplay => Box::new(HistoryReplay::prepare(cfg.seed, cfg.small)),
    })
}

/// Runs rounds of `f` until `seconds` have passed (at least one round).
fn rounds_for(seconds: f64, mut f: impl FnMut() -> io::Result<Round>) -> io::Result<Vec<Round>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.push(f()?);
    }
    Ok(out)
}

/// Runs one benchmark: untraced (end-to-end metrics) or traced (per-layer
/// metrics, spans kept in the outcome's ledger).
pub fn run(cfg: &Config, traced: bool) -> io::Result<Outcome> {
    let mut bench = prepare(cfg)?;
    let mut tally = Tally::default();
    alloc::reset_peak();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        setup_s.push(bench.setup(&mut tally)? / 1e3);
    }
    if !traced {
        let rounds = rounds_for(cfg.seconds, || bench.round(&mut tally))?;
        let raw: Vec<f64> = rounds.iter().map(|r| r.ms).collect();
        eprintln!(
            "repobench: {} rounds; raw op p50 {:.4} ms, p90 {:.4} ms (before host-speed scaling)",
            rounds.len(),
            quantile(&raw, 0.5),
            quantile(&raw, 0.9)
        );
        let latency: Vec<f64> = rounds.iter().map(|r| r.scaled_ms).collect();
        let throughput: Vec<f64> = rounds
            .iter()
            .map(|r| ratio(r.kloc, r.scaled_ms / 1e3))
            .collect();
        let values = [
            median(&throughput),
            quantile(&latency, 0.5),
            quantile(&latency, 0.9),
            median(&setup_s),
            alloc::peak_bytes() as f64 / (1024.0 * 1024.0),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        return Ok(Outcome {
            tally,
            metrics,
            ledger: None,
        });
    }

    // Traced: half the time untraced (the overhead baseline), half traced.
    let half = cfg.seconds / 2.0;
    let plain = rounds_for(half, || bench.round(&mut tally))?;
    let mut ledger = Ledger::default();
    let traced_rounds = rounds_for(half, || bench.traced_round(&mut tally, &mut ledger))?;
    let round_ms = |rs: &[Round]| median(&rs.iter().map(|r| r.scaled_ms).collect::<Vec<_>>());
    let overhead = ratio(round_ms(&traced_rounds), round_ms(&plain));
    let metrics = layer_metrics(cfg.workload, &ledger, overhead);
    Ok(Outcome {
        tally,
        metrics,
        ledger: Some(ledger),
    })
}

/// The per-layer table from a traced run's ledger.
fn layer_metrics(
    workload: Workload,
    ledger: &Ledger,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let (mut m, e2e) = ledger.means();
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let derived = [
        (
            "ir.parse_cache_hit_ratio",
            ratio(
                get(&m, "n.cache_hits"),
                get(&m, "n.cache_hits") + get(&m, "n.cache_misses"),
            ),
        ),
        (
            "pointer.solved_ratio",
            ratio(get(&m, "n.pointer_solves"), get(&m, "n.pointer_components")),
        ),
        (
            "sentinel.speedup",
            ratio(get(&m, "detect.ms"), get(&m, "sentinel.detect_ms")),
        ),
        (
            "authorship.cross_scope_ratio",
            ratio(get(&m, "n.cross_scope"), get(&m, "n.candidates")),
        ),
        (
            "prune.pruned_ratio",
            ratio(get(&m, "n.pruned"), get(&m, "n.cross_scope")),
        ),
        (
            "serve.unit_hit_ratio",
            ratio(
                get(&m, "n.unit_hits"),
                get(&m, "n.unit_hits") + get(&m, "n.unit_misses"),
            ),
        ),
        ("traced_op_ms", e2e),
        (
            "unattributed_ms",
            e2e - workload.ledger().iter().map(|k| get(&m, k)).sum::<f64>(),
        ),
        ("trace_overhead", overhead),
    ];
    m.extend(derived);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, get(&m, name), unit))
        .collect()
}

/// Writes a traced run's spans as a Chrome trace under `dir`; returns the
/// file's path.
pub fn write_trace(dir: &Path, cfg: &Config, ledger: &Ledger) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, ledger.to_chrome_json().to_string())?;
    Ok(path)
}
