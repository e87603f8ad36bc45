//! `repobench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! Usage: repobench --workload <scan-cold|serve-edit|history-replay>
//!                  --seed N --seconds S --trace <0|1>
//! ```
//!
//! Generated inputs go under `.bench_work/` in the current directory and
//! are removed afterwards; a traced run leaves its Chrome trace there. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Exit status: 0 after a run, 2 on usage or I/O errors.

use std::path::PathBuf;

use repobench::{
    alloc::WindowAlloc,
    run::{
        run,
        write_trace,
        Config,
        Workload, //
    },
};
use vc_obs::Json;

#[global_allocator]
static ALLOC: WindowAlloc = WindowAlloc;

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| die(&format!("unknown workload `{name}`"))),
                );
            }
            "--seed" => seed = Some(number::<u64>(&value(), "--seed")),
            "--seconds" => seconds = Some(number::<f64>(&value(), "--seconds")),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => die(&format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let work = PathBuf::from(".bench_work");
    let cfg = Config {
        workload: workload.unwrap_or_else(|| die("missing --workload")),
        seed: seed.unwrap_or_else(|| die("missing --seed")),
        seconds: seconds.unwrap_or_else(|| die("missing --seconds")),
        small: false,
        work_dir: work.join(format!("run-{}", std::process::id())),
    };
    let traced = trace.unwrap_or(false);

    let result = run(&cfg, traced);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = result.unwrap_or_else(|e| die(&format!("{}: {e}", cfg.workload.name())));
    if let Some(ledger) = &outcome.ledger {
        match write_trace(&work, &cfg, ledger) {
            Ok(path) => eprintln!("repobench: trace written to {}", path.display()),
            Err(e) => die(&format!("writing the trace: {e}")),
        }
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("repobench: {:<30} {value:>14.4} {unit}", name);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let tally = &outcome.tally;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::Int(tally.attempted as i64)),
        ("failed".into(), Json::Int(tally.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_string());
}

fn number<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: `{s}` is not a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("repobench: {msg}");
    std::process::exit(2);
}
