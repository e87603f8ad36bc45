//! `scan-cold`: what `vcheck <dir>` runs, once per paper app, from disk.
//!
//! Closed loop, one caller. One operation is one cold scan of one app
//! tree with its `history.json`: `project::load_dir` →
//! `Program::build_recovering` → `pipeline::run_sentinel` (2 jobs) →
//! `Report::to_csv` + `to_json`. One round is one pass over the four apps;
//! its time is the sum of the four scans.

use std::{
    fs,
    hint::black_box,
    io,
    path::{
        Path,
        PathBuf, //
    }, //
};

use valuecheck::{
    pipeline::{
        run_sentinel,
        Options, //
    },
    project::load_dir,
    sentinel::SentinelConfig,
    Report,
};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_vcs::HistorySpec;
use vc_workload::{
    generate,
    AppProfile,
    GroundTruth, //
};

use crate::{
    calib, layers,
    ledger::Ledger,
    oracle::{
        check_scan,
        Tally, //
    },
    run::{
        Bench,
        Round, //
    },
};

/// Profile scale for the scaled-down test inputs.
pub const SMALL_SCALE: f64 = 0.05;

/// One generated app on disk plus its ground truth.
struct App {
    dir: PathBuf,
    profile: AppProfile,
    truth: GroundTruth,
    kloc: f64,
}

/// The `scan-cold` workload.
pub struct ScanCold {
    apps: Vec<App>,
    opts: Options,
    sconf: SentinelConfig,
}

/// Writes `sources` under `dir`.
pub fn write_tree(dir: &Path, sources: &[(String, String)]) -> io::Result<()> {
    for (path, content) in sources {
        let full = dir.join(path);
        if let Some(parent) = full.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(full, content)?;
    }
    Ok(())
}

/// The sentinel configuration every workload detects with.
pub fn sentinel_config() -> SentinelConfig {
    SentinelConfig {
        jobs: 2,
        ..SentinelConfig::default()
    }
}

/// The outputs of one scan the oracle checks.
struct ScanOutput {
    report: Report,
    csv: String,
    build_errors: usize,
}

impl ScanCold {
    /// Generates the four paper apps for `seed` and writes each, with its
    /// `history.json`, under `dir`.
    pub fn prepare(seed: u64, small: bool, dir: &Path) -> io::Result<ScanCold> {
        let mut apps = Vec::new();
        for p in AppProfile::all() {
            let p = AppProfile { seed, ..p };
            let profile = if small { p.scaled(SMALL_SCALE) } else { p };
            let app = generate(&profile);
            let app_dir = dir.join(&profile.name);
            write_tree(&app_dir, &app.sources)?;
            fs::write(
                app_dir.join("history.json"),
                HistorySpec::from_repo(&app.repo).to_json(),
            )?;
            apps.push(App {
                dir: app_dir,
                kloc: app.loc() as f64 / 1e3,
                truth: app.truth,
                profile,
            });
        }
        Ok(ScanCold {
            apps,
            opts: Options::paper(),
            sconf: sentinel_config(),
        })
    }

    fn scan(&self, app: &App) -> io::Result<ScanOutput> {
        let project = load_dir(&app.dir)?;
        let (prog, errors, _) = Program::build_recovering(&project.source_refs(), &[]);
        let analysis = run_sentinel(
            &prog,
            &project.repo,
            &self.opts,
            &self.sconf,
            ObsSession::new(),
        );
        let csv = analysis.report.to_csv();
        black_box(analysis.report.to_json());
        Ok(ScanOutput {
            report: analysis.report,
            csv,
            build_errors: errors.len(),
        })
    }

    /// The same scan, each public call in a layer span and the pipeline's
    /// own stage spans adopted under `run_sentinel`; then the probes.
    /// Returns the output and the operation's milliseconds.
    fn scan_traced(&self, app: &App, l: &mut Ledger) -> io::Result<(ScanOutput, f64)> {
        let op = l.begin_op(&format!("vcheck {}", app.profile.name));
        let (project, _, _) = l.layer("project::load_dir", Some("project.load_ms"), op, || {
            load_dir(&app.dir)
        });
        let project = project?;
        let ((prog, errors), _, build_ms) =
            l.layer("Program::build_recovering", Some("ir.build_ms"), op, || {
                let (prog, errors, _) = Program::build_recovering(&project.source_refs(), &[]);
                (prog, errors)
            });
        let obs = ObsSession::new();
        let (analysis, call, _) = l.layer("pipeline::run_sentinel", None, op, || {
            run_sentinel(&prog, &project.repo, &self.opts, &self.sconf, obs.clone())
        });
        let ((csv, json_bytes), _, _) = l.layer(
            "Report::to_csv + to_json",
            Some("report.encode_ms"),
            op,
            || (analysis.report.to_csv(), analysis.report.to_json().len()),
        );
        let funnel = (
            analysis.raw_candidates as u64,
            analysis.cross_scope_candidates as u64,
            analysis.prune_outcome.total_pruned() as u64,
        );
        let (report, _, _) = l.layer(
            "drop Program + Project",
            Some("teardown_ms"),
            op,
            move || {
                let analysis = analysis;
                drop((prog, project));
                analysis.report
            },
        );
        let e2e = l.end_op(op);
        l.adopt(call, &obs.tracer.records(), layers::PIPELINE_SPANS);
        layers::funnel(l, funnel.0, funnel.1, funnel.2);
        l.add("report.bytes", (csv.len() + json_bytes) as f64);

        let group = l.begin_probes(&format!("probes {}", app.profile.name));
        self.probes(app, l, group, build_ms)?;
        l.end_probes(group);
        l.finish_op();
        let output = ScanOutput {
            report,
            csv,
            build_errors: errors.len(),
        };
        Ok((output, e2e))
    }

    /// Splits the scan's load into reading `history.json` and replaying it,
    /// its build into lex / parse / lower, and its detection into the
    /// sub-parts [`layers::detect_probes`] times.
    fn probes(&self, app: &App, l: &mut Ledger, group: usize, build_ms: f64) -> io::Result<()> {
        let (text, _) = l.probe("fs::read_to_string history.json", group, || {
            fs::read_to_string(app.dir.join("history.json"))
        });
        let text = text?;
        let (spec, ms) = l.probe("HistorySpec::from_json", group, || {
            HistorySpec::from_json(&text)
        });
        let spec = spec.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        l.add("vcs.history_parse_ms", ms);
        l.add("vcs.commits", spec.commits.len() as f64);
        l.add("vcs.history_bytes", text.len() as f64);
        let (repo, ms) = l.probe("HistorySpec::build", group, || spec.build());
        l.add("vcs.history_build_ms", ms);
        drop((repo, spec, text));

        let (project, _) = l.probe("project::load_dir", group, || load_dir(&app.dir));
        let project = project?;
        let refs = project.source_refs();
        layers::split_front_end(l, group, &refs, build_ms);
        let (prog, _) = l.probe("Program::build_recovering", group, || {
            Program::build_recovering(&refs, &[]).0
        });
        layers::program_counts(l, &prog);
        layers::detect_probes(l, group, &prog, &self.opts);
        Ok(())
    }

    fn check(app: &App, out: io::Result<ScanOutput>) -> Result<(), String> {
        let out = out.map_err(|e| e.to_string())?;
        check_scan(
            &out.report,
            &out.csv,
            out.build_errors,
            &app.profile,
            &app.truth,
        )
    }
}

impl Bench for ScanCold {
    fn setup(&mut self, tally: &mut Tally) -> io::Result<f64> {
        self.round(tally).map(|r| r.scaled_ms)
    }

    fn round(&mut self, tally: &mut Tally) -> io::Result<Round> {
        let mut round = Round::default();
        for app in &self.apps {
            let (out, ms, scaled_ms) = calib::timed(|| self.scan(app));
            round.ms += ms;
            round.scaled_ms += scaled_ms;
            round.kloc += app.kloc;
            tally.record(&app.profile.name, Self::check(app, out));
        }
        Ok(round)
    }

    fn traced_round(&mut self, tally: &mut Tally, ledger: &mut Ledger) -> io::Result<Round> {
        let mut round = Round::default();
        for app in &self.apps {
            let scale = calib::factor();
            let (out, e2e) = self.scan_traced(app, ledger)?;
            round.ms += e2e;
            round.scaled_ms += e2e * scale;
            round.kloc += app.kloc;
            tally.record(&app.profile.name, Self::check(app, Ok(out)));
        }
        Ok(round)
    }
}
