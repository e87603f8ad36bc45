//! `history-replay`: `vcheck history` over a scripted 30-commit history.
//!
//! Closed loop, one caller. One operation is one `history::history_scan`
//! over `generate_life` output: every commit is snapshotted, rebuilt and
//! scanned, and consecutive commits are classified by `delta::classify`.
//! No `history.json` is involved.

use std::{
    collections::HashSet,
    hint::black_box,
    io, //
};

use valuecheck::{
    delta::{
        classify,
        scan_revision,
        RevScan, //
    },
    history::history_scan,
    pipeline::Options,
    sentinel::SentinelConfig,
    suppress::SuppressStore,
};
use vc_ir::{
    program::BuildError,
    Program, //
};
use vc_obs::ObsSession;
use vc_workload::{
    generate_life,
    LifeProfile,
    LifeWorkload, //
};

use crate::{
    calib, layers,
    ledger::Ledger,
    oracle::{
        check_replay,
        Fates,
        Tally, //
    },
    run::{
        Bench,
        Round, //
    },
    scan_cold::sentinel_config,
};

/// The replayed history's shape for `seed`.
pub fn life_profile(seed: u64, small: bool) -> LifeProfile {
    if small {
        LifeProfile {
            seed,
            commits: 6,
            live: 4,
            fixed: 2,
            suppressed: 2,
            churned: 2,
            files: 3,
            drift_lines: 3,
        }
    } else {
        LifeProfile {
            seed,
            commits: 30,
            live: 80,
            fixed: 48,
            suppressed: 32,
            churned: 16,
            files: 16,
            drift_lines: 6,
        }
    }
}

/// The `history-replay` workload.
pub struct HistoryReplay {
    w: LifeWorkload,
    /// Source KLOC over every replayed revision.
    kloc: f64,
    opts: Options,
    sconf: SentinelConfig,
}

impl HistoryReplay {
    /// Generates the scripted history for `seed` (in memory).
    pub fn prepare(seed: u64, small: bool) -> HistoryReplay {
        let w = generate_life(&life_profile(seed, small));
        let lines: usize = w
            .commits
            .iter()
            .flat_map(|&c| w.repo.snapshot_at(c).into_values())
            .map(|src| src.lines().count())
            .sum();
        HistoryReplay {
            w,
            kloc: lines as f64 / 1e3,
            opts: Options::paper(),
            sconf: sentinel_config(),
        }
    }

    fn replay(&self) -> Result<Fates, String> {
        let out = history_scan(
            &self.w.repo,
            &[],
            &self.opts,
            &self.sconf,
            SuppressStore::default(),
            ObsSession::new(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Fates::from_outcome(&out))
    }

    /// The same replay in a layer span, with the program's own
    /// `history.scan` and per-commit pipeline spans adopted under it; then
    /// the probes. Returns the fates and the operation's milliseconds.
    fn replay_traced(&self, l: &mut Ledger) -> io::Result<(Result<Fates, String>, f64)> {
        let op = l.begin_op("vcheck history");
        let obs = ObsSession::new();
        let (out, call, _) = l.layer("history::history_scan", None, op, || {
            history_scan(
                &self.w.repo,
                &[],
                &self.opts,
                &self.sconf,
                SuppressStore::default(),
                obs.clone(),
            )
        });
        let e2e = l.end_op(op);
        l.adopt(call, &obs.tracer.records(), layers::HISTORY_SPANS);
        let fates = out.map_err(|e| e.to_string()).map(|out| {
            for agg in &out.db.aggs {
                let pruned = agg.pruned.iter().map(|(_, n)| n).sum();
                layers::funnel(l, agg.raw, agg.cross_scope, pruned);
            }
            Fates::from_outcome(&out)
        });

        let group = l.begin_probes("probes history");
        self.probes(l, group)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        l.end_probes(group);
        l.finish_op();
        Ok((fates, e2e))
    }

    /// Re-runs each commit's `delta::scan_revision` and each consecutive
    /// pair's `delta::classify`, which the replay makes but does not span,
    /// and splits a revision's scan into snapshots, build and detection.
    fn probes(&self, l: &mut Ledger, group: usize) -> Result<(), BuildError> {
        let repo = &self.w.repo;
        let mut prev: Option<RevScan> = None;
        for commit in repo.commits().iter().map(|c| c.id) {
            l.add("vcs.commits", 1.0);
            let (scan, ms) = l.probe("delta::scan_revision", group, || {
                scan_revision(
                    repo,
                    commit,
                    &[],
                    &self.opts,
                    &self.sconf,
                    ObsSession::new(),
                )
            });
            let scan = scan?;
            l.add("history.revision_ms", ms);
            if let Some(p) = &prev {
                let (_, ms) = l.probe("delta::classify", group, || {
                    classify(
                        &p.findings,
                        &scan.findings,
                        &p.sources,
                        &scan.sources,
                        &HashSet::new(),
                    )
                });
                l.add("delta.classify_ms", ms);
            }
            // `scan_revision` snapshots the commit twice and checks it out
            // once.
            let (tree, ms) = l.probe("Repository::snapshot_at x2 + checkout", group, || {
                black_box(repo.checkout(commit));
                black_box(repo.snapshot_at(commit));
                repo.snapshot_at(commit)
            });
            l.add("vcs.snapshot_ms", ms);
            let mut refs: Vec<(&str, &str)> =
                tree.iter().map(|(p, c)| (p.as_str(), c.as_str())).collect();
            refs.sort();
            let (prog, build_ms) = l.probe("Program::build", group, || Program::build(&refs, &[]));
            let prog = prog?;
            layers::split_front_end(l, group, &refs, build_ms);
            layers::program_counts(l, &prog);
            layers::detect_probes(l, group, &prog, &self.opts);
            prev = Some(scan);
        }
        Ok(())
    }
}

impl Bench for HistoryReplay {
    fn setup(&mut self, tally: &mut Tally) -> io::Result<f64> {
        self.round(tally).map(|r| r.scaled_ms)
    }

    fn round(&mut self, tally: &mut Tally) -> io::Result<Round> {
        let (fates, ms, scaled_ms) = calib::timed(|| self.replay());
        tally.record("replay", fates.and_then(|f| check_replay(&f, &self.w)));
        Ok(Round {
            ms,
            scaled_ms,
            kloc: self.kloc,
        })
    }

    fn traced_round(&mut self, tally: &mut Tally, ledger: &mut Ledger) -> io::Result<Round> {
        let scale = calib::factor();
        let (fates, e2e) = self.replay_traced(ledger)?;
        tally.record("replay", fates.and_then(|f| check_replay(&f, &self.w)));
        Ok(Round {
            ms: e2e,
            scaled_ms: e2e * scale,
            kloc: self.kloc,
        })
    }
}
