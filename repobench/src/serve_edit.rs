//! `serve-edit`: an editor waiting on a warm `vcheck serve` engine.
//!
//! Closed loop, one client. A warm `ServeEngine` runs over the mysql-profile
//! tree without a `history.json`: `load_dir_or_empty` rejects a working
//! tree that differs from the history head, so uncommitted edits cannot be
//! served against a history. One operation writes one seeded-random file
//! edit (untimed; it toggles an appended `int vc_probe_N(void) { return 1; }`)
//! and then times `handle_line("{\"op\":\"scan\"}")`.

use std::{
    collections::BTreeSet,
    fs,
    io,
    path::{
        Path,
        PathBuf, //
    }, //
};

use valuecheck::{
    pipeline::Options,
    project::load_dir_or_empty,
    serve::{
        ServeConfig,
        ServeEngine, //
    },
};
use vc_ir::{
    program::ParseCache,
    Program, //
};
use vc_obs::{
    Json,
    SplitMix64, //
};
use vc_workload::{
    generate,
    AppProfile, //
};

use crate::{
    calib, layers,
    ledger::Ledger,
    oracle::{
        check_serve_reply,
        reply_fingerprints,
        Tally, //
    },
    run::{
        Bench,
        Round, //
    },
    scan_cold::{
        write_tree,
        SMALL_SCALE, //
    },
};

const SCAN: &str = "{\"op\":\"scan\"}";

/// Spans the engine records for one scan request, with the per-layer
/// metrics each counts toward (see [`Ledger::adopt`]).
const ENGINE_SPANS: &[(&str, &[&str])] = &[
    ("serve.request", &[]),
    ("pipeline.run", &[]),
    ("serve.parse", &["serve.parse_ms"]),
    ("serve.dirty_closure", &["serve.dirty_closure_ms"]),
    ("stage.detect", &["serve.detect_ms"]),
    ("stage.authorship", &["authorship.ms", "serve.backend_ms"]),
    ("stage.prune", &["prune.ms", "serve.backend_ms"]),
    ("stage.rank", &["rank.ms", "serve.backend_ms"]),
    ("serve.reply", &["report.encode_ms"]),
];

/// The `serve-edit` workload.
pub struct ServeEdit {
    dir: PathBuf,
    sources: Vec<(String, String)>,
    toggled: Vec<bool>,
    rng: SplitMix64,
    config: ServeConfig,
    engine: Option<ServeEngine>,
    /// Finding fingerprints of the first warm-up reply.
    reference: Option<BTreeSet<String>>,
    kloc: f64,
    seq: u64,
    /// The benchmark's own parse cache, replaying the engine's cached
    /// front end over the same edit sequence.
    cache: ParseCache,
}

impl ServeEdit {
    /// Generates the mysql-profile tree for `seed` and writes its sources
    /// (no history) under `dir`.
    pub fn prepare(seed: u64, small: bool, dir: &Path) -> io::Result<ServeEdit> {
        let p = AppProfile {
            seed,
            ..AppProfile::mysql()
        };
        let profile = if small { p.scaled(SMALL_SCALE) } else { p };
        let app = generate(&profile);
        write_tree(dir, &app.sources)?;
        Ok(ServeEdit {
            dir: dir.to_path_buf(),
            toggled: vec![false; app.sources.len()],
            kloc: app.loc() as f64 / 1e3,
            sources: app.sources,
            rng: SplitMix64::new(seed ^ 0xED17),
            config: ServeConfig {
                opts: Options::paper(),
                defines: app.defines,
                ..ServeConfig::default()
            },
            engine: None,
            reference: None,
            seq: 0,
            cache: ParseCache::default(),
        })
    }

    /// Toggles the probe function at the end of one seeded-random file.
    fn edit(&mut self) -> io::Result<()> {
        let i = self.rng.bounded(self.sources.len() as u64) as usize;
        self.toggled[i] = !self.toggled[i];
        let (path, base) = &self.sources[i];
        let content = if self.toggled[i] {
            format!("{base}\nint vc_probe_{i}(void) {{ return 1; }}\n")
        } else {
            base.clone()
        };
        fs::write(self.dir.join(path), content)
    }

    fn engine(&mut self) -> &mut ServeEngine {
        self.engine.as_mut().expect("setup starts the engine")
    }

    fn check(&self, reply: &Json) -> Result<(), String> {
        let reference = self.reference.as_ref().expect("setup sets the reference");
        check_serve_reply(reply, reference)
    }

    /// Work the engine does outside its own spans (project load,
    /// teardown), or inside them on the whole tree (cached build, pointer
    /// partition), repeated from outside on the current tree.
    fn probes(&mut self, l: &mut Ledger, group: usize) -> io::Result<()> {
        let (project, ms) = l.probe("project::load_dir_or_empty", group, || {
            load_dir_or_empty(&self.dir)
        });
        let project = project?;
        l.add("project.load_ms", ms);
        let refs = project.source_refs();
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let (prog, ms) = l.probe("Program::build_recovering_cached", group, || {
            Program::build_recovering_cached(&refs, &self.config.defines, &mut self.cache).0
        });
        l.add("ir.cached_build_ms", ms);
        l.add("n.cache_hits", (self.cache.hits() - hits) as f64);
        l.add("n.cache_misses", (self.cache.misses() - misses) as f64);
        layers::program_counts(l, &prog);
        let opts = self.config.opts;
        let (_, ms) = l.probe("DemandPointer::new", group, || {
            layers::partition_components(&prog, &opts)
        });
        l.add("pointer.partition_ms", ms);
        // The engine frees the same program and project at the end of every
        // request, outside its spans.
        let (_, ms) = l.probe("drop Program + Project", group, || drop((prog, project)));
        l.add("teardown_ms", ms);
        Ok(())
    }
}

impl Bench for ServeEdit {
    /// Engine start plus the cold first scan.
    fn setup(&mut self, tally: &mut Tally) -> io::Result<f64> {
        let (started, _, scaled_ms) = calib::timed(|| {
            let mut engine = ServeEngine::new(&self.dir, self.config.clone())?;
            let (reply, _) = engine.handle_line(SCAN, 0);
            io::Result::Ok((engine, reply))
        });
        let (engine, reply) = started?;
        self.engine = Some(engine);
        let reference = self
            .reference
            .get_or_insert_with(|| reply_fingerprints(&reply));
        tally.record("serve warm-up", check_serve_reply(&reply, reference));
        Ok(scaled_ms)
    }

    fn round(&mut self, tally: &mut Tally) -> io::Result<Round> {
        self.edit()?;
        self.seq += 1;
        let seq = self.seq;
        let (reply, ms, scaled_ms) = calib::timed(|| self.engine().handle_line(SCAN, seq).0);
        tally.record("serve request", self.check(&reply));
        Ok(Round {
            ms,
            scaled_ms,
            kloc: self.kloc,
        })
    }

    fn traced_round(&mut self, tally: &mut Tally, l: &mut Ledger) -> io::Result<Round> {
        self.edit()?;
        if self.cache.is_empty() {
            // Warm the benchmark's parse cache the way set-up warmed the
            // engine's, outside any span.
            let project = load_dir_or_empty(&self.dir)?;
            Program::build_recovering_cached(
                &project.source_refs(),
                &self.config.defines,
                &mut self.cache,
            );
        }
        self.seq += 1;
        let seq = self.seq;
        let first = self.engine().obs().tracer.records().len();
        let scale = calib::factor();
        let op = l.begin_op("serve edit");
        let (reply, call, _) = l.layer("ServeEngine::handle_line", None, op, || {
            self.engine().handle_line(SCAN, seq).0
        });
        let e2e = l.end_op(op);
        let records = self.engine().obs().tracer.records().split_off(first);
        l.adopt(call, &records, ENGINE_SPANS);
        let count = |v: Option<&Json>| v.and_then(Json::as_i64).unwrap_or(0) as f64;
        let funnel = |key: &str| count(reply.get("funnel").and_then(|f| f.get(key)));
        l.add("n.unit_hits", count(reply.get("unit_hits")));
        l.add("n.unit_misses", count(reply.get("unit_misses")));
        layers::funnel(
            l,
            funnel("raw") as u64,
            funnel("cross_scope") as u64,
            funnel("pruned") as u64,
        );
        // Probes run after the request, so they cannot warm it.
        let group = l.begin_probes("probes serve edit");
        self.probes(l, group)?;
        l.end_probes(group);
        l.finish_op();
        tally.record("serve request", self.check(&reply));
        Ok(Round {
            ms: e2e,
            scaled_ms: e2e * scale,
            kloc: self.kloc,
        })
    }
}
