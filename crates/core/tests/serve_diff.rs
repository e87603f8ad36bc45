//! Warm serve replies against cold scans over seeded cross-file edits.
//!
//! A serve unit-cache hit needs the unit key (config, file position, name
//! and bytes, function name and ordinal, pointer fingerprint) and the same
//! lowered function. Together they bind every input of a unit's
//! detection, so the engine re-analyzes nothing else. This test drives
//! one warm `ServeEngine` through seeded sequences of edits that reach a
//! function from *outside* its own file, and after every step compares the
//! reply with a cold `run_sentinel` scan of the same tree, byte for byte:
//!
//! - a callee's body edited in another file;
//! - a callee's prototype retyped (`int` ↔ `void`) in another file, which
//!   gives or takes the caller's ignored call its implicit result store;
//! - a file that sorts first added or removed, shifting every `FileId`
//!   and `FuncId`;
//! - a same-named `static` function added or removed in another file;
//! - a function pointer retargeted in another file, between a defined
//!   function and a library one (a call through it is cross-scope only
//!   in the second case);
//! - a function whose signature does not parse added or removed, which
//!   parse recovery drops with a failure record.

use std::{fs, path::Path};

use valuecheck::{
    pipeline::{run_sentinel, Options},
    project::load_dir_or_empty,
    prune::PruneConfig,
    sentinel::SentinelConfig,
    serve::{ServeConfig, ServeEngine},
};
use vc_ir::Program;
use vc_obs::{rng::SplitMix64, ObsSession};

/// Files `m0.c` .. `m3.c`; each calls into the previous one.
const FILES: usize = 4;

/// What the edits toggle, rendered into source files by [`Tree::write`].
#[derive(Default)]
struct Tree {
    /// Body variant (0..3) of each file's `lib_<i>`.
    body: [u8; FILES],
    /// Whether `ext_<i>`'s prototype in `m<i>.c` returns `void`.
    void_proto: [bool; FILES],
    /// Whether `m<i>.c` defines a `static int helper`.
    helper: [bool; FILES],
    /// Whether `m<i>.c` ends in a function recovery has to drop.
    mangled: [bool; FILES],
    /// Whether `0first.c` exists.
    first: bool,
    /// Whether `hook` points at `lib_handler` rather than `target_a`.
    hook_lib: bool,
}

impl Tree {
    fn file(&self, i: usize) -> String {
        let prev = (i + FILES - 1) % FILES;
        let ret = if self.void_proto[i] { "void" } else { "int" };
        let body = [
            "return n + 1;",
            "int a = n;\n  a = 3;\n  return a;",
            "int b = 2;\n  if (n) {\n    b = n;\n  }\n  return b;",
        ];
        let mut text = format!(
            "{ret} ext_{i}(int n);\nint lib_{i}(int n) {{\n  {}\n}}\nint use_{i}(int n) {{\n  int \
             got = lib_{prev}(n);\n  got = n + 1;\n  ext_{prev}(n);\n  return got;\n}}\n",
            body[self.body[i] as usize]
        );
        if self.helper[i] {
            text += "static int helper(int n) {\n  int t = n;\n  t = 2;\n  return t;\n}\n";
        }
        if i == 0 {
            let target = if self.hook_lib {
                "lib_handler"
            } else {
                "target_a"
            };
            text += &format!(
                "int *hook;\nint lib_handler(void);\nint target_a(void) {{\n  return 1;\n}}\nvoid \
                 install(void) {{\n  hook = {target};\n}}\n"
            );
        } else if i == 1 {
            text += "int run_hook(void) {\n  int r = hook();\n  r = 0;\n  return r;\n}\n";
        }
        if self.mangled[i] {
            text += &format!("vc_mangled_t broken_{i}(void) {{\n  int x = 1;\n  return x;\n}}\n");
        }
        text
    }

    fn write(&self, dir: &Path) {
        for i in 0..FILES {
            fs::write(dir.join(format!("m{i}.c")), self.file(i)).unwrap();
        }
        let first = dir.join("0first.c");
        if self.first {
            let text = "int first_fn(int n) {\n  int z = n;\n  z = 4;\n  return z;\n}\n";
            fs::write(first, text).unwrap();
        } else {
            let _ = fs::remove_file(first);
        }
    }

    /// Applies edit `kind` (0..6), choosing its file with `rng`; says what
    /// it did.
    fn edit(&mut self, kind: usize, rng: &mut SplitMix64) -> String {
        let i = rng.range_usize(0, FILES);
        let flip = |b: &mut bool| {
            *b = !*b;
            *b
        };
        match kind {
            0 => {
                self.body[i] = (self.body[i] + 1 + rng.bounded(2) as u8) % 3;
                format!("lib_{i} body variant {}", self.body[i])
            }
            1 => format!("ext_{i} returns void: {}", flip(&mut self.void_proto[i])),
            2 => format!("0first.c present: {}", flip(&mut self.first)),
            3 => format!("static helper in m{i}.c: {}", flip(&mut self.helper[i])),
            4 => format!("hook -> lib_handler: {}", flip(&mut self.hook_lib)),
            _ => format!("mangled function in m{i}.c: {}", flip(&mut self.mangled[i])),
        }
    }
}

/// A cold batch scan of `dir`, as `vcheck <dir>` runs it.
fn cold(dir: &Path, opts: &Options) -> Vec<u8> {
    let project = load_dir_or_empty(dir).unwrap();
    let (prog, errors, stats) = Program::build_recovering(&project.source_refs(), &[]);
    let obs = ObsSession::new();
    let sconf = SentinelConfig::sequential();
    let mut analysis = run_sentinel(&prog, &project.repo, opts, &sconf, obs.clone());
    (analysis.report).splice_parse_failures(&obs.registry, &errors, &stats);
    analysis.report.canonical_bytes()
}

#[test]
fn warm_replies_match_cold_scans_across_cross_file_edits() {
    // The paper's configuration, and one where every candidate reaches
    // the report (no cross-scope filter, no pruning).
    let everything = Options {
        cross_scope_only: false,
        prune: PruneConfig {
            config_dependency: false,
            cursor: false,
            unused_hints: false,
            peer_definitions: false,
            ..PruneConfig::default()
        },
        ..Options::paper()
    };
    for (name, opts) in [("paper", Options::paper()), ("everything", everything)] {
        for seed in 1..=4u64 {
            let tag = format!("{name}-{seed}-{}", std::process::id());
            let dir = std::env::temp_dir().join(format!("vc-serve-diff-{tag}"));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            let mut tree = Tree::default();
            tree.helper[0] = true;
            tree.write(&dir);
            let config = ServeConfig {
                opts,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(&dir, config).unwrap();
            let first = engine.scan(None).unwrap();
            assert_eq!(first.report.canonical_bytes(), cold(&dir, &opts));

            // Every kind of edit twice, in a seeded order.
            let mut rng = SplitMix64::new(seed);
            let mut kinds: Vec<usize> = (0..6).chain(0..6).collect();
            rng.shuffle(&mut kinds);
            let mut hits = 0;
            for (step, kind) in kinds.into_iter().enumerate() {
                let what = tree.edit(kind, &mut rng);
                tree.write(&dir);
                let warm = engine.scan(None).unwrap();
                hits += warm.unit_hits;
                assert!(
                    warm.report.canonical_bytes() == cold(&dir, &opts),
                    "{tag} step {step} ({what}): warm reply differs from a cold scan:\n{}",
                    warm.report.to_csv()
                );
            }
            assert!(hits > 0, "{tag}: the unit cache was exercised");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
