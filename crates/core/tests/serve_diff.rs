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
//!
//! A second test adds and removes callers that ignore or use one library
//! function's result, so that its peer counts cross the ≥10 / >50% peer
//! rule in both directions, and compares every reply the same way.

use std::{fs, path::Path};

use valuecheck::{
    pipeline::Options,
    prune::PruneConfig,
    serve::{ServeConfig, ServeEngine},
};
use vc_obs::rng::SplitMix64;

mod common;
use common::{cold_canonical, write_tree};

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
            let tag = format!("{name}-{seed}");
            let dir = write_tree::<&str, &str>(&format!("serve-diff-{tag}"), &[]);
            let mut tree = Tree::default();
            tree.helper[0] = true;
            tree.write(&dir);
            let config = ServeConfig {
                opts,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(&dir, config).unwrap();
            let first = engine.scan(None).unwrap();
            assert_eq!(first.report.canonical_bytes(), cold_canonical(&dir, &opts));

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
                    warm.report.canonical_bytes() == cold_canonical(&dir, &opts),
                    "{tag} step {step} ({what}): warm reply differs from a cold scan:\n{}",
                    warm.report.to_csv()
                );
            }
            assert!(hits > 0, "{tag}: the unit cache was exercised");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Callers of the library function `lib_log` spread over `m0.c` ..
/// `m3.c`: per file, how many ignore its result and how many use it.
/// `m0.c` also holds `target_fn`, whose first store of the result is dead.
#[derive(Default)]
struct Peers {
    ignorers: [Vec<usize>; FILES],
    users: [Vec<usize>; FILES],
}

impl Peers {
    fn write(&self, dir: &Path) {
        for i in 0..FILES {
            let mut text = String::from("int lib_log(int n);\n");
            if i == 0 {
                text +=
                    "int target_fn(int n) {\n  int got = lib_log(n);\n  got = n + 2;\n  return \
                         got;\n}\n";
            }
            for k in &self.ignorers[i] {
                text += &format!("void ign_{k}(int n) {{\n  lib_log(n);\n}}\n");
            }
            for k in &self.users[i] {
                text += &format!("int use_{k}(int n) {{\n  int r = lib_log(n);\n  return r;\n}}\n");
            }
            fs::write(dir.join(format!("m{i}.c")), text).unwrap();
        }
    }
}

#[test]
fn warm_replies_match_cold_scans_as_peer_counts_cross_the_threshold() {
    // `lib_log` has ignorers + users + 1 call sites, ignorers + 1 of them
    // unused. Its candidates are pruned once there are at least 10 sites
    // and more than half are unused. The phases move the count and the
    // ratio across that rule in both directions: ignoring callers are
    // added (count crosses 10), removed (back under 10), added again, and
    // then using callers are added until the unused share drops to half.
    #[derive(Clone, Copy, Debug)]
    enum Edit {
        AddIgnorer,
        RemoveIgnorer,
        AddUser,
    }
    let phases = [
        (6, Edit::AddIgnorer),
        (6, Edit::RemoveIgnorer),
        (6, Edit::AddIgnorer),
        (9, Edit::AddUser),
    ];
    for seed in 1..=3u64 {
        let tag = format!("peers-{seed}");
        let dir = write_tree::<&str, &str>(&format!("serve-diff-{tag}"), &[]);
        let mut peers = Peers::default();
        peers.ignorers[1].push(0);
        peers.ignorers[2].push(1);
        peers.ignorers[3].push(2);
        peers.users[1].push(3);
        peers.users[2].push(4);
        peers.write(&dir);
        let opts = Options::paper();
        let mut engine = ServeEngine::new(&dir, ServeConfig::default()).unwrap();
        assert_eq!(
            engine.scan(None).unwrap().report.canonical_bytes(),
            cold_canonical(&dir, &opts)
        );

        let mut rng = SplitMix64::new(seed);
        let mut next = 5;
        let mut reported = Vec::new();
        for (phase, &(steps, edit)) in phases.iter().enumerate() {
            for step in 0..steps {
                let i = match edit {
                    Edit::RemoveIgnorer => {
                        let callers: Vec<usize> = (0..FILES)
                            .filter(|&f| !peers.ignorers[f].is_empty())
                            .collect();
                        let i = *rng.choice(&callers);
                        let k = rng.range_usize(0, peers.ignorers[i].len());
                        peers.ignorers[i].remove(k);
                        i
                    }
                    Edit::AddIgnorer | Edit::AddUser => {
                        let i = rng.range_usize(0, FILES);
                        let list = match edit {
                            Edit::AddUser => &mut peers.users[i],
                            _ => &mut peers.ignorers[i],
                        };
                        list.push(next);
                        next += 1;
                        i
                    }
                };
                peers.write(&dir);
                let warm = engine.scan(None).unwrap();
                assert!(
                    warm.report.canonical_bytes() == cold_canonical(&dir, &opts),
                    "{tag} phase {phase} step {step} ({edit:?} in m{i}.c): warm reply differs \
                     from a cold scan:\n{}",
                    warm.report.to_csv()
                );
                reported.push(warm.report.rows.iter().any(|r| r.function == "target_fn"));
            }
        }
        // The rule flipped both ways: target_fn was pruned, came back,
        // was pruned again and came back once more.
        let flips: Vec<bool> = reported
            .windows(2)
            .filter(|w| w[0] != w[1])
            .map(|w| w[1])
            .collect();
        assert_eq!(flips, vec![false, true, false, true], "{tag}: {reported:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
