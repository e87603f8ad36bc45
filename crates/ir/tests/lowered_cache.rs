//! Differential test for the lowered-file cache: seeded edit sequences on
//! one warm `ParseCache`, where after every step the warm build must equal
//! a cold `build_recovering` of the same tree byte for byte (IR text and
//! structure of every function, externs, globals, struct layouts, errors,
//! recovery stats).
//!
//! The edits target what lowering reads from *other* files: a prototype's
//! return type decides whether an ignored call result gets its implicit
//! `[tmp] = f(...)` store, a global's type and a struct's field order
//! decide field indices, and a name that used to be unknown can start to
//! resolve. Renames, reorders, `defines` changes and a corrupted-then-
//! restored file ride along.

use vc_ir::{
    program::{
        ParseCache,
        Program, //
    },
    testing::build_text,
};
use vc_obs::SplitMix64;

/// The prototype of `ext` in `decls.c`, which `user.c` calls and ignores.
const PROTOS: &[&str] = &[
    "int ext(int n);\n",
    "",
    "void ext(int n);\n",
    "long ext(int n);\n",
];
/// The type of the global `g_ctx`, dereferenced as a struct in `user.c`.
const CTX_TYPES: &[&str] = &["struct ctx *", "int ", "struct other *"];
/// The type of the global `g_mode`.
const MODE_TYPES: &[&str] = &["int ", "char *", "long "];
/// The layout of `struct ctx`.
const LAYOUTS: &[&str] = &[
    "struct ctx { int mode; char *host; };\n",
    "struct ctx { char *host; int mode; };\n",
    "struct ctx { int mode; char *host; int port; };\n",
    "",
];

const USER: &str = "\
int use_ext(int n) {
  ext(n);
  return 0;
}
int use_global(int n) {
  g_mode = 2;
  return n ? g_mode : 1;
}
int use_field(struct ctx *c) {
  c->host = 0;
  c->mode = 1;
  g_ctx->mode = 3;
  return c->mode;
}
int use_late_fn(int n) {
  late_fn(n);
  return 0;
}
int use_late_var(void) {
  return late_var;
}
void use_config(int x) {
  int y = x;
#ifdef FEATURE
  y = 2;
  ext(y);
#endif
  use_ext(y);
}
";

/// The tree, as the indices of each editable choice.
#[derive(Clone, Debug, Default)]
struct Tree {
    proto: usize,
    ctx_type: usize,
    mode_type: usize,
    layout: usize,
    /// `other.c` declares the global `late_var`.
    late_var: bool,
    /// `other.c` defines `int late_fn(int)`.
    late_fn: bool,
    /// Builds run with `FEATURE` defined.
    feature: bool,
    /// `other.c` is named `more.c`.
    renamed: bool,
    /// Rotation of the file order.
    rotation: usize,
    /// The file (by unrotated index) whose second half is cut off.
    corrupted: Option<usize>,
}

impl Tree {
    fn files(&self) -> Vec<(String, String)> {
        let decls = format!(
            "{}{}{}g_ctx;\n{}g_mode;\n",
            PROTOS[self.proto],
            LAYOUTS[self.layout],
            CTX_TYPES[self.ctx_type],
            MODE_TYPES[self.mode_type],
        );
        let mut other = String::from("int helper(int a) { return a * 2; }\n");
        if self.late_var {
            other.push_str("int late_var;\n");
        }
        if self.late_fn {
            other.push_str("int late_fn(int x) { return x + 1; }\n");
        }
        let other_name = if self.renamed { "more.c" } else { "other.c" };
        let mut files = vec![
            ("decls.c".to_string(), decls),
            ("user.c".to_string(), USER.to_string()),
            (other_name.to_string(), other),
        ];
        if let Some(i) = self.corrupted {
            let text = &mut files[i].1;
            text.truncate(text.len() / 2);
        }
        files.rotate_left(self.rotation);
        files
    }

    fn defines(&self) -> Vec<String> {
        if self.feature {
            vec!["FEATURE".to_string()]
        } else {
            Vec::new()
        }
    }

    /// Applies one seeded edit and names it.
    fn edit(&mut self, rng: &mut SplitMix64) -> String {
        let mut pick = |n: usize| rng.bounded(n as u64) as usize;
        match pick(8) {
            0 => {
                self.proto = pick(PROTOS.len());
                format!("prototype of ext -> {:?}", PROTOS[self.proto])
            }
            1 => {
                self.ctx_type = pick(CTX_TYPES.len());
                self.mode_type = pick(MODE_TYPES.len());
                format!(
                    "global types -> {:?} g_ctx, {:?} g_mode",
                    CTX_TYPES[self.ctx_type], MODE_TYPES[self.mode_type]
                )
            }
            2 => {
                self.layout = pick(LAYOUTS.len());
                format!("layout -> {:?}", LAYOUTS[self.layout])
            }
            3 => {
                self.late_var = !self.late_var;
                format!("global late_var declared: {}", self.late_var)
            }
            4 => {
                self.late_fn = !self.late_fn;
                format!("function late_fn defined: {}", self.late_fn)
            }
            5 => {
                self.feature = !self.feature;
                format!("FEATURE defined: {}", self.feature)
            }
            6 => {
                if pick(2) == 0 {
                    self.renamed = !self.renamed;
                    format!("other.c renamed: {}", self.renamed)
                } else {
                    self.rotation = pick(3);
                    format!("files rotated by {}", self.rotation)
                }
            }
            _ => {
                self.corrupted = match self.corrupted {
                    Some(_) => None,
                    None => Some(pick(3)),
                };
                format!("corrupted file: {:?}", self.corrupted)
            }
        }
    }
}

/// The warm build of `tree` on `cache`, and the cold build, as text.
fn warm_and_cold(tree: &Tree, cache: &mut ParseCache) -> (String, String) {
    let files = tree.files();
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, c)| (n.as_str(), c.as_str()))
        .collect();
    let defines = tree.defines();
    let (prog, errors, stats) = Program::build_recovering_cached(&refs, &defines, cache);
    let warm = build_text(&prog, &errors, &stats);
    let (prog, errors, stats) = Program::build_recovering(&refs, &defines);
    (warm, build_text(&prog, &errors, &stats))
}

#[test]
fn seeded_edit_sequences_match_cold_builds() {
    let mut total_hits = 0;
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let mut tree = Tree::default();
        let mut cache = ParseCache::default();
        let mut history = Vec::new();
        for step in 0..40 {
            let (warm, cold) = warm_and_cold(&tree, &mut cache);
            assert_eq!(warm, cold, "seed {seed} step {step} after {history:#?}");
            history.push(tree.edit(&mut rng));
        }
        total_hits += cache.hits();
    }
    assert!(total_hits > 0, "some steps reuse lowered files");
}

#[test]
fn each_declaration_edit_reaches_its_dependent_file() {
    // Every single edit of a declaration in `decls.c` or `other.c` changes
    // `user.c`'s lowering, so a cache that ignored the dependency would
    // fail the comparison. Check that the edit is visible cold, and that
    // the warm build follows.
    let edits: [fn(&mut Tree); 6] = [
        |t| t.proto = 2,
        |t| t.ctx_type = 1,
        |t| t.mode_type = 1,
        |t| t.layout = 1,
        |t| t.late_var = true,
        |t| t.late_fn = true,
    ];
    for (i, edit) in edits.iter().enumerate() {
        let base = Tree::default();
        let mut cache = ParseCache::default();
        let (before, _) = warm_and_cold(&base, &mut cache);
        let mut tree = base.clone();
        edit(&mut tree);
        let (warm, cold) = warm_and_cold(&tree, &mut cache);
        let user = |text: &str| {
            text.split("func ")
                .filter(|f| f.starts_with("use_"))
                .collect::<String>()
        };
        assert!(user(&before) != user(&cold), "edit {i} changes user.c's IR");
        assert_eq!(warm, cold, "edit {i}");
    }
}

#[test]
fn an_unreferenced_new_function_relowers_only_its_file() {
    let tree = Tree::default();
    let mut cache = ParseCache::default();
    let _ = warm_and_cold(&tree, &mut cache);
    let (hits, misses) = (cache.hits(), cache.misses());
    assert_eq!((hits, misses), (0, 3));

    let mut files = tree.files();
    files[2].1.push_str("int vc_probe(void) { return 1; }\n");
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, c)| (n.as_str(), c.as_str()))
        .collect();
    let (prog, errors, stats) = Program::build_recovering_cached(&refs, &[], &mut cache);
    assert_eq!(cache.misses(), misses + 1, "only the edited file re-lowers");
    assert_eq!(cache.hits(), hits + 2);
    let (cold, cold_errors, cold_stats) = Program::build_recovering(&refs, &[]);
    assert_eq!(
        build_text(&prog, &errors, &stats),
        build_text(&cold, &cold_errors, &cold_stats)
    );
    assert!(prog.defines_function("vc_probe"));
}
