//! The paper's Figure 1a: the NFS-ganesha bitmap-conversion bug.
//!
//! `bitmap4_to_attrmask_t` fetches the first attribute from the source
//! bitmap, then a later author's `for` loop overwrites it before anyone
//! reads it — so the first file attribute (e.g. ownership) is silently
//! dropped from the destination mask: a security bug.
//!
//! This example reconstructs the two-author history, shows that the
//! flow-sensitive detector finds the overwritten definition even though
//! `attr` *is* referenced later (which silences AST-based tools), and that
//! the authorship phase classifies it as cross-scope.
//!
//! ```sh
//! cargo run --example nfs_bitmap_bug
//! ```

use valuecheck::{
    pipeline::{
        run,
        Options, //
    },
    Scenario,
};
use vc_baselines::clang_unused;
use vc_ir::{
    testing::parse_clean,
    FileId,
    Program, //
};
use vc_vcs::{
    FileWrite,
    Repository, //
};

fn main() {
    // Author 1's original conversion: fetch attributes one by one.
    let v1 = "\
int next_attr_from_bitmap(int *bm);
void set_mask_bit(int *mask, int attr);

int bitmap4_to_attrmask_t(int *bm, int *mask) {
  int attr = next_attr_from_bitmap(bm);
  while (attr != -1) {
    set_mask_bit(mask, attr);
    attr = next_attr_from_bitmap(bm);
  }
  return 0;
}
";
    // Author 2 rewrites the loop as a `for` — whose init expression fetches
    // again, overwriting (and losing) the first attribute.
    let v2 = "\
int next_attr_from_bitmap(int *bm);
void set_mask_bit(int *mask, int attr);

int bitmap4_to_attrmask_t(int *bm, int *mask) {
  int attr = next_attr_from_bitmap(bm);
  for (attr = next_attr_from_bitmap(bm); attr != -1; attr = next_attr_from_bitmap(bm)) {
    set_mask_bit(mask, attr);
  }
  return 0;
}
";

    let mut repo = Repository::new();
    let author1 = repo.add_author("author1");
    let author2 = repo.add_author("author2");
    repo.commit(
        author1,
        1_400_000_000,
        "convert NFSv4 bitmap to FSAL mask",
        vec![FileWrite {
            path: "attrs.c".into(),
            content: v1.into(),
        }],
    );
    repo.commit(
        author2,
        1_520_000_000,
        "rewrite conversion loop as for()",
        vec![FileWrite {
            path: "attrs.c".into(),
            content: v2.into(),
        }],
    );

    let prog = Program::build(&[("attrs.c", v2)], &[]).expect("program builds");
    let analysis = run(&prog, &repo, &Options::paper());

    assert_eq!(analysis.detected(), 1);
    let finding = &analysis.ranked[0];
    let cand = &finding.item.candidate;
    assert_eq!(&*cand.var_name, "attr");
    assert!(matches!(cand.scenario, Scenario::RetVal { .. }));
    assert!(finding.item.cross_scope);
    println!(
        "ValueCheck: `{}` at {}:{} is an unused definition, overwritten at line {} \
         (definition author {:?}, overwriter cross-scope: {})",
        cand.var_name,
        analysis.report.rows[0].file,
        cand.span.line(),
        cand.overwriters[0].line(),
        finding.item.def_author.map(|a| repo.author(a).name.clone()),
        finding.item.cross_scope,
    );

    // Clang-style AST walking stays silent: `attr` is referenced, so it is
    // "used" (the precision gap the paper's §8.4.1 describes).
    let module = parse_clean(FileId(0), v2);
    let clang = clang_unused(&[("attrs.c".to_string(), module)]);
    assert!(clang.is_empty());
    println!(
        "Clang -Wunused: silent ({} findings) — attr is referenced later.",
        clang.len()
    );
}
