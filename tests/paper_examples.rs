//! Cross-crate integration tests reconstructing the paper's figures:
//! Fig. 1a (bitmap attribute), Fig. 1b (bufsz), Fig. 5 (cursor), Fig. 6b
//! (semantic host bug), and Fig. 8 (the bug only ValueCheck finds).

use std::collections::HashSet;

use valuecheck::{
    pipeline::{
        run,
        Options, //
    },
    Scenario,
};
use vc_baselines::{
    clang_unused,
    coverity_unused,
    infer_unused,
    smatch_unused, //
};
use vc_ir::{
    testing::parse_clean,
    FileId,
    Program, //
};
use vc_vcs::{
    FileWrite,
    Repository, //
};

/// Builds a two-commit history: `author1` writes `v1`, `author2` writes `v2`.
fn two_authors(path: &str, v1: &str, v2: &str) -> Repository {
    let mut repo = Repository::new();
    let a1 = repo.add_author("author1");
    let a2 = repo.add_author("author2");
    repo.commit(
        a1,
        1_400_000_000,
        "original",
        vec![FileWrite {
            path: path.into(),
            content: v1.into(),
        }],
    );
    repo.commit(
        a2,
        1_500_000_000,
        "rework",
        vec![FileWrite {
            path: path.into(),
            content: v2.into(),
        }],
    );
    repo
}

#[test]
fn figure_1a_bitmap_attribute_bug() {
    let v1 = "int next_attr(int *bm);\n\
              void set_bit(int *m, int a);\n\
              int conv(int *bm, int *m) {\n\
              int attr = next_attr(bm);\n\
              while (attr != -1) { set_bit(m, attr); attr = next_attr(bm); }\n\
              return 0;\n\
              }\n";
    let v2 = "int next_attr(int *bm);\n\
              void set_bit(int *m, int a);\n\
              int conv(int *bm, int *m) {\n\
              int attr = next_attr(bm);\n\
              for (attr = next_attr(bm); attr != -1; attr = next_attr(bm)) { set_bit(m, attr); }\n\
              return 0;\n\
              }\n";
    let repo = two_authors("attrs.c", v1, v2);
    let prog = Program::build(&[("attrs.c", v2)], &[]).unwrap();
    let analysis = run(&prog, &repo, &Options::paper());
    assert_eq!(analysis.detected(), 1);
    let cand = &analysis.ranked[0].item.candidate;
    assert_eq!(&*cand.var_name, "attr");
    assert_eq!(cand.span.line(), 4);
    assert_eq!(cand.overwriters.len(), 1);
    assert_eq!(cand.overwriters[0].line(), 5);
}

#[test]
fn figure_1b_bufsz_configuration_bug() {
    let logfile = "void setup(char *p, size_t n);\n\
                   int logfile_mod_open(char *path, size_t bufsz) {\n\
                   bufsz = 1400;\n\
                   if (bufsz > 0) { setup(path, bufsz); }\n\
                   return 0;\n\
                   }\n";
    let caller = "int logfile_mod_open(char *path, size_t bufsz);\n\
                  void keep(int h);\n\
                  void init(void) {\n\
                  int h = logfile_mod_open(\"headers.log\", 0);\n\
                  keep(h);\n\
                  }\n";
    let mut repo = Repository::new();
    let author2 = repo.add_author("author2");
    let author1 = repo.add_author("author1");
    repo.commit(
        author2,
        1_400_000_000,
        "log module",
        vec![FileWrite {
            path: "logfile.c".into(),
            content: logfile.into(),
        }],
    );
    repo.commit(
        author1,
        1_450_000_000,
        "wire logging",
        vec![FileWrite {
            path: "main.c".into(),
            content: caller.into(),
        }],
    );
    let prog = Program::build(&[("logfile.c", logfile), ("main.c", caller)], &[]).unwrap();
    let analysis = run(&prog, &repo, &Options::paper());
    let bufsz = analysis
        .ranked
        .iter()
        .find(|r| &*r.item.candidate.var_name == "bufsz")
        .expect("bufsz finding");
    assert!(matches!(
        bufsz.item.candidate.scenario,
        Scenario::Param { index: 1 }
    ));
    assert!(bufsz.item.cross_scope);
}

#[test]
fn figure_5_cursor_is_pruned_not_reported() {
    // dashes_to_underscores: the trailing `*o++ = '\0'` is a cursor. The
    // overwrite by a second author makes it cross-scope, but the cursor
    // pruner removes it.
    let v1 = "void dashes(char *i, char *o) {\n\
              while (*i) { if (*i == '-') { *o++ = '_'; } i++; }\n\
              *o++ = '\\0';\n\
              }\n";
    let v2 = "char *reset_out(void);\n\
              void use_out(char *o);\n\
              void dashes(char *i, char *o) {\n\
              while (*i) { if (*i == '-') { *o++ = '_'; } i++; }\n\
              *o++ = '\\0';\n\
              o = reset_out();\n\
              use_out(o);\n\
              }\n";
    let repo = two_authors("fmt.c", v1, v2);
    let prog = Program::build(&[("fmt.c", v2)], &[]).unwrap();
    let analysis = run(&prog, &repo, &Options::paper());
    assert_eq!(analysis.detected(), 0, "{:?}", analysis.report.rows);
    assert_eq!(
        analysis.pruned_by(valuecheck::PruneReason::Cursor),
        1,
        "cursor must be pruned, not reported"
    );
}

#[test]
fn figure_6b_wrong_host_semantic_bug() {
    // `to_host` assigned but the call uses the wrong variable afterwards.
    let v1 = "int make_host(int id);\n\
              void assign_host(int h, int *sctx);\n\
              void setup(int id, int *sctx) {\n\
              int to_host = make_host(id);\n\
              assign_host(to_host, sctx);\n\
              }\n";
    let v2 = "int make_host(int id);\n\
              void assign_host(int h, int *sctx);\n\
              void setup(int id, int *sctx) {\n\
              int to_host = make_host(id);\n\
              assign_host(id, sctx);\n\
              }\n";
    let repo = two_authors("host.c", v1, v2);
    let prog = Program::build(&[("host.c", v2)], &[]).unwrap();
    let analysis = run(&prog, &repo, &Options::paper());
    assert_eq!(analysis.detected(), 1);
    assert_eq!(&*analysis.ranked[0].item.candidate.var_name, "to_host");
}

#[test]
fn figure_8_only_valuecheck_detects() {
    // get_permset's result is overwritten; `ret` is referenced in `if (ret)`
    // so AST tools consider it used, and Coverity cannot infer a
    // single-call-site function's contract.
    let v1 = "int get_permset(int en);\n\
              int calc_mask(int *acl);\n\
              void handle_err(int r);\n\
              int fsal_acl(int en, int *acl) {\n\
              int ret = get_permset(en);\n\
              if (ret) { handle_err(ret); }\n\
              return 0;\n\
              }\n";
    let v2 = "int get_permset(int en);\n\
              int calc_mask(int *acl);\n\
              void handle_err(int r);\n\
              int fsal_acl(int en, int *acl) {\n\
              int ret = get_permset(en);\n\
              ret = calc_mask(acl);\n\
              if (ret) { handle_err(ret); }\n\
              return 0;\n\
              }\n";
    let repo = two_authors("acl.c", v1, v2);
    let prog = Program::build(&[("acl.c", v2)], &[]).unwrap();

    // ValueCheck: detected, cross-scope, attributed to author2.
    let analysis = run(&prog, &repo, &Options::paper());
    assert_eq!(analysis.detected(), 1);
    assert_eq!(&*analysis.ranked[0].item.candidate.var_name, "ret");

    // Clang: silent (ret is referenced).
    let module = parse_clean(FileId(0), v2);
    assert!(clang_unused(&[("acl.c".to_string(), module.clone())]).is_empty());

    // Smatch: silent on the unused-return pattern (syntactic read exists).
    let smatch = smatch_unused(&[("acl.c".to_string(), module)]);
    assert!(
        smatch.iter().all(|f| f.kind != "unused-return"),
        "{smatch:?}"
    );

    // Coverity: the unchecked-return arm cannot fire (single call site) —
    // but its dead-store arm does see the overwritten call result. The
    // *combination* the paper highlights is the ignored-result variant:
    let v2_ignored = v2.replace("int ret = get_permset(en);\n", "get_permset(en);\n");
    let v2_ignored = v2_ignored.replace("ret = calc_mask(acl);", "int ret = calc_mask(acl);");
    let prog2 = Program::build(&[("acl.c", v2_ignored.as_str())], &[]).unwrap();
    let cov = coverity_unused(&prog2, &HashSet::new());
    assert!(
        cov.iter().all(|f| f.kind != "unchecked-return"),
        "single call site must be uninferable: {cov:?}"
    );

    // Infer: does see this dead store (it is flow-sensitive) — and the
    // paper confirms every true Infer finding is also a ValueCheck finding.
    let infer = infer_unused(&prog);
    assert_eq!(infer.len(), 1);
    assert_eq!(infer[0].variable, "ret");
}
