//! Pins the front end's observable behaviour: how literal and directive
//! bytes decode, the exact wording of lex and parse diagnostics, and the
//! recovered module of corrupted sources.
//!
//! The expected values were taken from the front end as it stood before
//! tokens became `Copy` ranges into the source; any difference here is a
//! change in output, not in representation.

use vc_ir::{
    ast::{
        Expr,
        ExprKind,
        Guard,
        Item,
        Module,
        StmtKind, //
    },
    parser::parse_recovering,
    span::FileId,
    testing::{
        parse_clean,
        source_from_seed, //
    },
};
use vc_obs::SplitMix64;
use vc_workload::{
    corrupt::{
        corrupt,
        plant_fault_file,
        CorruptKind, //
    },
    generate,
    AppProfile, //
};

fn messages(src: &str) -> Vec<String> {
    parse_recovering(FileId(0), src)
        .1
        .iter()
        .map(|e| e.to_string())
        .collect()
}

/// The first diagnostic of a malformed source; lex errors come first.
fn first_message(src: &str) -> String {
    messages(src)
        .into_iter()
        .next()
        .expect("source is malformed")
}

fn first_body(m: &Module) -> &[vc_ir::ast::Stmt] {
    m.items
        .iter()
        .find_map(|i| match i {
            Item::Func(f) => Some(f.body.stmts.as_slice()),
            _ => None,
        })
        .expect("a function")
}

#[test]
fn string_literal_decodes_bytewise_as_latin1() {
    // `é` is the UTF-8 pair C3 A9; each byte becomes one char.
    let m = parse_clean(FileId(0), "void f(void) { log(\"h\u{e9}\\t!\"); }");
    let StmtKind::Expr(Expr {
        kind: ExprKind::Call { args, .. },
        ..
    }) = &first_body(&m)[0].kind
    else {
        panic!("expected a call statement");
    };
    assert!(matches!(&args[0].kind, ExprKind::StrLit(s) if s == "h\u{c3}\u{a9}\t!"));
}

#[test]
fn error_token_inside_a_multibyte_char_is_described_without_panicking() {
    // Each byte of `é` is its own invalid token; the parser then meets one
    // where it expects `;` or an expression.
    assert_eq!(
        messages("int f(void) { return 1 \u{e9}; }\n"),
        [
            "parse error at 1:24: unexpected character `\u{c3}`",
            "parse error at 1:25: unexpected character `\u{a9}`",
            "parse error at 1:24: expected Semi, found invalid token",
        ]
    );
    assert_eq!(
        messages("int x = \u{20ac};\n"),
        [
            "parse error at 1:9: unexpected character `\u{e2}`",
            "parse error at 1:10: unexpected character `\u{82}`",
            "parse error at 1:11: unexpected character `\u{ac}`",
            "parse error at 1:9: expected an expression, found invalid token",
        ]
    );
}

#[test]
fn guard_symbol_with_nbsp_keeps_its_latin1_split() {
    // NBSP is C2 A0; read as Latin-1, A0 is whitespace and C2 is not.
    let m = parse_clean(
        FileId(0),
        "void f(void) {\n#ifdef FOO\u{a0}BAR\nuse();\n#endif\n#ifndef \u{a0}X\nuse();\n#endif\n}\n",
    );
    let body = first_body(&m);
    assert_eq!(body[0].guards, [Guard::Defined("FOO\u{c2}".into())]);
    assert_eq!(body[1].guards, [Guard::NotDefined("\u{c2}".into())]);
}

#[test]
fn token_descriptions_are_unchanged() {
    assert_eq!(
        first_message("int f(void) { return x y; }"),
        "parse error at 1:24: expected Semi, found identifier `y`"
    );
    assert_eq!(
        first_message("int f(void) { return 1\n#ifdef A\n; }"),
        "parse error at 2:1: expected Semi, found HashIf(\"A\")"
    );
    assert_eq!(
        first_message("int f(void) { return 1\n#ifndef B\u{a0}C\n; }"),
        "parse error at 2:1: expected Semi, found HashIfNot(\"B\u{c2}\")"
    );
    assert_eq!(
        first_message("int f(void) { return \"s\" 0x1F; }"),
        "parse error at 1:26: expected Semi, found integer `31`"
    );
    assert_eq!(
        first_message("struct 7 { int a; };"),
        "parse error at 1:8: expected identifier, found integer `7`"
    );
    assert_eq!(
        first_message("int f(void) { int a = 0x; }"),
        "parse error at 1:23: invalid integer literal ``"
    );
    assert_eq!(
        first_message("int f(void) { int a = 12abu; }"),
        "parse error at 1:23: invalid integer literal `12abu`"
    );
    assert_eq!(
        first_message("int f(void) { return 1 \"s\"; }"),
        "parse error at 1:24: expected Semi, found string literal"
    );
    assert_eq!(
        first_message("#include <x.h>\n"),
        "parse error at 1:1: unsupported directive `#include`"
    );
    assert_eq!(
        first_message("void f(int a __attribute__((c(o)ld))) { }"),
        "parse error at 1:14: unsupported attribute `cold`"
    );
    assert_eq!(
        first_message("void f(int a [[nodiscard]]) { }"),
        "parse error at 1:14: unsupported attribute `nodiscard`"
    );
}

/// FNV-1a over the module's `Debug` form: pins the whole AST, spans
/// included, without storing it.
fn ast_digest(m: &Module) -> u64 {
    format!("{m:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn render(out: &mut String, label: &str, src: &str) {
    let (m, errors) = parse_recovering(FileId(0), src);
    out.push_str(&format!(
        "== {label}: {} items, ast {:016x}\n",
        m.items.len(),
        ast_digest(&m)
    ));
    for e in errors {
        out.push_str(&format!("{e}\n"));
    }
}

/// Junk a damaged checkout can contain: non-ASCII bytes, a no-break space
/// inside a guard, unterminated literals, unsupported directives.
const JUNK: &[&str] = &[
    "\u{e9}\u{a0}@ x = 1;",
    "#ifdef CONFIG\u{a0}NET",
    "log(\"unterminated",
    "#include <stdio.h>",
    "int \u{2028} y;",
    "c = '\u{e9}';",
    "#endif",
    "/* open comment",
];

fn junk_source(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut lines: Vec<String> = source_from_seed(seed).lines().map(String::from).collect();
    for _ in 0..3 {
        let at = rng.range_inclusive_usize(0, lines.len());
        lines.insert(at, rng.choice(JUNK).to_string());
    }
    lines.join("\n")
}

#[test]
fn recovery_of_corrupted_sources_matches_snapshot() {
    let mut out = String::new();
    for seed in 1..=3u64 {
        let mut profile = AppProfile::nfs_ganesha().scaled(0.01);
        profile.seed = seed;
        profile.name = format!("pins{seed}");
        let mut base = generate(&profile);
        let ff = plant_fault_file(&mut base, seed);
        for (path, src) in &base.sources {
            render(&mut out, &format!("seed {seed} pristine {path}"), src);
        }
        for kind in CorruptKind::ALL {
            let mut app = base.clone();
            corrupt(&mut app, &ff, kind);
            let (_, src) = app
                .sources
                .iter()
                .find(|(p, _)| *p == ff.path)
                .expect("fault file present");
            render(&mut out, &format!("seed {seed} {kind:?}"), src);
        }
    }
    for seed in 0..24u64 {
        render(&mut out, &format!("junk {seed}"), &junk_source(seed));
    }
    let expected = include_str!("snapshots/corrupted_sources.txt");
    if out != expected {
        let first = out
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(out.lines().count().min(expected.lines().count()));
        panic!(
            "recovered output differs from the snapshot at line {}:\n  got:      {:?}\n  expected: {:?}",
            first + 1,
            out.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
