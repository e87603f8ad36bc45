//! Property tests for the frontend: lexer totality, pretty-print round
//! trips, and lowering/validation of arbitrary generated programs.
//!
//! Each property runs as a deterministic loop over cases drawn from a
//! seeded [`SplitMix64`]; a failing case prints its seed so it can be
//! replayed exactly.

use vc_ir::{
    lexer::lex_recovering,
    pretty::module_to_source,
    program::Program,
    span::FileId,
    testing::{parse_clean, source_from_seed},
    validate::validate_program,
};
use vc_obs::SplitMix64;

/// Arbitrary text, including non-ASCII, control bytes and quotes.
fn arbitrary_text(rng: &mut SplitMix64, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'z', 'A', '0', '9', ' ', '\t', '\n', '+', '*', '/', '(', ')', '=', '{', '}', ';', '<',
        '>', '!', '&', '|', ',', '-', '"', '\'', '\\', '.', '_', '#', '@', '~', '^', '%', '\u{0}',
        '\u{7f}', 'é', 'λ', '🦀', '\u{2028}',
    ];
    let len = rng.range_inclusive_usize(0, max_len);
    (0..len).map(|_| *rng.choice(POOL)).collect()
}

/// Text over the token-ish alphabet the lexer accepts.
fn tokenish_text(rng: &mut SplitMix64, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', '0', '1', '9', ' ', '+', '*', '/', '(', ')', '=', '{', '}',
        ';', '<', '>', '!', '&', '|', ',', '-',
    ];
    let len = rng.range_inclusive_usize(0, max_len);
    (0..len).map(|_| *rng.choice(POOL)).collect()
}

/// The lexer never panics, whatever bytes arrive.
#[test]
fn lexer_is_total() {
    let mut rng = SplitMix64::new(0x1E7_5EED);
    for _ in 0..300 {
        let src = arbitrary_text(&mut rng, 200);
        let _ = lex_recovering(FileId(0), &src);
    }
}

/// Every token stream ends in Eof, whether or not the text lexed cleanly.
#[test]
fn lexer_streams_end_in_eof() {
    let mut rng = SplitMix64::new(0xE0F_5EED);
    for case in 0..300 {
        let src = tokenish_text(&mut rng, 120);
        let (toks, _) = lex_recovering(FileId(0), &src);
        assert!(
            matches!(
                toks.last().map(|t| &t.kind),
                Some(vc_ir::token::TokenKind::Eof)
            ),
            "case {case}: no Eof for {src:?}"
        );
    }
}

/// Generated programs parse, and pretty-printing is idempotent:
/// `pretty(parse(pretty(parse(src)))) == pretty(parse(src))`.
#[test]
fn pretty_print_round_trips() {
    let mut rng = SplitMix64::new(0xA11CE);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let src = source_from_seed(seed);
        let p1 = module_to_source(&parse_clean(FileId(0), &src));
        let p2 = module_to_source(&parse_clean(FileId(0), &p1));
        assert_eq!(p1, p2, "seed {seed}");
    }
}

/// Generated programs lower and validate.
#[test]
fn generated_programs_validate() {
    let mut rng = SplitMix64::new(0xB0B);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let src = source_from_seed(seed);
        let prog = Program::build(&[("g.c", src.as_str())], &[])
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        validate_program(&prog).unwrap_or_else(|e| panic!("seed {seed}: invalid IR: {e}"));
    }
}

/// Lowering is insensitive to an enabled-but-unused configuration: a
/// program without preprocessor guards lowers identically under any
/// define set.
#[test]
fn defines_do_not_affect_guardless_programs() {
    let mut rng = SplitMix64::new(0xDEF5);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let define: String = (0..rng.range_inclusive_usize(1, 8))
            .map(|_| *rng.choice(&['A', 'B', 'F', 'X', 'Y', 'Z', 'Q', 'W']))
            .collect();
        let src = source_from_seed(seed);
        let a = Program::build(&[("g.c", src.as_str())], &[]).expect("builds");
        let b = Program::build(&[("g.c", src.as_str())], std::slice::from_ref(&define))
            .expect("builds");
        assert_eq!(
            a.inst_count(),
            b.inst_count(),
            "seed {seed} define {define}"
        );
        assert_eq!(a.funcs.len(), b.funcs.len(), "seed {seed} define {define}");
    }
}

/// Every instruction's span points into the source file (line within
/// bounds), so blame lookups cannot go out of range.
#[test]
fn spans_stay_in_file() {
    let mut rng = SplitMix64::new(0x5DA2);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let src = source_from_seed(seed);
        let nlines = src.lines().count() as u32;
        let prog = Program::build(&[("g.c", src.as_str())], &[]).expect("builds");
        for f in &prog.funcs {
            for bb in &f.blocks {
                for inst in &bb.insts {
                    let span = inst.span();
                    if !span.is_synthetic() {
                        assert!(
                            span.line() >= 1 && span.line() <= nlines,
                            "seed {seed}: line {} of {nlines}",
                            span.line()
                        );
                    }
                }
            }
        }
    }
}
