//! Hand-written lexer for MiniC.
//!
//! The lexer is line/column aware so that every token can be blamed against a
//! version-control history. It recognises a small preprocessor-directive
//! subset (`#if`/`#ifdef`/`#ifndef`/`#else`/`#endif`) as first-class tokens;
//! the parser uses them to model configuration-dependent code without running
//! a full preprocessor.

use crate::{
    span::{
        FileId,
        LineCol,
        Span, //
    },
    token::{
        Token,
        TokenKind, //
    },
};

/// An error produced while lexing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Explanation of what went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// One file's tokens with the text they index.
pub(crate) struct Lexed {
    /// The token stream, terminated by [`TokenKind::Eof`].
    pub(crate) tokens: Vec<Token>,
    /// Decoded text of string literals and guard symbols, indexed by
    /// `Str`/`HashIf`/`HashIfNot`.
    pub(crate) strings: Vec<String>,
    /// Every diagnostic, in source order.
    pub(crate) errors: Vec<LexError>,
}

/// Lexes `src` into tokens. Every region that fails to tokenise becomes a
/// [`TokenKind::Error`] token and lexing goes on.
pub(crate) fn lex_file(file: FileId, src: &str) -> Lexed {
    let mut lx = Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        file,
        tok: Mark {
            pos: 0,
            at: LineCol::new(1, 1),
        },
        strings: Vec::new(),
    };
    let mut tokens = Vec::new();
    let mut errors = Vec::new();
    loop {
        let before = lx.pos;
        let tok = match lx.next_token() {
            Ok(tok) => tok,
            Err(e) => {
                errors.push(e);
                // Guarantee progress even for a zero-consumption error.
                if lx.pos == before {
                    lx.bump();
                }
                lx.token(TokenKind::Error)
            }
        };
        tokens.push(tok);
        if tok.kind == TokenKind::Eof {
            break;
        }
    }
    Lexed {
        tokens,
        strings: lx.strings,
        errors,
    }
}

/// Lexes `src` into a token stream terminated by [`TokenKind::Eof`], never
/// giving up: every region that fails to tokenise is surfaced as a
/// [`TokenKind::Error`] token and its diagnostic is collected, so the parser
/// can recover past bad bytes instead of losing the whole file.
///
/// Identifiers carry no text: [`Token::text`] slices it from `src`. The
/// decoded text of string literals and guard symbols stays with the
/// parser, which reads it through the `Str`/`HashIf`/`HashIfNot` indices.
///
/// A string literal broken by a raw newline errors *at* the newline without
/// consuming it, so recovery resumes on the next source line.
///
/// # Examples
///
/// ```
/// use vc_ir::{lexer::lex_recovering, span::FileId, token::TokenKind};
/// let src = "int x = \"oops\nint y;";
/// let (toks, errs) = lex_recovering(FileId(0), src);
/// assert_eq!(errs.len(), 1);
/// assert!(matches!(toks[0].kind, TokenKind::KwInt));
/// assert_eq!(toks[1].text(src), "x");
/// assert!(toks.iter().any(|t| matches!(t.kind, TokenKind::Error)));
/// // Lexing resumed on the next line:
/// assert!(toks.iter().any(|t| t.kind == TokenKind::Ident && t.text(src) == "y"));
/// assert!(matches!(toks.last().unwrap().kind, TokenKind::Eof));
/// ```
pub fn lex_recovering(file: FileId, src: &str) -> (Vec<Token>, Vec<LexError>) {
    let l = lex_file(file, src);
    (l.tokens, l.errors)
}

/// A source position as both a byte offset and a line/column.
#[derive(Clone, Copy)]
struct Mark {
    pos: usize,
    at: LineCol,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    file: FileId,
    /// Start of the token being lexed; errors and tokens begin here.
    tok: Mark,
    strings: Vec<String>,
}

impl<'a> Lexer<'a> {
    fn here(&self) -> Mark {
        Mark {
            pos: self.pos,
            at: LineCol::new(self.line, self.col),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes a run of `[A-Za-z0-9_]` in one step and returns it. The run
    /// holds no newline, so only the column moves.
    fn eat_word(&mut self) -> &'a str {
        let from = self.pos;
        let len = self.bytes[from..]
            .iter()
            .take_while(|&&c| c == b'_' || c.is_ascii_alphanumeric())
            .count();
        self.pos += len;
        self.col += len as u32;
        &self.src[from..self.pos]
    }

    /// Stores decoded text in the string table and returns its index.
    fn intern(&mut self, text: String) -> u32 {
        let i = u32::try_from(self.strings.len())
            .expect("a file under 8 GiB holds fewer than 2^32 literals and guards");
        self.strings.push(text);
        i
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            span: Span {
                file: self.file,
                start: self.tok.at,
                end: LineCol::new(self.line, self.col),
            },
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if (c as char).is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => {
                                self.tok = start;
                                return Err(self.error("unterminated block comment"));
                            }
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        self.tok = self.here();
        let Some(c) = self.peek() else {
            return Ok(self.token(TokenKind::Eof));
        };
        match c {
            b'#' => self.lex_directive(),
            b'"' => self.lex_string(),
            b'\'' => self.lex_char(),
            b'0'..=b'9' => self.lex_number(),
            c if c == b'_' || c.is_ascii_alphabetic() => self.lex_ident(),
            b'[' if self.peek2() == Some(b'[') => self.lex_bracket_attr(),
            _ => self.lex_operator(),
        }
    }

    /// The token from the current token start to here.
    fn token(&self, kind: TokenKind) -> Token {
        Token {
            kind,
            span: Span {
                file: self.file,
                start: self.tok.at,
                end: LineCol::new(self.line, self.col),
            },
            lo: self.tok.pos,
            hi: self.pos,
        }
    }

    fn lex_directive(&mut self) -> Result<Token, LexError> {
        // Consume to end of line; directives are line-oriented.
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
        // Each byte reads as one char (Latin-1), so a non-ASCII byte splits
        // words exactly when `char::is_whitespace` says it does.
        let mut words = self.bytes[self.tok.pos..self.pos]
            .split(|&c| (c as char).is_whitespace())
            .filter(|w| !w.is_empty());
        let head = words.next().unwrap_or_default();
        let arg = words.next().unwrap_or_default();
        let kind = match head {
            b"#if" | b"#ifdef" if arg.is_empty() => {
                return Err(self.error("missing guard symbol after #if"))
            }
            b"#if" | b"#ifdef" => TokenKind::HashIf(self.intern(latin1(arg))),
            b"#ifndef" if arg.is_empty() => {
                return Err(self.error("missing guard symbol after #ifndef"))
            }
            b"#ifndef" => TokenKind::HashIfNot(self.intern(latin1(arg))),
            b"#else" => TokenKind::HashElse,
            b"#endif" => TokenKind::HashEndif,
            other => return Err(self.error(format!("unsupported directive `{}`", latin1(other)))),
        };
        Ok(self.token(kind))
    }

    fn lex_string(&mut self) -> Result<Token, LexError> {
        self.bump(); // Opening quote.

        // Sized to the bytes before the next quote or newline, which holds
        // the whole ASCII text of a literal without escaped quotes.
        let run = self.bytes[self.pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\n')
            .unwrap_or(self.bytes.len() - self.pos);
        let mut s = String::with_capacity(run);
        loop {
            match self.peek() {
                // A raw newline cannot appear in a MiniC string; leaving it
                // unconsumed lets `lex_recovering` resume on the next line.
                None | Some(b'\n') => return Err(self.error("unterminated string literal")),
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(b'\\') => {
                    self.bump();
                    let esc = self
                        .bump()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    s.push(unescape(esc) as char);
                }
                Some(c) => {
                    self.bump();
                    s.push(c as char);
                }
            }
        }
        let i = self.intern(s);
        Ok(self.token(TokenKind::Str(i)))
    }

    fn lex_char(&mut self) -> Result<Token, LexError> {
        self.bump(); // Opening quote.
        let c = match self.bump() {
            None => return Err(self.error("unterminated char literal")),
            Some(b'\\') => {
                let esc = self
                    .bump()
                    .ok_or_else(|| self.error("unterminated escape"))?;
                unescape(esc)
            }
            Some(c) => c,
        };
        if self.bump() != Some(b'\'') {
            return Err(self.error("char literal must be a single character"));
        }
        Ok(self.token(TokenKind::Int(c as i64)))
    }

    fn lex_number(&mut self) -> Result<Token, LexError> {
        let hex = self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X'));
        if hex {
            self.bump();
            self.bump();
        }
        let text = self.eat_word();
        // Strip C suffixes (u, l, ul, ull...).
        let digits = text.trim_end_matches(['u', 'U', 'l', 'L']);
        let radix = if hex { 16 } else { 10 };
        let value = i64::from_str_radix(digits, radix)
            .map_err(|_| self.error(format!("invalid integer literal `{text}`")))?;
        Ok(self.token(TokenKind::Int(value)))
    }

    fn lex_ident(&mut self) -> Result<Token, LexError> {
        let text = self.eat_word();
        if text == "__attribute__" {
            return self.lex_gnu_attr();
        }
        Ok(self.token(TokenKind::keyword(text).unwrap_or(TokenKind::Ident)))
    }

    /// Lexes `__attribute__((unused))` (the identifier part is consumed).
    fn lex_gnu_attr(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let from = self.pos;
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated __attribute__")),
                Some(b'(') => {
                    depth += 1;
                    self.bump();
                }
                Some(b')') => {
                    self.bump();
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| self.error("unbalanced __attribute__"))?;
                    if depth == 0 {
                        break;
                    }
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        // The attribute's text is everything but its parentheses.
        let inner = self.bytes[from..self.pos]
            .iter()
            .copied()
            .filter(|&c| c != b'(' && c != b')');
        self.attr_token(inner)
    }

    /// Lexes `[[maybe_unused]]`-style attributes.
    fn lex_bracket_attr(&mut self) -> Result<Token, LexError> {
        self.bump();
        self.bump();
        let from = self.pos;
        let to = loop {
            match self.peek() {
                None => return Err(self.error("unterminated [[attribute]]")),
                Some(b']') if self.peek2() == Some(b']') => {
                    let to = self.pos;
                    self.bump();
                    self.bump();
                    break to;
                }
                Some(_) => {
                    self.bump();
                }
            }
        };
        self.attr_token(self.bytes[from..to].iter().copied())
    }

    /// An attribute whose text mentions `unused` is [`TokenKind::AttrUnused`];
    /// any other is unsupported.
    fn attr_token(&self, inner: impl Iterator<Item = u8> + Clone) -> Result<Token, LexError> {
        let mut window = [0u8; 6];
        let unused = inner.clone().any(|c| {
            window.rotate_left(1);
            window[5] = c;
            &window == b"unused"
        });
        if unused {
            Ok(self.token(TokenKind::AttrUnused))
        } else {
            let text: String = inner.map(|c| c as char).collect();
            Err(self.error(format!("unsupported attribute `{text}`")))
        }
    }

    fn lex_operator(&mut self) -> Result<Token, LexError> {
        use TokenKind::*;
        let c = self.bump().expect("caller checked peek");
        let next = self.peek();
        let two = |lx: &mut Self, kind: TokenKind| {
            lx.bump();
            kind
        };
        let kind = match (c, next) {
            (b'(', _) => LParen,
            (b')', _) => RParen,
            (b'{', _) => LBrace,
            (b'}', _) => RBrace,
            (b'[', _) => LBracket,
            (b']', _) => RBracket,
            (b';', _) => Semi,
            (b',', _) => Comma,
            (b'.', _) => Dot,
            (b'?', _) => Question,
            (b':', _) => Colon,
            (b'~', _) => Tilde,
            (b'&', Some(b'&')) => two(self, AmpAmp),
            (b'&', Some(b'=')) => two(self, AmpEq),
            (b'&', _) => Amp,
            (b'|', Some(b'|')) => two(self, PipePipe),
            (b'|', Some(b'=')) => two(self, PipeEq),
            (b'|', _) => Pipe,
            (b'^', Some(b'=')) => two(self, CaretEq),
            (b'^', _) => Caret,
            (b'!', Some(b'=')) => two(self, BangEq),
            (b'!', _) => Bang,
            (b'+', Some(b'+')) => two(self, PlusPlus),
            (b'+', Some(b'=')) => two(self, PlusEq),
            (b'+', _) => Plus,
            (b'-', Some(b'-')) => two(self, MinusMinus),
            (b'-', Some(b'=')) => two(self, MinusEq),
            (b'-', Some(b'>')) => two(self, Arrow),
            (b'-', _) => Minus,
            (b'*', Some(b'=')) => two(self, StarEq),
            (b'*', _) => Star,
            (b'/', Some(b'=')) => two(self, SlashEq),
            (b'/', _) => Slash,
            (b'%', Some(b'=')) => two(self, PercentEq),
            (b'%', _) => Percent,
            (b'<', Some(b'<')) => two(self, Shl),
            (b'<', Some(b'=')) => two(self, LtEq),
            (b'<', _) => Lt,
            (b'>', Some(b'>')) => two(self, Shr),
            (b'>', Some(b'=')) => two(self, GtEq),
            (b'>', _) => Gt,
            (b'=', Some(b'=')) => two(self, EqEq),
            (b'=', _) => Eq,
            (c, _) => return Err(self.error(format!("unexpected character `{}`", c as char))),
        };
        Ok(self.token(kind))
    }
}

/// Decodes bytes one char per byte (Latin-1): how string literals, guard
/// symbols and diagnostics read non-ASCII bytes.
fn latin1(bytes: &[u8]) -> String {
    bytes.iter().map(|&c| c as char).collect()
}

fn unescape(c: u8) -> u8 {
    match c {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        b'0' => 0,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token of a clean lex as its kind plus its source text.
    fn lexed(src: &str) -> Vec<(TokenKind, &str)> {
        let (toks, errs) = lex_recovering(FileId(0), src);
        assert!(errs.is_empty(), "{errs:?}");
        toks.into_iter().map(|t| (t.kind, t.text(src))).collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lexed(src).into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        use TokenKind::*;
        assert_eq!(
            lexed("int x = 42;"),
            vec![
                (KwInt, "int"),
                (Ident, "x"),
                (Eq, "="),
                (Int(42), "42"),
                (Semi, ";"),
                (Eof, "")
            ]
        );
    }

    #[test]
    fn lexes_hex_and_suffixed_literals() {
        use TokenKind::*;
        assert_eq!(
            lexed("0x10 10UL"),
            vec![(Int(16), "0x10"), (Int(10), "10UL"), (Eof, "")]
        );
    }

    #[test]
    fn lexes_char_literal_as_int() {
        use TokenKind::*;
        assert_eq!(
            lexed("'a' '\\0'"),
            vec![(Int(97), "'a'"), (Int(0), "'\\0'"), (Eof, "")]
        );
    }

    #[test]
    fn lexes_two_char_operators() {
        use TokenKind::*;
        let src = "++ -- -> <= >= == != && || += <<";
        assert_eq!(
            kinds(src),
            vec![
                PlusPlus, MinusMinus, Arrow, LtEq, GtEq, EqEq, BangEq, AmpAmp, PipePipe, PlusEq,
                Shl, Eof
            ]
        );
        let texts: Vec<&str> = lexed(src).into_iter().map(|(_, t)| t).collect();
        assert_eq!(texts.join(" ").trim_end(), src);
    }

    #[test]
    fn skips_line_and_block_comments() {
        use TokenKind::*;
        assert_eq!(
            lexed("/* a */ x // b\n y"),
            vec![(Ident, "x"), (Ident, "y"), (Eof, "")]
        );
    }

    #[test]
    fn tracks_line_numbers() {
        let (toks, errs) = lex_recovering(FileId(0), "a\nb\n  c");
        assert!(errs.is_empty());
        assert_eq!(toks[0].span.start.line, 1);
        assert_eq!(toks[1].span.start.line, 2);
        assert_eq!(toks[2].span.start.line, 3);
        assert_eq!(toks[2].span.start.col, 3);
        assert_eq!((toks[2].lo, toks[2].hi), (6, 7));
    }

    #[test]
    fn lexes_preprocessor_directives() {
        use TokenKind::*;
        let src = "#ifdef USE_ICMP\nx\n#else\n#endif";
        assert_eq!(
            lexed(src),
            vec![
                (HashIf(0), "#ifdef USE_ICMP"),
                (Ident, "x"),
                (HashElse, "#else"),
                (HashEndif, "#endif"),
                (Eof, "")
            ]
        );
        assert_eq!(lex_file(FileId(0), src).strings, ["USE_ICMP"]);
    }

    #[test]
    fn lexes_unused_attributes() {
        use TokenKind::*;
        assert_eq!(
            lexed("[[maybe_unused]]"),
            vec![(AttrUnused, "[[maybe_unused]]"), (Eof, "")]
        );
        assert_eq!(
            lexed("__attribute__((unused))"),
            vec![(AttrUnused, "__attribute__((unused))"), (Eof, "")]
        );
    }

    #[test]
    fn rejects_unterminated_string() {
        assert_eq!(lex_recovering(FileId(0), "\"abc").1.len(), 1);
    }

    #[test]
    fn rejects_unknown_directive() {
        assert_eq!(lex_recovering(FileId(0), "#include <stdio.h>").1.len(), 1);
    }

    #[test]
    fn recovering_collects_every_error_and_keeps_lexing() {
        let src = "int a;\n@@ $$\n#include <x>\nint b;\n";
        let (toks, errs) = lex_recovering(FileId(0), src);
        // `@`, `$` twice each plus the unsupported directive.
        assert_eq!(errs.len(), 5);
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
        let errors: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Error)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(errors, vec!["@", "@", "$", "$", "#include <x>"]);
    }

    #[test]
    fn recovering_unterminated_string_resumes_next_line() {
        let src = "log(\"oops;\nint keep = 1;\n";
        let (toks, errs) = lex_recovering(FileId(0), src);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("unterminated string"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "keep"));
    }

    #[test]
    fn string_escapes() {
        let src = r#""a\n\t""#;
        assert_eq!(
            lexed(src),
            vec![(TokenKind::Str(0), src), (TokenKind::Eof, "")]
        );
        assert_eq!(lex_file(FileId(0), src).strings, ["a\n\t"]);
    }

    #[test]
    fn error_token_inside_a_multibyte_char_has_empty_text() {
        let src = "x \u{e9}";
        let (toks, errs) = lex_recovering(FileId(0), src);
        assert_eq!(errs.len(), 2);
        assert_eq!(toks[1].kind, TokenKind::Error);
        assert_eq!((toks[1].lo, toks[1].hi), (2, 3));
        assert_eq!(toks[1].text(src), "");
    }
}
