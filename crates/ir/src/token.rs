//! Token definitions for the MiniC lexer.

use crate::span::Span;

/// The kind of a lexed token.
///
/// Kinds carry no text. An identifier's name is its token's source range;
/// the decoded text of a string literal or guard symbol lives in the
/// lexer's per-file string table, which `Str`/`HashIf`/`HashIfNot` index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    // Literals and identifiers.
    /// An integer literal (decimal, hex `0x..`, or char constant folded to its value).
    Int(i64),
    /// A string literal; indexes its unquoted, unescaped text.
    Str(u32),
    /// An identifier that is not a keyword; its name is the token's text.
    Ident,

    // Keywords.
    KwInt,
    KwUnsigned,
    KwLong,
    KwChar,
    KwBool,
    KwVoid,
    KwSizeT,
    KwStruct,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    KwSwitch,
    KwCase,
    KwDefault,
    KwDo,
    KwStatic,
    KwConst,
    KwTrue,
    KwFalse,
    KwNull,

    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Amp,
    AmpAmp,
    Pipe,
    PipePipe,
    Caret,
    Tilde,
    Bang,
    BangEq,
    Plus,
    PlusPlus,
    PlusEq,
    Minus,
    MinusMinus,
    MinusEq,
    Star,
    StarEq,
    Slash,
    SlashEq,
    Percent,
    PercentEq,
    Lt,
    LtEq,
    Shl,
    Gt,
    GtEq,
    Shr,
    Eq,
    EqEq,
    AmpEq,
    PipeEq,
    CaretEq,
    Question,
    Colon,

    // Attributes recognised as single tokens.
    /// `[[maybe_unused]]` or `__attribute__((unused))`.
    AttrUnused,

    // Preprocessor directives (line-oriented, surfaced as tokens).
    /// `#if NAME`, `#ifdef NAME` — indexes the guard symbol.
    HashIf(u32),
    /// `#ifndef NAME` — indexes the guard symbol.
    HashIfNot(u32),
    /// `#else`.
    HashElse,
    /// `#endif`.
    HashEndif,

    /// A region the lexer could not tokenise; its `LexError` is collected
    /// beside the token stream.
    Error,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword kind for `ident`, if it is a keyword.
    pub fn keyword(ident: &str) -> Option<TokenKind> {
        Some(match ident {
            "int" => TokenKind::KwInt,
            "unsigned" => TokenKind::KwUnsigned,
            "long" => TokenKind::KwLong,
            "char" => TokenKind::KwChar,
            "bool" => TokenKind::KwBool,
            "void" => TokenKind::KwVoid,
            "size_t" => TokenKind::KwSizeT,
            "struct" => TokenKind::KwStruct,
            "if" => TokenKind::KwIf,
            "else" => TokenKind::KwElse,
            "while" => TokenKind::KwWhile,
            "for" => TokenKind::KwFor,
            "return" => TokenKind::KwReturn,
            "break" => TokenKind::KwBreak,
            "continue" => TokenKind::KwContinue,
            "switch" => TokenKind::KwSwitch,
            "case" => TokenKind::KwCase,
            "default" => TokenKind::KwDefault,
            "do" => TokenKind::KwDo,
            "static" => TokenKind::KwStatic,
            "const" => TokenKind::KwConst,
            "true" => TokenKind::KwTrue,
            "false" => TokenKind::KwFalse,
            "NULL" => TokenKind::KwNull,
            _ => return None,
        })
    }

    /// A short human-readable description of a kind that carries no
    /// text, used for the expected token in parse errors.
    pub fn describe(self) -> String {
        match self {
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Str(_) => "string literal".into(),
            TokenKind::Ident => "identifier".into(),
            TokenKind::Error => "invalid token".into(),
            TokenKind::Eof => "end of input".into(),
            other => format!("{other:?}"),
        }
    }
}

/// A token with its source span and byte range.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed.
    pub span: Span,
    /// Byte offset of the token's first byte in the source.
    pub lo: usize,
    /// Byte offset one past the token's last byte.
    pub hi: usize,
}

impl Token {
    /// The token's source text. Every token's range lies on character
    /// boundaries except an [`TokenKind::Error`] token's, which may cut a
    /// multi-byte character; its text is then empty.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.lo..self.hi).unwrap_or("")
    }

    /// A short human-readable description used in parse errors: the
    /// identifier's name or the guard symbol (from `strings`, the lexer's
    /// string table for `src`), otherwise [`TokenKind::describe`]. Only an
    /// identifier's range is sliced from `src`.
    pub(crate) fn describe(&self, src: &str, strings: &[String]) -> String {
        match self.kind {
            TokenKind::Ident => format!("identifier `{}`", self.text(src)),
            TokenKind::HashIf(i) => format!("HashIf({:?})", strings[i as usize]),
            TokenKind::HashIfNot(i) => format!("HashIfNot({:?})", strings[i as usize]),
            kind => kind.describe(),
        }
    }
}
