//! Recursive-descent parser for MiniC.
//!
//! The grammar is a C subset rich enough to express every code pattern the
//! paper discusses: struct field writes, pointer/cursor idioms (`*o++ = c`),
//! ignored return values, `(void)` casts, `unused` attributes, and
//! preprocessor-guarded statements.
//!
//! Parsing always recovers ([`parse_recovering`], [`parse_with_recovery`]),
//! panic-mode with two synchronization sets. Inside a function body an
//! error discards to the next `;` or `}` at the current brace depth and
//! leaves a poisoned [`StmtKind::Error`] node; at top level an error
//! discards to the next item-start keyword (or past a balanced `{...}`), so
//! one mangled function or struct drops only itself.

use crate::{
    ast::{
        BinOp,
        Block,
        Expr,
        ExprKind,
        FieldDef,
        FuncDecl,
        FuncDef,
        GlobalDef,
        Guard,
        Item,
        Module,
        Param,
        Stmt,
        StmtKind,
        StructDef,
        SwitchCase,
        UnOp, //
    },
    lexer::{
        lex_file,
        LexError, //
    },
    span::{
        FileId,
        Span, //
    },
    token::{
        Token,
        TokenKind, //
    },
    types::Type,
};

/// An error produced while parsing.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// Explanation of what went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// One diagnostic collected during error recovery.
#[derive(Clone, Debug)]
pub struct RecoveredDiag {
    /// The underlying parse error.
    pub error: ParseError,
    /// The function the error was attributed to: the enclosing function for
    /// a statement-level recovery, or a best-effort guess (the first
    /// `ident (` in the discarded region) for a dropped top-level item.
    pub function: Option<String>,
    /// True when the whole enclosing top-level item was discarded; false
    /// when recovery kept the item and poisoned only a statement region.
    pub dropped_item: bool,
}

/// Result of [`parse_with_recovery`]: whatever could be salvaged, plus every
/// diagnostic encountered along the way.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// The surviving items. Function bodies may contain poisoned
    /// [`StmtKind::Error`] statements (see [`crate::ast::Block::poisoned_count`]).
    pub module: Module,
    /// Every lexical diagnostic, in source order.
    pub lex_errors: Vec<LexError>,
    /// Every parse diagnostic with its recovery fate.
    pub diags: Vec<RecoveredDiag>,
}

/// Parses one source file into a [`Module`] with panic-mode error
/// recovery, never failing outright: lexing recovers as
/// [`crate::lexer::lex_recovering`] does, statement errors poison only the
/// region up to the next `;`/`}` at the current brace depth, and top-level
/// errors drop only the offending item. Lex errors come first in the
/// returned list, then parse errors; a clean file returns none.
///
/// # Examples
///
/// ```
/// use vc_ir::{parser::parse_recovering, span::FileId};
/// let (m, errs) = parse_recovering(FileId(0), "int main(void) { return 0; }");
/// assert_eq!(m.items.len(), 1);
/// assert!(errs.is_empty());
///
/// let src = "int ok(void) { return 1; }\nint broken(void) { int x = $$; use(x); }";
/// let (m, errs) = parse_recovering(FileId(0), src);
/// assert_eq!(m.items.len(), 2); // both functions survive
/// assert!(!errs.is_empty());
/// ```
pub fn parse_recovering(file: FileId, src: &str) -> (Module, Vec<ParseError>) {
    let r = parse_with_recovery(file, src);
    let mut errors: Vec<ParseError> = r.lex_errors.into_iter().map(ParseError::from).collect();
    errors.extend(r.diags.into_iter().map(|d| d.error));
    (r.module, errors)
}

/// Like [`parse_recovering`], but keeps lex and parse diagnostics separate
/// and records each parse error's recovery fate (function attribution,
/// dropped vs. poisoned) for per-function failure reporting.
pub fn parse_with_recovery(file: FileId, src: &str) -> Recovered {
    let lexed = lex_file(file, src);
    let mut p = Parser {
        src,
        tokens: lexed.tokens,
        strings: lexed.strings,
        pos: 0,
        guards: Vec::new(),
        diags: Vec::new(),
        current_func: None,
    };
    let module = p.module();
    Recovered {
        module,
        lex_errors: lexed.errors,
        diags: p.diags,
    }
}

struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Token>,
    /// The lexer's string table; each entry is moved out when its token is
    /// consumed.
    strings: Vec<String>,
    pos: usize,
    guards: Vec<Guard>,
    /// Every parse diagnostic recorded so far, with its recovery fate.
    diags: Vec<RecoveredDiag>,
    /// The name token of the function whose body is being parsed.
    current_func: Option<Token>,
}

impl Parser<'_> {
    fn peek(&self) -> TokenKind {
        self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.found()
            )))
        }
    }

    /// Describes the current token for an error message.
    fn found(&self) -> String {
        self.tokens[self.pos].describe(self.src, &self.strings)
    }

    /// The name of an identifier token, allocated for the AST.
    fn name(&self, tok: Token) -> String {
        tok.text(self.src).to_owned()
    }

    /// Moves a string-table entry out; each is read by exactly one token,
    /// once, when that token is consumed.
    fn take_string(&mut self, i: u32) -> String {
        std::mem::take(&mut self.strings[i as usize])
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        if self.peek() != TokenKind::Ident {
            return Err(self.error(format!("expected identifier, found {}", self.found())));
        }
        let tok = self.bump();
        Ok((self.name(tok), tok.span))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.span(),
        }
    }

    // ----- Error recovery -----------------------------------------------

    fn current_func(&self) -> Option<String> {
        self.current_func.map(|tok| self.name(tok))
    }

    fn record(&mut self, error: ParseError, function: Option<String>, dropped_item: bool) {
        self.diags.push(RecoveredDiag {
            error,
            function,
            dropped_item,
        });
    }

    /// Records an error scoped to the enclosing function (if any) that
    /// leaves the parse in place.
    fn record_here(&mut self, message: &str) {
        let e = self.error(message);
        let f = self.current_func();
        self.record(e, f, false);
    }

    /// Consumes the preprocessor directive at the current position, if any,
    /// and applies it to the guard stack; returns whether there was one. An
    /// unbalanced `#else`/`#endif` is recorded as a diagnostic when `record`
    /// is set. Skipping a discarded region passes `false`, so guard
    /// bookkeeping stays balanced across the recovery without a second
    /// report.
    fn directive(&mut self, record: bool) -> bool {
        let unbalanced = match self.peek() {
            TokenKind::HashIf(i) => {
                self.bump();
                let sym = self.take_string(i);
                self.guards.push(Guard::Defined(sym));
                None
            }
            TokenKind::HashIfNot(i) => {
                self.bump();
                let sym = self.take_string(i);
                self.guards.push(Guard::NotDefined(sym));
                None
            }
            TokenKind::HashElse => {
                self.bump();
                match self.guards.pop() {
                    Some(top) => {
                        self.guards.push(top.negate());
                        None
                    }
                    None => Some("#else without matching #if"),
                }
            }
            TokenKind::HashEndif => {
                self.bump();
                let top = self.guards.pop();
                top.is_none().then_some("#endif without matching #if")
            }
            _ => return false,
        };
        if let Some(message) = unbalanced.filter(|_| record) {
            self.record_here(message);
        }
        true
    }

    /// Statement-level synchronization: skips to the next `;` (consumed) or
    /// the `}` closing the current brace depth (left in place), counting
    /// braces opened inside the discarded region. Fails only at end of
    /// input, in which case the enclosing item is beyond saving.
    fn sync_stmt(&mut self) -> Result<(), ParseError> {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => {
                    return Err(self.error("unexpected end of input inside block"));
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return Ok(());
                }
                TokenKind::RBrace if depth == 0 => return Ok(()),
                TokenKind::RBrace => {
                    depth -= 1;
                    self.bump();
                }
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                _ => {
                    if !self.directive(false) {
                        self.bump();
                    }
                }
            }
        }
    }

    /// Top-level synchronization: skips to the next item-start keyword at
    /// zero brace/paren depth, past the `}` closing the broken item's body,
    /// or past a stray top-level `;`. Parens are tracked so a mangled
    /// signature does not resynchronize inside its own parameter list.
    fn sync_top_level(&mut self, failed_at: usize) {
        if self.pos == failed_at && !matches!(self.peek(), TokenKind::Eof) {
            self.bump();
        }
        let mut braces = 0usize;
        let mut parens = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    braces += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    if braces <= 1 {
                        return;
                    }
                    braces -= 1;
                }
                TokenKind::LParen => {
                    parens += 1;
                    self.bump();
                }
                TokenKind::RParen => {
                    parens = parens.saturating_sub(1);
                    self.bump();
                }
                TokenKind::Semi if braces == 0 && parens == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::KwStatic if braces == 0 && parens == 0 => return,
                _ if braces == 0 && parens == 0 && self.at_type_start() => return,
                _ => {
                    if !self.directive(false) {
                        self.bump();
                    }
                }
            }
        }
    }

    /// Best-effort name for a dropped item: the first identifier directly
    /// followed by `(` in the discarded token range.
    fn guess_func_name(&self, from: usize) -> Option<String> {
        // The `(` may sit just past the range.
        let to = (self.pos + 1).min(self.tokens.len());
        self.tokens[from..to]
            .windows(2)
            .find(|w| w[0].kind == TokenKind::Ident && w[1].kind == TokenKind::LParen)
            .map(|w| self.name(w[0]))
    }

    /// Consumes any preprocessor directives at the current position,
    /// updating the guard stack and recording unbalanced ones.
    fn drain_directives(&mut self) {
        while self.directive(true) {}
    }

    // ----- Items --------------------------------------------------------

    fn module(&mut self) -> Module {
        let mut items = Vec::new();
        loop {
            self.drain_directives();
            if matches!(self.peek(), TokenKind::Eof) {
                if !self.guards.is_empty() {
                    let e = self.error("unterminated #if at end of file");
                    self.record(e, None, false);
                    self.guards.clear();
                }
                return Module { items };
            }
            let item_start = self.pos;
            match self.item() {
                Ok(item) => items.push(item),
                Err(e) => {
                    self.sync_top_level(item_start);
                    let function = self.guess_func_name(item_start);
                    self.record(e, function, true);
                }
            }
        }
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if matches!(self.peek(), TokenKind::KwStruct)
            && matches!(self.peek_at(1), TokenKind::Ident)
            && matches!(self.peek_at(2), TokenKind::LBrace)
        {
            return Ok(Item::Struct(self.struct_def()?));
        }
        let is_static = self.eat(TokenKind::KwStatic);
        let ty = self.parse_type()?;
        let name_tok = self.tokens[self.pos];
        let (name, name_span) = self.expect_ident()?;
        if matches!(self.peek(), TokenKind::LParen) {
            self.function_tail(is_static, ty, name, name_tok)
        } else {
            // Global variable.
            let ty = self.array_suffix(ty)?;
            let init = if self.eat(TokenKind::Eq) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(TokenKind::Semi)?;
            Ok(Item::Global(GlobalDef {
                name,
                ty,
                init,
                span: name_span,
            }))
        }
    }

    fn struct_def(&mut self) -> Result<StructDef, ParseError> {
        let start = self.span();
        self.expect(TokenKind::KwStruct)?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            let ty = self.parse_type()?;
            let (fname, fspan) = self.expect_ident()?;
            let ty = self.array_suffix(ty)?;
            self.expect(TokenKind::Semi)?;
            fields.push(FieldDef {
                name: fname,
                ty,
                span: fspan,
            });
        }
        self.expect(TokenKind::Semi)?;
        Ok(StructDef {
            name,
            fields,
            span: start.to(self.prev_span()),
        })
    }

    fn function_tail(
        &mut self,
        is_static: bool,
        ret: Type,
        name: String,
        name_tok: Token,
    ) -> Result<Item, ParseError> {
        let span = name_tok.span;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(TokenKind::RParen) {
            if matches!(self.peek(), TokenKind::KwVoid)
                && matches!(self.peek_at(1), TokenKind::RParen)
            {
                self.bump();
                self.bump();
            } else {
                loop {
                    params.push(self.param()?);
                    if !self.eat(TokenKind::Comma) {
                        self.expect(TokenKind::RParen)?;
                        break;
                    }
                }
            }
        }
        if self.eat(TokenKind::Semi) {
            return Ok(Item::FuncDecl(FuncDecl {
                name,
                ret,
                params,
                span,
            }));
        }
        self.current_func = Some(name_tok);
        let body = self.block();
        self.current_func = None;
        let body = body?;
        Ok(Item::Func(FuncDef {
            name,
            ret,
            params,
            body,
            is_static,
            span,
        }))
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let mut unused_attr = self.eat(TokenKind::AttrUnused);
        let ty = self.parse_type()?;
        unused_attr |= self.eat(TokenKind::AttrUnused);
        let (name, span) = self.expect_ident()?;
        unused_attr |= self.eat(TokenKind::AttrUnused);
        let ty = self.array_suffix(ty)?;
        Ok(Param {
            name,
            ty,
            unused_attr,
            span,
        })
    }

    // ----- Types --------------------------------------------------------

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwInt
                | TokenKind::KwUnsigned
                | TokenKind::KwLong
                | TokenKind::KwChar
                | TokenKind::KwBool
                | TokenKind::KwVoid
                | TokenKind::KwSizeT
                | TokenKind::KwStruct
                | TokenKind::KwConst
        )
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.eat(TokenKind::KwConst);
        let mut ty = match self.peek() {
            TokenKind::KwInt => {
                self.bump();
                Type::Int
            }
            TokenKind::KwUnsigned => {
                self.bump();
                self.eat(TokenKind::KwInt);
                Type::Uint
            }
            TokenKind::KwLong => {
                self.bump();
                self.eat(TokenKind::KwLong);
                self.eat(TokenKind::KwInt);
                Type::Long
            }
            TokenKind::KwChar => {
                self.bump();
                Type::Char
            }
            TokenKind::KwBool => {
                self.bump();
                Type::Bool
            }
            TokenKind::KwVoid => {
                self.bump();
                Type::Void
            }
            TokenKind::KwSizeT => {
                self.bump();
                Type::SizeT
            }
            TokenKind::KwStruct => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                Type::Struct(name)
            }
            _ => return Err(self.error(format!("expected a type, found {}", self.found()))),
        };
        self.eat(TokenKind::KwConst);
        while self.eat(TokenKind::Star) {
            self.eat(TokenKind::KwConst);
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    fn array_suffix(&mut self, ty: Type) -> Result<Type, ParseError> {
        if self.eat(TokenKind::LBracket) {
            let n = match self.peek() {
                TokenKind::Int(v) if v >= 0 => {
                    self.bump();
                    v as usize
                }
                _ => {
                    return Err(self.error(format!("expected array length, found {}", self.found())))
                }
            };
            self.expect(TokenKind::RBracket)?;
            Ok(Type::Array(Box::new(ty), n))
        } else {
            Ok(ty)
        }
    }

    // ----- Statements ---------------------------------------------------

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let saved_guards = self.guards.clone();
        let mut stmts = Vec::new();
        loop {
            self.drain_directives();
            if self.eat(TokenKind::RBrace) {
                if self.guards.len() != saved_guards.len() {
                    self.record_here("#if not terminated before end of block");
                    self.guards = saved_guards;
                }
                return Ok(Block { stmts });
            }
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(self.error("unexpected end of input inside block"));
            }
            let start = self.span();
            match self.stmt() {
                Ok(s) => stmts.push(s),
                Err(e) => {
                    // Panic-mode recovery: discard to the sync point and
                    // poison the region. An Eof during the sync means the
                    // whole item is beyond saving — bubble the original
                    // error so the item is dropped instead.
                    if self.sync_stmt().is_err() {
                        return Err(e);
                    }
                    let f = self.current_func();
                    self.record(e, f, false);
                    stmts.push(Stmt {
                        kind: StmtKind::Error,
                        span: start.to(self.prev_span()),
                        guards: self.guards.clone(),
                    });
                }
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let guards = self.guards.clone();
        let start = self.span();
        let kind = self.stmt_kind()?;
        Ok(Stmt {
            kind,
            span: start.to(self.prev_span()),
            guards,
        })
    }

    fn stmt_kind(&mut self) -> Result<StmtKind, ParseError> {
        match self.peek() {
            TokenKind::LBrace => Ok(StmtKind::Block(self.block()?)),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwDo => self.do_while_stmt(),
            TokenKind::KwSwitch => self.switch_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                self.bump();
                let value = if matches!(self.peek(), TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Return(value))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Break)
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Continue)
            }
            TokenKind::AttrUnused => {
                self.bump();
                let mut kind = self.decl_stmt()?;
                if let StmtKind::Decl { unused_attr, .. } = &mut kind {
                    *unused_attr = true;
                }
                Ok(kind)
            }
            TokenKind::KwStatic => {
                self.bump();
                self.decl_stmt()
            }
            _ if self.at_type_start() => self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Expr(e))
            }
        }
    }

    fn decl_stmt(&mut self) -> Result<StmtKind, ParseError> {
        let ty = self.parse_type()?;
        let mut unused_attr = self.eat(TokenKind::AttrUnused);
        let (name, _) = self.expect_ident()?;
        unused_attr |= self.eat(TokenKind::AttrUnused);
        let ty = self.array_suffix(ty)?;
        let init = if self.eat(TokenKind::Eq) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(StmtKind::Decl {
            name,
            ty,
            init,
            unused_attr,
        })
    }

    fn if_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then = self.block_or_single()?;
        let els = if self.eat(TokenKind::KwElse) {
            if matches!(self.peek(), TokenKind::KwIf) {
                // `else if` chains become a nested single-statement block.
                let nested = self.stmt()?;
                Some(Block {
                    stmts: vec![nested],
                })
            } else {
                Some(self.block_or_single()?)
            }
        } else {
            None
        };
        Ok(StmtKind::If { cond, then, els })
    }

    fn while_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect(TokenKind::KwWhile)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block_or_single()?;
        Ok(StmtKind::While { cond, body })
    }

    fn do_while_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect(TokenKind::KwDo)?;
        let body = self.block_or_single()?;
        self.expect(TokenKind::KwWhile)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        Ok(StmtKind::DoWhile { body, cond })
    }

    fn switch_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect(TokenKind::KwSwitch)?;
        self.expect(TokenKind::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut cases: Vec<SwitchCase> = Vec::new();
        let mut default: Option<Block> = None;
        let mut pending_values: Vec<i64> = Vec::new();
        loop {
            self.drain_directives();
            if self.eat(TokenKind::RBrace) {
                if !pending_values.is_empty() {
                    // Trailing labels with an empty body select nothing.
                    cases.push(SwitchCase {
                        values: std::mem::take(&mut pending_values),
                        body: Block::default(),
                    });
                }
                break;
            }
            if self.eat(TokenKind::KwCase) {
                let negative = self.eat(TokenKind::Minus);
                let value = match self.peek() {
                    TokenKind::Int(v) => {
                        self.bump();
                        if negative {
                            -v
                        } else {
                            v
                        }
                    }
                    _ => {
                        return Err(self.error(format!(
                            "expected a constant case label, found {}",
                            self.found()
                        )))
                    }
                };
                self.expect(TokenKind::Colon)?;
                pending_values.push(value);
                continue;
            }
            if self.eat(TokenKind::KwDefault) {
                self.expect(TokenKind::Colon)?;
                let body = self.case_body()?;
                if default.is_some() {
                    return Err(self.error("duplicate default label"));
                }
                if !pending_values.is_empty() {
                    // `case 1: default:` — the stacked labels share the body.
                    cases.push(SwitchCase {
                        values: std::mem::take(&mut pending_values),
                        body: body.clone(),
                    });
                }
                default = Some(body);
                continue;
            }
            if pending_values.is_empty() {
                return Err(self.error("statement before the first case label"));
            }
            let body = self.case_body()?;
            cases.push(SwitchCase {
                values: std::mem::take(&mut pending_values),
                body,
            });
        }
        Ok(StmtKind::Switch {
            scrutinee,
            cases,
            default,
        })
    }

    /// Statements of one switch arm, up to the next label or closing brace.
    /// A trailing `break;` is consumed and dropped (arms never fall through).
    fn case_body(&mut self) -> Result<Block, ParseError> {
        let mut stmts = Vec::new();
        loop {
            self.drain_directives();
            match self.peek() {
                TokenKind::KwCase | TokenKind::KwDefault | TokenKind::RBrace => break,
                TokenKind::KwBreak => {
                    self.bump();
                    self.expect(TokenKind::Semi)?;
                    break;
                }
                TokenKind::Eof => return Err(self.error("unexpected end of input in switch")),
                _ => stmts.push(self.stmt()?),
            }
        }
        Ok(Block { stmts })
    }

    fn for_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect(TokenKind::KwFor)?;
        self.expect(TokenKind::LParen)?;
        let init = if self.eat(TokenKind::Semi) {
            None
        } else {
            let guards = self.guards.clone();
            let start = self.span();
            let kind = if self.at_type_start() {
                self.decl_stmt()?
            } else {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                StmtKind::Expr(e)
            };
            Some(Box::new(Stmt {
                kind,
                span: start.to(self.prev_span()),
                guards,
            }))
        };
        let cond = if matches!(self.peek(), TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if matches!(self.peek(), TokenKind::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::RParen)?;
        let body = self.block_or_single()?;
        Ok(StmtKind::For {
            init,
            cond,
            step,
            body,
        })
    }

    /// A block, or a single statement wrapped in a block (brace-less bodies).
    fn block_or_single(&mut self) -> Result<Block, ParseError> {
        if matches!(self.peek(), TokenKind::LBrace) {
            self.block()
        } else {
            let stmt = self.stmt()?;
            Ok(Block { stmts: vec![stmt] })
        }
    }

    // ----- Expressions --------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => None,
            TokenKind::PlusEq => Some(BinOp::Add),
            TokenKind::MinusEq => Some(BinOp::Sub),
            TokenKind::StarEq => Some(BinOp::Mul),
            TokenKind::SlashEq => Some(BinOp::Div),
            TokenKind::PercentEq => Some(BinOp::Rem),
            TokenKind::AmpEq => Some(BinOp::BitAnd),
            TokenKind::PipeEq => Some(BinOp::BitOr),
            TokenKind::CaretEq => Some(BinOp::BitXor),
            _ => return Ok(lhs),
        };
        if !lhs.is_lvalue() {
            return Err(self.error("left-hand side of assignment is not an lvalue"));
        }
        self.bump();
        let rhs = self.assign_expr()?;
        let span = lhs.span.to(rhs.span);
        Ok(Expr {
            kind: ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        })
    }

    fn ternary_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary_expr(0)?;
        if !self.eat(TokenKind::Question) {
            return Ok(cond);
        }
        let then = self.expr()?;
        self.expect(TokenKind::Colon)?;
        let els = self.ternary_expr()?;
        let span = cond.span.to(els.span);
        Ok(Expr {
            kind: ExprKind::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            },
            span,
        })
    }

    /// The binary operator at the current token and its precedence level,
    /// from 0 (`||`, loosest) to 9 (`*`, tightest).
    fn binop(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            TokenKind::PipePipe => (BinOp::Or, 0),
            TokenKind::AmpAmp => (BinOp::And, 1),
            TokenKind::Pipe => (BinOp::BitOr, 2),
            TokenKind::Caret => (BinOp::BitXor, 3),
            TokenKind::Amp => (BinOp::BitAnd, 4),
            TokenKind::EqEq => (BinOp::Eq, 5),
            TokenKind::BangEq => (BinOp::Ne, 5),
            TokenKind::Lt => (BinOp::Lt, 6),
            TokenKind::LtEq => (BinOp::Le, 6),
            TokenKind::Gt => (BinOp::Gt, 6),
            TokenKind::GtEq => (BinOp::Ge, 6),
            TokenKind::Shl => (BinOp::Shl, 7),
            TokenKind::Shr => (BinOp::Shr, 7),
            TokenKind::Plus => (BinOp::Add, 8),
            TokenKind::Minus => (BinOp::Sub, 8),
            TokenKind::Star => (BinOp::Mul, 9),
            TokenKind::Slash => (BinOp::Div, 9),
            TokenKind::Percent => (BinOp::Rem, 9),
            _ => return None,
        })
    }

    /// Precedence climbing: parses a chain of binary operators whose levels
    /// are all at least `min_level`. Each right operand only takes
    /// operators that bind tighter, so equal levels associate left.
    fn binary_expr(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, level)) = self.binop() {
            if level < min_level {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        let kind = match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let e = self.unary_expr()?;
                ExprKind::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                }
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.unary_expr()?;
                ExprKind::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                }
            }
            TokenKind::Tilde => {
                self.bump();
                let e = self.unary_expr()?;
                ExprKind::Unary {
                    op: UnOp::BitNot,
                    expr: Box::new(e),
                }
            }
            TokenKind::Star => {
                self.bump();
                let e = self.unary_expr()?;
                ExprKind::Deref(Box::new(e))
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.unary_expr()?;
                ExprKind::AddrOf(Box::new(e))
            }
            TokenKind::PlusPlus => {
                self.bump();
                let e = self.unary_expr()?;
                ExprKind::IncDec {
                    delta: 1,
                    pre: true,
                    target: Box::new(e),
                }
            }
            TokenKind::MinusMinus => {
                self.bump();
                let e = self.unary_expr()?;
                ExprKind::IncDec {
                    delta: -1,
                    pre: true,
                    target: Box::new(e),
                }
            }
            TokenKind::LParen if self.type_cast_ahead() => {
                self.bump();
                let ty = self.parse_type()?;
                self.expect(TokenKind::RParen)?;
                let e = self.unary_expr()?;
                ExprKind::Cast {
                    ty,
                    expr: Box::new(e),
                }
            }
            _ => return self.postfix_expr(),
        };
        Ok(Expr {
            kind,
            span: start.to(self.prev_span()),
        })
    }

    /// True when `(` begins a cast, i.e. the next token starts a type.
    fn type_cast_ahead(&self) -> bool {
        matches!(
            self.peek_at(1),
            TokenKind::KwInt
                | TokenKind::KwUnsigned
                | TokenKind::KwLong
                | TokenKind::KwChar
                | TokenKind::KwBool
                | TokenKind::KwVoid
                | TokenKind::KwSizeT
                | TokenKind::KwStruct
                | TokenKind::KwConst
        )
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    let ExprKind::Var(callee) = e.kind else {
                        return Err(self.error(
                            "calls are only supported through a named callee or pointer variable",
                        ));
                    };
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(TokenKind::Comma) {
                                self.expect(TokenKind::RParen)?;
                                break;
                            }
                        }
                    }
                    let span = e.span.to(self.prev_span());
                    e = Expr {
                        kind: ExprKind::Call { callee, args },
                        span,
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.to(self.prev_span());
                    e = Expr {
                        kind: ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                    };
                }
                TokenKind::Dot | TokenKind::Arrow => {
                    let arrow = matches!(self.peek(), TokenKind::Arrow);
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    let span = e.span.to(fspan);
                    e = Expr {
                        kind: ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow,
                        },
                        span,
                    };
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let delta = if matches!(self.peek(), TokenKind::PlusPlus) {
                        1
                    } else {
                        -1
                    };
                    self.bump();
                    let span = e.span.to(self.prev_span());
                    e = Expr {
                        kind: ExprKind::IncDec {
                            delta,
                            pre: false,
                            target: Box::new(e),
                        },
                        span,
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        let kind = match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                ExprKind::IntLit(v)
            }
            TokenKind::Str(i) => {
                self.bump();
                ExprKind::StrLit(self.take_string(i))
            }
            TokenKind::KwTrue => {
                self.bump();
                ExprKind::BoolLit(true)
            }
            TokenKind::KwFalse => {
                self.bump();
                ExprKind::BoolLit(false)
            }
            TokenKind::KwNull => {
                self.bump();
                ExprKind::Null
            }
            TokenKind::Ident => {
                let tok = self.bump();
                ExprKind::Var(self.name(tok))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(e);
            }
            _ => return Err(self.error(format!("expected an expression, found {}", self.found()))),
        };
        Ok(Expr { kind, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::parse_clean;

    /// The parse diagnostics of a malformed source.
    fn parse_errors(src: &str) -> Vec<ParseError> {
        parse_recovering(FileId(0), src).1
    }

    fn only_func(m: &Module) -> &FuncDef {
        m.items
            .iter()
            .find_map(|i| match i {
                Item::Func(f) => Some(f),
                _ => None,
            })
            .expect("no function in module")
    }

    #[test]
    fn parses_empty_function() {
        let m = parse_clean(FileId(0), "void f(void) { }");
        let f = only_func(&m);
        assert_eq!(f.name, "f");
        assert!(f.params.is_empty());
        assert!(f.body.stmts.is_empty());
    }

    #[test]
    fn parses_struct_and_global() {
        let m = parse_clean(
            FileId(0),
            "struct point { int x; int y; };\nint origin = 0;\n",
        );
        assert_eq!(m.items.len(), 2);
        assert!(matches!(m.items[0], Item::Struct(_)));
        assert!(matches!(m.items[1], Item::Global(_)));
    }

    #[test]
    fn parses_pointer_types_and_params() {
        let m = parse_clean(
            FileId(0),
            "int open(const char *path, size_t bufsz) { return 0; }",
        );
        let f = only_func(&m);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, Type::Char.ptr_to());
        assert_eq!(f.params[1].ty, Type::SizeT);
    }

    #[test]
    fn parses_cursor_idiom() {
        // `*o++ = '_';` from Figure 5 of the paper.
        let m = parse_clean(FileId(0), "void f(char *o) { *o++ = '_'; }");
        let f = only_func(&m);
        assert_eq!(f.body.stmts.len(), 1);
        match &f.body.stmts[0].kind {
            StmtKind::Expr(Expr {
                kind: ExprKind::Assign { op: None, lhs, .. },
                ..
            }) => {
                assert!(matches!(lhs.kind, ExprKind::Deref(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_for_loop_from_figure_1a() {
        let src = "int conv(struct bitmap *bm) {\n\
                   int attr = next_attr_from_bitmap(bm);\n\
                   for (attr = next_attr_from_bitmap(bm); attr != -1; attr = \
                   next_attr_from_bitmap(bm)) { use(attr); }\n\
                   return 0; }";
        let m = parse_clean(FileId(0), src);
        let f = only_func(&m);
        assert!(matches!(f.body.stmts[1].kind, StmtKind::For { .. }));
    }

    #[test]
    fn records_preprocessor_guards() {
        let src = "void f(void) {\n\
                   char host = 1;\n\
                   #ifdef USE_ICMP\n\
                   use(host);\n\
                   #endif\n\
                   }";
        let m = parse_clean(FileId(0), src);
        let f = only_func(&m);
        assert!(f.body.stmts[0].guards.is_empty());
        assert_eq!(
            f.body.stmts[1].guards,
            vec![Guard::Defined("USE_ICMP".into())]
        );
    }

    #[test]
    fn else_branch_negates_guard() {
        let src = "void f(void) {\n#ifdef A\nx();\n#else\ny();\n#endif\n}";
        let m = parse_clean(FileId(0), src);
        let f = only_func(&m);
        assert_eq!(f.body.stmts[0].guards, vec![Guard::Defined("A".into())]);
        assert_eq!(f.body.stmts[1].guards, vec![Guard::NotDefined("A".into())]);
    }

    #[test]
    fn parses_unused_attributes() {
        let m = parse_clean(
            FileId(0),
            "int f(const bool force [[maybe_unused]]) { return 0; }",
        );
        let f = only_func(&m);
        assert!(f.params[0].unused_attr);
        let m = parse_clean(FileId(0), "void g(void) { int x [[maybe_unused]] = 3; }");
        let f = only_func(&m);
        match &f.body.stmts[0].kind {
            StmtKind::Decl { unused_attr, .. } => assert!(unused_attr),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_void_cast() {
        let m = parse_clean(FileId(0), "void f(int x) { (void)x; }");
        let f = only_func(&m);
        match &f.body.stmts[0].kind {
            StmtKind::Expr(Expr {
                kind: ExprKind::Cast { ty, .. },
                ..
            }) => assert_eq!(*ty, Type::Void),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_member_chains() {
        let m = parse_clean(
            FileId(0),
            "void f(struct ctx *c) { c->inner.count = c->inner.count + 1; }",
        );
        only_func(&m);
    }

    #[test]
    fn precedence_is_c_like() {
        let m = parse_clean(FileId(0), "int f(void) { return 1 + 2 * 3 == 7 && 1 | 0; }");
        let f = only_func(&m);
        // `&&` binds loosest among these; check the root is And.
        match &f.body.stmts[0].kind {
            StmtKind::Return(Some(Expr {
                kind: ExprKind::Binary { op: BinOp::And, .. },
                ..
            })) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_assignment_to_rvalue() {
        assert!(!parse_errors("void f(void) { 1 = 2; }").is_empty());
    }

    #[test]
    fn rejects_unbalanced_endif() {
        assert!(!parse_errors("void f(void) { }\n#endif\n").is_empty());
    }

    #[test]
    fn parses_prototype() {
        let m = parse_clean(FileId(0), "int log_mod_open(char *path, size_t bufsz);");
        assert!(matches!(m.items[0], Item::FuncDecl(_)));
    }

    #[test]
    fn parses_else_if_chain() {
        let m = parse_clean(
            FileId(0),
            "void f(int x) { if (x) { g(); } else if (x > 1) { h(); } else { } }",
        );
        only_func(&m);
    }

    #[test]
    fn parses_ternary_and_compound_assign() {
        let m = parse_clean(FileId(0), "void f(int x) { int y = x ? 1 : 2; y += x; }");
        // `<<=` is not supported; expect an error instead.
        assert!(!parse_errors("void f(int x) { int y = 0; y <<= x; }").is_empty());
        only_func(&m);
    }

    #[test]
    fn parses_switch_statement() {
        let m = parse_clean(
            FileId(0),
            "void f(int x) {\n\
             switch (x) {\n\
             case 1:\n\
             case 2:\n\
               one_or_two();\n\
               break;\n\
             case -3:\n\
               minus_three();\n\
             default:\n\
               other();\n\
             }\n\
             }",
        );
        let f = only_func(&m);
        match &f.body.stmts[0].kind {
            StmtKind::Switch { cases, default, .. } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(cases[0].values, vec![1, 2]);
                assert_eq!(cases[1].values, vec![-3]);
                assert!(default.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_statement_before_first_case() {
        assert!(!parse_errors("void f(int x) { switch (x) { g(); case 1: h(); } }").is_empty());
    }

    #[test]
    fn parses_do_while() {
        let m = parse_clean(
            FileId(0),
            "void f(int n) { do { n = n - 1; } while (n > 0); }",
        );
        let f = only_func(&m);
        assert!(matches!(f.body.stmts[0].kind, StmtKind::DoWhile { .. }));
    }

    // ----- Error recovery ------------------------------------------------

    fn func_names(m: &Module) -> Vec<&str> {
        m.items
            .iter()
            .filter_map(|i| match i {
                Item::Func(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn recovery_poisons_one_statement_and_keeps_the_rest() {
        let src = "int f(void) {\n int a = 1;\n int b = $$;\n use(a);\n return a;\n}\n";
        let r = parse_with_recovery(FileId(0), src);
        assert_eq!(func_names(&r.module), vec!["f"]);
        let Item::Func(f) = &r.module.items[0] else {
            panic!("expected a function");
        };
        // a-decl, poisoned region, use(a), return — the bad decl is replaced.
        assert_eq!(f.body.poisoned_count(), 1);
        assert_eq!(f.body.stmts.len(), 4);
        assert!(matches!(f.body.stmts[1].kind, StmtKind::Error));
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].function.as_deref(), Some("f"));
        assert!(!r.diags[0].dropped_item);
    }

    #[test]
    fn recovery_drops_only_the_mangled_item() {
        let src = "int ok_before(void) { return 1; }\n\
                   garbled mangled_fn(int a, int b) { return a + b; }\n\
                   int ok_after(void) { return 2; }\n";
        let r = parse_with_recovery(FileId(0), src);
        assert_eq!(func_names(&r.module), vec!["ok_before", "ok_after"]);
        assert_eq!(r.diags.len(), 1);
        assert!(r.diags[0].dropped_item);
        assert_eq!(r.diags[0].function.as_deref(), Some("mangled_fn"));
    }

    #[test]
    fn recovery_truncated_file_drops_only_the_last_function() {
        let src = "int ok(void) { return 1; }\nint broken(void) { int x = 1;\n";
        let r = parse_with_recovery(FileId(0), src);
        assert_eq!(func_names(&r.module), vec!["ok"]);
        assert_eq!(r.diags.len(), 1);
        assert!(r.diags[0].dropped_item);
        assert_eq!(r.diags[0].function.as_deref(), Some("broken"));
    }

    #[test]
    fn recovery_survives_unterminated_string() {
        let src = "void f(void) {\n log(\"oops;\n int keep = 1;\n use(keep);\n}\n";
        let r = parse_with_recovery(FileId(0), src);
        assert_eq!(func_names(&r.module), vec!["f"]);
        assert_eq!(r.lex_errors.len(), 1);
        let Item::Func(f) = &r.module.items[0] else {
            panic!("expected a function");
        };
        assert!(f.body.poisoned_count() >= 1);
        // Recovery synchronizes at the first `;` after the bad string, so
        // the statement following that survives.
        assert!(f
            .body
            .stmts
            .iter()
            .any(|s| matches!(&s.kind, StmtKind::Expr(Expr {
            kind: ExprKind::Call { callee, .. },
            ..
        }) if callee == "use")));
    }

    #[test]
    fn recovery_keeps_guard_attribution_after_poisoned_region() {
        let src = "void f(void) {\n int a = $$;\n#ifdef A\n use(a);\n#endif\n}\n";
        let r = parse_with_recovery(FileId(0), src);
        let Item::Func(f) = &r.module.items[0] else {
            panic!("expected a function");
        };
        let guarded = f
            .body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Expr(_)))
            .expect("use(a) survives");
        assert_eq!(guarded.guards, vec![Guard::Defined("A".into())]);
    }

    #[test]
    fn recovery_collects_multiple_errors_in_one_file() {
        let src = "int f(void) { int a = $$; return a; }\n\
                   garbled g_fn(void) { return 1; }\n\
                   int h(void) { int b = $$; return b; }\n";
        let r = parse_with_recovery(FileId(0), src);
        assert_eq!(func_names(&r.module), vec!["f", "h"]);
        assert_eq!(r.diags.len(), 3);
        assert_eq!(r.diags.iter().filter(|d| d.dropped_item).count(), 1);
    }

    #[test]
    fn recovery_of_whole_garbage_file_yields_empty_module() {
        let r = parse_with_recovery(FileId(0), "@@ %% ?? garbage ## $$\n");
        assert!(r.module.items.is_empty());
        assert!(!r.lex_errors.is_empty() || !r.diags.is_empty());
    }

    #[test]
    fn parses_array_declarations() {
        let m = parse_clean(
            FileId(0),
            "void f(void) { char host[10] = \"127.0.0.1\"; host[0] = 'x'; }",
        );
        let f = only_func(&m);
        match &f.body.stmts[0].kind {
            StmtKind::Decl { ty, .. } => {
                assert_eq!(*ty, Type::Array(Box::new(Type::Char), 10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
