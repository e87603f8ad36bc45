//! Abstract syntax tree for MiniC.
//!
//! The AST preserves everything the later phases need: source spans on every
//! node (for authorship lookup), `unused` attributes (for unused-hint
//! pruning), and the stack of preprocessor guards active at each statement
//! (for configuration-dependency pruning).

use crate::{
    span::Span,
    types::Type, //
};

/// A parsed source file.
#[derive(Clone, Debug)]
pub struct Module {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Clone, Debug)]
pub enum Item {
    /// A struct definition.
    Struct(StructDef),
    /// A function definition with a body.
    Func(FuncDef),
    /// A function declaration (prototype) without a body.
    FuncDecl(FuncDecl),
    /// A global variable definition.
    Global(GlobalDef),
}

/// A struct definition.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Struct name (tag).
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<FieldDef>,
    /// Span of the whole definition.
    pub span: Span,
}

/// One field of a struct.
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Span of the field declaration.
    pub span: Span,
}

/// A function prototype: name, signature, and parameter metadata.
#[derive(Clone, Debug)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Span of the prototype.
    pub span: Span,
}

/// A function definition.
#[derive(Clone, Debug)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// The body.
    pub body: Block,
    /// Whether the function was declared `static`.
    pub is_static: bool,
    /// Span of the signature line.
    pub span: Span,
}

/// A function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Whether the parameter carries an `unused` attribute.
    pub unused_attr: bool,
    /// Span of the parameter.
    pub span: Span,
}

/// A global variable definition.
#[derive(Clone, Debug)]
pub struct GlobalDef {
    /// Variable name.
    pub name: String,
    /// Variable type.
    pub ty: Type,
    /// Optional constant initializer.
    pub init: Option<Expr>,
    /// Span of the definition.
    pub span: Span,
}

/// A `{ ... }` block of statements.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// A preprocessor guard active over a region of code.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Guard {
    /// The region is compiled when `symbol` is defined (`#if`/`#ifdef`).
    Defined(String),
    /// The region is compiled when `symbol` is **not** defined
    /// (`#ifndef`, or the `#else` branch of an `#if`).
    NotDefined(String),
}

impl Guard {
    /// The guard selecting the opposite branch.
    pub fn negate(&self) -> Guard {
        match self {
            Guard::Defined(s) => Guard::NotDefined(s.clone()),
            Guard::NotDefined(s) => Guard::Defined(s.clone()),
        }
    }

    /// Whether this guard admits the region under configuration `defines`.
    pub fn enabled(&self, defines: &[String]) -> bool {
        match self {
            Guard::Defined(s) => defines.iter().any(|d| d == s),
            Guard::NotDefined(s) => !defines.iter().any(|d| d == s),
        }
    }
}

/// One arm of a `switch`.
#[derive(Clone, Debug)]
pub struct SwitchCase {
    /// The constant labels selecting this arm (stacked `case`s).
    pub values: Vec<i64>,
    /// The arm body.
    pub body: Block,
}

/// A statement with its span and active preprocessor guards.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The statement itself.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
    /// Preprocessor guards enclosing the statement, outermost first.
    pub guards: Vec<Guard>,
}

/// Statement kinds.
#[derive(Clone, Debug)]
pub enum StmtKind {
    /// A local variable declaration, optionally initialized.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer expression.
        init: Option<Expr>,
        /// Whether the declaration carries an `unused` attribute.
        unused_attr: bool,
    },
    /// An expression evaluated for effect.
    Expr(Expr),
    /// An `if`/`else` statement.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when the condition is nonzero.
        then: Block,
        /// Taken otherwise, if present.
        els: Option<Block>,
    },
    /// A `while` loop.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// A `do { ... } while (cond);` loop (body runs at least once).
    DoWhile {
        /// Loop body.
        body: Block,
        /// Loop condition, evaluated after each iteration.
        cond: Expr,
    },
    /// A `switch` statement. Case bodies do not fall through: each arm ends
    /// at the next `case`/`default` label (an explicit trailing `break;` is
    /// accepted and redundant); empty arms stack their labels onto the next
    /// body, so `case 1: case 2: f();` works as in C.
    Switch {
        /// The switched-on expression.
        scrutinee: Expr,
        /// `(label values, body)` arms in source order.
        cases: Vec<SwitchCase>,
        /// The `default:` body, if present.
        default: Option<Block>,
    },
    /// A `for` loop. Any of the three clauses may be absent.
    For {
        /// Initialization statement (a declaration or expression).
        init: Option<Box<Stmt>>,
        /// Loop condition.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// A `return`, with an optional value.
    Return(Option<Expr>),
    /// A `break` out of the innermost loop.
    Break,
    /// A `continue` of the innermost loop.
    Continue,
    /// A nested block.
    Block(Block),
    /// A poisoned region: source the parser discarded during error recovery
    /// (`parse_recovering`). Lowering treats it as a no-op, but its presence
    /// marks the enclosing function as recovered, so downstream candidates
    /// degrade to `low_confidence`.
    Error,
}

impl Block {
    /// Number of poisoned [`StmtKind::Error`] nodes in this block, nested
    /// blocks included. Nonzero exactly when the enclosing function was
    /// rebuilt by parse recovery.
    pub fn poisoned_count(&self) -> usize {
        fn in_stmt(s: &Stmt) -> usize {
            match &s.kind {
                StmtKind::Error => 1,
                StmtKind::If { then, els, .. } => {
                    then.poisoned_count() + els.as_ref().map_or(0, Block::poisoned_count)
                }
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    body.poisoned_count()
                }
                StmtKind::For { init, body, .. } => {
                    init.as_deref().map_or(0, in_stmt) + body.poisoned_count()
                }
                StmtKind::Switch { cases, default, .. } => {
                    cases.iter().map(|c| c.body.poisoned_count()).sum::<usize>()
                        + default.as_ref().map_or(0, Block::poisoned_count)
                }
                StmtKind::Block(b) => b.poisoned_count(),
                _ => 0,
            }
        }
        self.stmts.iter().map(in_stmt).sum()
    }
}

/// An expression with its span.
#[derive(Clone, Debug)]
pub struct Expr {
    /// The expression itself.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Unary operator kinds (excluding `*`/`&`, which are [`ExprKind::Deref`] and
/// [`ExprKind::AddrOf`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
    /// Bitwise not `~e`.
    BitNot,
}

/// Binary operator kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// Whether the operator is `&&` or `||` (short-circuiting).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Expression kinds.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// Integer (or folded character) literal.
    IntLit(i64),
    /// String literal.
    StrLit(String),
    /// `true` / `false`.
    BoolLit(bool),
    /// `NULL`.
    Null,
    /// A reference to a named variable or function.
    Var(String),
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Pointer dereference `*e`.
    Deref(Box<Expr>),
    /// Address-of `&e`.
    AddrOf(Box<Expr>),
    /// Pre/post increment or decrement.
    IncDec {
        /// `+1` for `++`, `-1` for `--`.
        delta: i64,
        /// True for prefix form.
        pre: bool,
        /// The lvalue being adjusted.
        target: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Simple or compound assignment (`=`, `+=`, ...).
    Assign {
        /// `None` for `=`, the combining operator for compound forms.
        op: Option<BinOp>,
        /// Target lvalue.
        lhs: Box<Expr>,
        /// Value expression.
        rhs: Box<Expr>,
    },
    /// A call. The callee is a name; name resolution decides whether it is a
    /// direct call or an indirect call through a variable of pointer type.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// Member access `base.field` or `base->field`.
    Member {
        /// The aggregate (or pointer to it).
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// True for `->`.
        arrow: bool,
    },
    /// Array indexing `base[index]`.
    Index {
        /// The array or pointer.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// A C cast `(ty)e`. A cast to `void` is the classic "silence the unused
    /// warning" idiom and is preserved for pruning.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// The ternary conditional `c ? a : b`.
    Ternary {
        /// The condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
    },
}

impl Expr {
    /// Returns true if the expression is an lvalue form we can assign to.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::Var(_)
                | ExprKind::Deref(_)
                | ExprKind::Member { .. }
                | ExprKind::Index { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_negation_round_trips() {
        let g = Guard::Defined("USE_ICMP".into());
        assert_eq!(g.negate().negate(), g);
    }

    #[test]
    fn guard_enablement() {
        let g = Guard::Defined("A".into());
        assert!(g.enabled(&["A".into()]));
        assert!(!g.enabled(&[]));
        assert!(g.negate().enabled(&[]));
        assert!(!g.negate().enabled(&["A".into()]));
    }
}
