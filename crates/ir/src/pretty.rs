//! Pretty printers: AST back to MiniC source, and IR to a readable dump.
//!
//! The AST printer is the inverse of the parser up to formatting; the
//! round-trip property `pretty(parse(pretty(x))) == pretty(x)` is checked by
//! property tests. The workload generator also uses it to materialize
//! generated ASTs as source text that can be committed to the VCS substrate.

use crate::{
    ast::{
        BinOp,
        Block,
        Expr,
        ExprKind,
        FuncDef,
        Guard,
        Item,
        Module,
        Param,
        Stmt,
        StmtKind,
        UnOp, //
    },
    ir::{
        Callee,
        Function,
        Inst,
        Operand,
        Place,
        Terminator, //
    },
    types::Type,
};

/// Renders a module as MiniC source text.
pub fn module_to_source(m: &Module) -> String {
    let mut out = String::new();
    for item in &m.items {
        match item {
            Item::Struct(s) => {
                out.push_str(&format!("struct {} {{\n", s.name));
                for f in &s.fields {
                    out.push_str(&format!("  {};\n", decl_str(&f.ty, &f.name)));
                }
                out.push_str("};\n");
            }
            Item::Global(g) => {
                out.push_str(&decl_str(&g.ty, &g.name));
                if let Some(init) = &g.init {
                    out.push_str(&format!(" = {}", expr_str(init)));
                }
                out.push_str(";\n");
            }
            Item::FuncDecl(d) => {
                out.push_str(&format!(
                    "{} {}({});\n",
                    d.ret,
                    d.name,
                    params_str(&d.params)
                ));
            }
            Item::Func(f) => {
                out.push_str(&func_to_source(f));
            }
        }
    }
    out
}

/// Renders one function definition as source text.
pub fn func_to_source(f: &FuncDef) -> String {
    let mut out = String::new();
    if f.is_static {
        out.push_str("static ");
    }
    out.push_str(&format!(
        "{} {}({}) {{\n",
        f.ret,
        f.name,
        params_str(&f.params)
    ));
    block_body(&f.body, 1, &mut out);
    out.push_str("}\n");
    out
}

fn params_str(params: &[Param]) -> String {
    if params.is_empty() {
        return "void".to_string();
    }
    params
        .iter()
        .map(|p| {
            let mut s = decl_str(&p.ty, &p.name);
            if p.unused_attr {
                s.push_str(" [[maybe_unused]]");
            }
            s
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders `ty name`, putting array lengths after the name as C does.
fn decl_str(ty: &Type, name: &str) -> String {
    match ty {
        Type::Array(elem, n) => format!("{elem} {name}[{n}]"),
        other => format!("{other} {name}"),
    }
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn block_body(b: &Block, depth: usize, out: &mut String) {
    let mut open_guards: Vec<Guard> = Vec::new();
    for s in &b.stmts {
        sync_guards(&mut open_guards, &s.guards, out);
        stmt_to_source(s, depth, out);
    }
    sync_guards(&mut open_guards, &[], out);
}

/// Emits `#if`/`#endif` lines to move from the open guard stack to `want`.
fn sync_guards(open: &mut Vec<Guard>, want: &[Guard], out: &mut String) {
    // Pop guards not shared with `want`.
    let common = open
        .iter()
        .zip(want.iter())
        .take_while(|(a, b)| a == b)
        .count();
    while open.len() > common {
        open.pop();
        out.push_str("#endif\n");
    }
    for g in &want[common..] {
        match g {
            Guard::Defined(s) => out.push_str(&format!("#ifdef {s}\n")),
            Guard::NotDefined(s) => out.push_str(&format!("#ifndef {s}\n")),
        }
        open.push(g.clone());
    }
}

fn stmt_to_source(s: &Stmt, depth: usize, out: &mut String) {
    match &s.kind {
        StmtKind::Decl {
            name,
            ty,
            init,
            unused_attr,
        } => {
            indent(depth, out);
            out.push_str(&decl_str(ty, name));
            if *unused_attr {
                out.push_str(" [[maybe_unused]]");
            }
            if let Some(e) = init {
                out.push_str(&format!(" = {}", expr_str(e)));
            }
            out.push_str(";\n");
        }
        StmtKind::Expr(e) => {
            indent(depth, out);
            out.push_str(&expr_str(e));
            out.push_str(";\n");
        }
        StmtKind::If { cond, then, els } => {
            indent(depth, out);
            out.push_str(&format!("if ({}) {{\n", expr_str(cond)));
            block_body(then, depth + 1, out);
            indent(depth, out);
            out.push('}');
            if let Some(e) = els {
                out.push_str(" else {\n");
                block_body(e, depth + 1, out);
                indent(depth, out);
                out.push('}');
            }
            out.push('\n');
        }
        StmtKind::While { cond, body } => {
            indent(depth, out);
            out.push_str(&format!("while ({}) {{\n", expr_str(cond)));
            block_body(body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        StmtKind::DoWhile { body, cond } => {
            indent(depth, out);
            out.push_str("do {\n");
            block_body(body, depth + 1, out);
            indent(depth, out);
            out.push_str(&format!("}} while ({});\n", expr_str(cond)));
        }
        StmtKind::Switch {
            scrutinee,
            cases,
            default,
        } => {
            indent(depth, out);
            out.push_str(&format!("switch ({}) {{\n", expr_str(scrutinee)));
            for c in cases {
                for v in &c.values {
                    indent(depth + 1, out);
                    if *v < 0 {
                        out.push_str(&format!("case -{}:\n", -v));
                    } else {
                        out.push_str(&format!("case {v}:\n"));
                    }
                }
                block_body(&c.body, depth + 2, out);
                indent(depth + 2, out);
                out.push_str("break;\n");
            }
            if let Some(d) = default {
                indent(depth + 1, out);
                out.push_str("default:\n");
                block_body(d, depth + 2, out);
                indent(depth + 2, out);
                out.push_str("break;\n");
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            indent(depth, out);
            out.push_str("for (");
            match init {
                Some(i) => match &i.kind {
                    StmtKind::Decl { name, ty, init, .. } => {
                        out.push_str(&decl_str(ty, name));
                        if let Some(e) = init {
                            out.push_str(&format!(" = {}", expr_str(e)));
                        }
                        out.push(';');
                    }
                    StmtKind::Expr(e) => {
                        out.push_str(&expr_str(e));
                        out.push(';');
                    }
                    _ => out.push(';'),
                },
                None => out.push(';'),
            }
            out.push(' ');
            if let Some(c) = cond {
                out.push_str(&expr_str(c));
            }
            out.push_str("; ");
            if let Some(st) = step {
                out.push_str(&expr_str(st));
            }
            out.push_str(") {\n");
            block_body(body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        StmtKind::Return(v) => {
            indent(depth, out);
            match v {
                Some(e) => out.push_str(&format!("return {};\n", expr_str(e))),
                None => out.push_str("return;\n"),
            }
        }
        StmtKind::Break => {
            indent(depth, out);
            out.push_str("break;\n");
        }
        StmtKind::Continue => {
            indent(depth, out);
            out.push_str("continue;\n");
        }
        StmtKind::Block(b) => {
            indent(depth, out);
            out.push_str("{\n");
            block_body(b, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        StmtKind::Error => {
            indent(depth, out);
            out.push_str("/* poisoned by parse recovery */;\n");
        }
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
    }
}

/// Renders an expression, fully parenthesized to sidestep precedence.
pub fn expr_str(e: &Expr) -> String {
    match &e.kind {
        ExprKind::IntLit(v) => {
            if *v < 0 {
                format!("({v})")
            } else {
                v.to_string()
            }
        }
        ExprKind::StrLit(s) => format!(
            "\"{}\"",
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
                .replace('\t', "\\t")
        ),
        ExprKind::BoolLit(b) => b.to_string(),
        ExprKind::Null => "NULL".to_string(),
        ExprKind::Var(n) => n.clone(),
        ExprKind::Unary { op, expr } => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
            };
            format!("({sym}{})", expr_str(expr))
        }
        ExprKind::Deref(inner) => format!("(*{})", expr_str(inner)),
        ExprKind::AddrOf(inner) => format!("(&{})", expr_str(inner)),
        ExprKind::IncDec { delta, pre, target } => {
            let sym = if *delta > 0 { "++" } else { "--" };
            if *pre {
                format!("({sym}{})", expr_str(target))
            } else {
                format!("({}{sym})", expr_str(target))
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {} {})", expr_str(lhs), binop_str(*op), expr_str(rhs))
        }
        ExprKind::Assign { op, lhs, rhs } => match op {
            None => format!("{} = {}", expr_str(lhs), expr_str(rhs)),
            Some(b) => format!("{} {}= {}", expr_str(lhs), binop_str(*b), expr_str(rhs)),
        },
        ExprKind::Call { callee, args } => {
            let a: Vec<String> = args.iter().map(expr_str).collect();
            format!("{callee}({})", a.join(", "))
        }
        ExprKind::Member { base, field, arrow } => {
            let sep = if *arrow { "->" } else { "." };
            format!("{}{sep}{field}", expr_str(base))
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", expr_str(base), expr_str(index))
        }
        ExprKind::Cast { ty, expr } => format!("({ty}){}", expr_str(expr)),
        ExprKind::Ternary { cond, then, els } => format!(
            "({} ? {} : {})",
            expr_str(cond),
            expr_str(then),
            expr_str(els)
        ),
    }
}

/// Renders a lowered function as a readable IR dump, for debugging and
/// snapshot tests.
pub fn function_to_ir_text(f: &Function) -> String {
    let mut out = format!("func {}({} params) {{\n", f.name, f.params.len());
    for (id, bb) in f.iter_blocks() {
        out.push_str(&format!("bb{}:\n", id.0));
        for inst in &bb.insts {
            out.push_str("  ");
            out.push_str(&inst_str(f, inst));
            out.push('\n');
        }
        out.push_str("  ");
        out.push_str(&term_str(&bb.term));
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

fn place_str(f: &Function, p: &Place) -> String {
    match p {
        Place::Local(l) => format!("%{}", f.local(*l).name),
        Place::Field(l, n) => format!("%{}#{n}", f.local(*l).name),
        Place::Global(g) => format!("@{g}"),
        Place::GlobalField(g, n) => format!("@{g}#{n}"),
        Place::Deref(t) => format!("*t{}", t.0),
        Place::DerefField(t, n) => format!("t{}->#{n}", t.0),
    }
}

fn operand_str(o: &Operand) -> String {
    match o {
        Operand::Temp(t) => format!("t{}", t.0),
        Operand::Const(c) => c.to_string(),
        Operand::Str(s) => format!("{s:?}"),
        Operand::FuncAddr(n) => format!("&{n}"),
        Operand::Null => "null".to_string(),
    }
}

fn inst_str(f: &Function, inst: &Inst) -> String {
    match inst {
        Inst::Load { dst, place, .. } => {
            format!("t{} = load {}", dst.0, place_str(f, place))
        }
        Inst::Store {
            place, value, info, ..
        } => format!(
            "store {}, {}  ; {:?}",
            place_str(f, place),
            operand_str(value),
            info
        ),
        Inst::Bin {
            dst, op, lhs, rhs, ..
        } => format!(
            "t{} = {} {} {}",
            dst.0,
            operand_str(lhs),
            binop_str(*op),
            operand_str(rhs)
        ),
        Inst::Un {
            dst, op, operand, ..
        } => {
            format!("t{} = {op:?} {}", dst.0, operand_str(operand))
        }
        Inst::AddrOf { dst, place, .. } => {
            format!("t{} = addr {}", dst.0, place_str(f, place))
        }
        Inst::Call {
            dst, callee, args, ..
        } => {
            let a: Vec<String> = args.iter().map(operand_str).collect();
            let c = match callee {
                Callee::Direct(n) => n.clone(),
                Callee::Indirect(t) => format!("*t{}", t.0),
            };
            match dst {
                Some(d) => format!("t{} = call {c}({})", d.0, a.join(", ")),
                None => format!("call {c}({})", a.join(", ")),
            }
        }
    }
}

fn term_str(t: &Terminator) -> String {
    match t {
        Terminator::Br(b) => format!("br bb{}", b.0),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => format!(
            "condbr {}, bb{}, bb{}",
            operand_str(cond),
            then_bb.0,
            else_bb.0
        ),
        Terminator::Ret { value, .. } => match value {
            Some(v) => format!("ret {}", operand_str(v)),
            None => "ret".to_string(),
        },
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        span::FileId,
        testing::parse_clean, //
    };

    fn round_trip(src: &str) {
        let printed1 = module_to_source(&parse_clean(FileId(0), src));
        let printed2 = module_to_source(&parse_clean(FileId(0), &printed1));
        assert_eq!(printed1, printed2, "pretty-print not idempotent");
    }

    #[test]
    fn round_trips_basic_constructs() {
        round_trip(
            "struct s { int a; char *b; };\n\
             int g = 4;\n\
             int f(struct s *p, int n) {\n\
               int acc = 0;\n\
               for (int i = 0; i < n; i++) { acc += p->a; }\n\
               while (acc > 100) { acc = acc - 10; }\n\
               if (acc) { return acc; } else { return -1; }\n\
             }",
        );
    }

    #[test]
    fn round_trips_guards() {
        round_trip(
            "void f(void) {\nint x = 1;\n#ifdef A\nuse(x);\n#else\ndrop(x);\n#endif\ndone();\n}",
        );
    }

    #[test]
    fn round_trips_cursor_and_attrs() {
        round_trip("void f(char *o, int force [[maybe_unused]]) {\n*o++ = '_';\n(void)force;\n}");
    }

    #[test]
    fn round_trips_switch_and_do_while() {
        round_trip(
            "int f(int x) {\n\
             int r = 0;\n\
             switch (x) {\n\
             case 1:\n\
             case 2:\n\
               r = 10;\n\
               break;\n\
             case 5:\n\
               r = 50;\n\
             default:\n\
               r = -1;\n\
             }\n\
             do { r = r + 1; } while (r < 0);\n\
             return r;\n\
             }",
        );
    }

    #[test]
    fn ir_dump_is_stable() {
        let prog = crate::program::Program::build(
            &[("a.c", "int f(int x) { int y = x + 1; return y; }")],
            &[],
        )
        .unwrap();
        let dump = function_to_ir_text(&prog.funcs[0]);
        assert!(dump.contains("store %x"), "param spill missing:\n{dump}");
        assert!(dump.contains("store %y"), "local store missing:\n{dump}");
        assert!(dump.contains("ret"), "return missing:\n{dump}");
    }
}
