//! Clang `-Wunused`-style detection: recursive AST walking.
//!
//! Per §8.4.1 of the paper, Clang "does not perform a precise analysis to
//! detect unused definitions but just depends on recursive AST walking. It
//! follows gcc as the specification and only detects a variable as unused
//! when it never gets referred to on the right-hand side." So a variable
//! that is read *anywhere* — even only in a condition guarding nothing — is
//! never reported, which is exactly why Fig. 8's bug escapes it.

use std::collections::HashMap;

use vc_ir::ast::{
    Block,
    Expr,
    ExprKind,
    FuncDef,
    Item,
    Module,
    Stmt,
    StmtKind, //
};

use crate::finding::{
    Finding,
    Tool, //
};

/// Runs the Clang-style check over parsed modules.
pub fn clang_unused(modules: &[(String, Module)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (file, module) in modules {
        for item in &module.items {
            if let Item::Func(f) = item {
                check_function(file, f, &mut out);
            }
        }
    }
    out
}

#[derive(Default)]
struct VarStats {
    /// Read occurrences (any RHS / use position).
    reads: usize,
    /// Write occurrences beyond the declaration.
    writes: usize,
    /// Declaration line.
    line: u32,
    /// Whether the declaration carries an unused attribute.
    unused_attr: bool,
    /// Whether this is a parameter.
    is_param: bool,
}

fn check_function(file: &str, f: &FuncDef, out: &mut Vec<Finding>) {
    let mut vars: HashMap<String, VarStats> = HashMap::new();
    for p in &f.params {
        vars.insert(
            p.name.clone(),
            VarStats {
                line: p.span.line(),
                unused_attr: p.unused_attr,
                is_param: true,
                ..Default::default()
            },
        );
    }
    collect_block(&f.body, &mut vars);

    for (name, st) in &vars {
        if st.unused_attr || st.reads > 0 {
            continue;
        }
        // -Wunused-variable: never referenced at all.
        // -Wunused-but-set-variable / -parameter: written but never read.
        let kind = if st.writes == 0 && !st.is_param {
            "unused-variable"
        } else if st.writes > 0 {
            "unused-but-set-variable"
        } else {
            "unused-parameter"
        };
        out.push(Finding {
            tool: Tool::Clang,
            file: file.to_string(),
            line: st.line,
            function: f.name.clone(),
            variable: name.clone(),
            kind: kind.to_string(),
        });
    }
}

fn collect_block(b: &Block, vars: &mut HashMap<String, VarStats>) {
    for s in &b.stmts {
        collect_stmt(s, vars);
    }
}

fn collect_stmt(s: &Stmt, vars: &mut HashMap<String, VarStats>) {
    match &s.kind {
        StmtKind::Decl {
            name,
            init,
            unused_attr,
            ..
        } => {
            vars.insert(
                name.clone(),
                VarStats {
                    line: s.span.line(),
                    unused_attr: *unused_attr,
                    ..Default::default()
                },
            );
            if let Some(e) = init {
                collect_expr(e, true, vars);
            }
        }
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => collect_expr(e, true, vars),
        StmtKind::If { cond, then, els } => {
            collect_expr(cond, true, vars);
            collect_block(then, vars);
            if let Some(e) = els {
                collect_block(e, vars);
            }
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
            collect_expr(cond, true, vars);
            collect_block(body, vars);
        }
        StmtKind::Switch {
            scrutinee,
            cases,
            default,
        } => {
            collect_expr(scrutinee, true, vars);
            for c in cases {
                collect_block(&c.body, vars);
            }
            if let Some(d) = default {
                collect_block(d, vars);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                collect_stmt(i, vars);
            }
            if let Some(c) = cond {
                collect_expr(c, true, vars);
            }
            if let Some(st) = step {
                collect_expr(st, true, vars);
            }
            collect_block(body, vars);
        }
        StmtKind::Block(b) => collect_block(b, vars),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Error => {}
    }
}

/// Walks an expression; `read_pos` is false only for the direct target of a
/// simple assignment (its subexpressions are still reads).
fn collect_expr(e: &Expr, read_pos: bool, vars: &mut HashMap<String, VarStats>) {
    match &e.kind {
        ExprKind::Var(n) => {
            if let Some(st) = vars.get_mut(n) {
                if read_pos {
                    st.reads += 1;
                } else {
                    st.writes += 1;
                }
            }
        }
        ExprKind::Assign { op, lhs, rhs } => {
            // Compound assignment reads the target too.
            collect_expr(lhs, op.is_some(), vars);
            collect_expr(rhs, true, vars);
        }
        ExprKind::IncDec { target, .. } => {
            // `x++` both reads and writes; gcc counts it as a use.
            collect_expr(target, true, vars);
        }
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => {
            collect_expr(expr, true, vars)
        }
        ExprKind::Deref(inner) | ExprKind::AddrOf(inner) => collect_expr(inner, true, vars),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_expr(lhs, true, vars);
            collect_expr(rhs, true, vars);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_expr(a, true, vars);
            }
        }
        ExprKind::Member { base, .. } => collect_expr(base, true, vars),
        ExprKind::Index { base, index } => {
            collect_expr(base, true, vars);
            collect_expr(index, true, vars);
        }
        ExprKind::Ternary { cond, then, els } => {
            collect_expr(cond, true, vars);
            collect_expr(then, true, vars);
            collect_expr(els, true, vars);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_ir::{
        span::FileId,
        testing::parse_clean, //
    };

    fn run(src: &str) -> Vec<Finding> {
        let m = parse_clean(FileId(0), src);
        clang_unused(&[("a.c".to_string(), m)])
    }

    #[test]
    fn reports_never_referenced_variable() {
        let f = run("void f(void) { int dead = 3; }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].variable, "dead");
        assert_eq!(f[0].kind, "unused-variable");
        // Set *after* declaration: the -Wunused-but-set-variable case.
        let f = run("void f(void) { int dead; dead = 3; }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "unused-but-set-variable");
    }

    #[test]
    fn reports_never_declared_read_variable() {
        let f = run("void f(void) { int x; }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "unused-variable");
    }

    #[test]
    fn misses_flow_sensitive_dead_store() {
        // The Figure 8 shape: `ret` IS referenced, Clang stays silent.
        let f = run("void f(void) { int ret = a(); ret = b(); if (ret) { c(); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn misses_overwritten_param() {
        // bufsz is read after the overwrite: referenced => silent.
        let f = run("int open(char *p, int bufsz) { bufsz = 1400; return bufsz; }");
        assert!(f.iter().all(|x| x.variable != "bufsz"));
    }

    #[test]
    fn reports_unused_parameter() {
        let f = run("int f(int used, int ignored) { return used; }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].variable, "ignored");
        assert_eq!(f[0].kind, "unused-parameter");
    }

    #[test]
    fn respects_unused_attribute() {
        let f = run("int f(int force [[maybe_unused]]) { return 0; }");
        assert!(f.is_empty());
    }
}
