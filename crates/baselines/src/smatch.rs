//! Smatch's unused-return-value checks.
//!
//! Per §8.4.3, Smatch-unused "detects one type of unused definitions: the
//! return value of a function is unused", and "conducts analysis based on
//! the AST parser instead of control flow analysis, so the analysis is not
//! precise and has high false positives". Two AST-level patterns are
//! implemented:
//!
//! - a variable assigned from a call and never *syntactically* read anywhere
//!   in the function (flow-insensitive, so Fig. 8's `if (ret)` hides the
//!   dead first assignment);
//! - a bare call statement ignoring the result of a function whose result
//!   the majority of other call sites consume (Smatch's
//!   `check_unchecked_return_value` heuristic).
//!
//! Smatch also fails to build everything but Linux in the paper's evaluation
//! (§8.4.3); the harness models that by invoking it on the Linux profile
//! only.

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

/// Runs the Smatch-style checks over parsed modules.
pub fn smatch_unused(modules: &[(String, Module)]) -> Vec<Finding> {
    // Program-wide: how often each callee's result is consumed vs. ignored.
    let mut usage: HashMap<String, (usize, usize)> = HashMap::new(); // (consumed, ignored)
    for (_, module) in modules {
        for item in &module.items {
            if let Item::Func(f) = item {
                scan_usage(&f.body, &mut usage);
            }
        }
    }

    let mut out = Vec::new();
    for (file, module) in modules {
        for item in &module.items {
            if let Item::Func(f) = item {
                check_function(file, f, &usage, &mut out);
            }
        }
    }
    out
}

fn scan_usage(b: &Block, usage: &mut HashMap<String, (usize, usize)>) {
    walk_stmts(b, &mut |s| {
        if let StmtKind::Expr(Expr {
            kind: ExprKind::Call { callee, .. },
            ..
        }) = &s.kind
        {
            usage.entry(callee.clone()).or_default().1 += 1;
        } else {
            // Any call nested inside a larger expression/statement consumes
            // its result.
            for_each_call(s, &mut |callee| {
                usage.entry(callee.to_string()).or_default().0 += 1;
            });
        }
    });
}

fn check_function(
    file: &str,
    f: &FuncDef,
    usage: &HashMap<String, (usize, usize)>,
    out: &mut Vec<Finding>,
) {
    // Pattern 1: `v = call(...)` where v is never syntactically read.
    let mut assigned_from_call: Vec<(String, u32, String)> = Vec::new(); // (var, line, callee)
    let mut reads: HashMap<String, usize> = HashMap::new();
    walk_stmts(&f.body, &mut |s| {
        match &s.kind {
            StmtKind::Decl {
                name,
                init:
                    Some(Expr {
                        kind: ExprKind::Call { callee, .. },
                        ..
                    }),
                ..
            } => assigned_from_call.push((name.clone(), s.span.line(), callee.clone())),
            StmtKind::Expr(Expr {
                kind: ExprKind::Assign { op: None, lhs, rhs },
                ..
            }) => {
                if let (ExprKind::Var(v), ExprKind::Call { callee, .. }) = (&lhs.kind, &rhs.kind) {
                    assigned_from_call.push((v.clone(), s.span.line(), callee.clone()));
                }
            }
            _ => {}
        }
        count_reads(s, &mut reads);
    });
    for (var, line, _callee) in assigned_from_call {
        if reads.get(&var).copied().unwrap_or(0) == 0 {
            out.push(Finding {
                tool: Tool::SmatchUnused,
                file: file.to_string(),
                line,
                function: f.name.clone(),
                variable: var,
                kind: "unused-return".to_string(),
            });
        }
    }

    // Pattern 2: ignored result of a mostly-checked function.
    walk_stmts(&f.body, &mut |s| {
        if let StmtKind::Expr(Expr {
            kind: ExprKind::Call { callee, .. },
            span,
        }) = &s.kind
        {
            if let Some((consumed, ignored)) = usage.get(callee) {
                let total = consumed + ignored;
                if total >= 2 && *consumed * 2 > total {
                    out.push(Finding {
                        tool: Tool::SmatchUnused,
                        file: file.to_string(),
                        line: span.line(),
                        function: f.name.clone(),
                        variable: format!("$ret_{}_{}", callee, span.line()),
                        kind: "unchecked-return".to_string(),
                    });
                }
            }
        }
    });
}

/// Calls `f` on every statement, recursively.
fn walk_stmts(b: &Block, f: &mut impl FnMut(&Stmt)) {
    for s in &b.stmts {
        f(s);
        match &s.kind {
            StmtKind::If { then, els, .. } => {
                walk_stmts(then, f);
                if let Some(e) = els {
                    walk_stmts(e, f);
                }
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => walk_stmts(body, f),
            StmtKind::Switch { cases, default, .. } => {
                for c in cases {
                    walk_stmts(&c.body, f);
                }
                if let Some(d) = default {
                    walk_stmts(d, f);
                }
            }
            StmtKind::For { body, init, .. } => {
                if let Some(i) = init {
                    f(i);
                }
                walk_stmts(body, f);
            }
            StmtKind::Block(inner) => walk_stmts(inner, f),
            _ => {}
        }
    }
}

/// Counts syntactic reads of each variable in one statement (assignment
/// targets of simple `=` excluded).
fn count_reads(s: &Stmt, reads: &mut HashMap<String, usize>) {
    fn expr(e: &Expr, read_pos: bool, reads: &mut HashMap<String, usize>) {
        match &e.kind {
            ExprKind::Var(n) if read_pos => {
                *reads.entry(n.clone()).or_default() += 1;
            }
            ExprKind::Assign { op, lhs, rhs } => {
                expr(lhs, op.is_some(), reads);
                expr(rhs, true, reads);
            }
            ExprKind::IncDec { target, .. } => expr(target, true, reads),
            ExprKind::Unary { expr: e2, .. }
            | ExprKind::Cast { expr: e2, .. }
            | ExprKind::Deref(e2)
            | ExprKind::AddrOf(e2) => expr(e2, true, reads),
            ExprKind::Binary { lhs, rhs, .. } => {
                expr(lhs, true, reads);
                expr(rhs, true, reads);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    expr(a, true, reads);
                }
            }
            ExprKind::Member { base, .. } => expr(base, true, reads),
            ExprKind::Index { base, index } => {
                expr(base, true, reads);
                expr(index, true, reads);
            }
            ExprKind::Ternary { cond, then, els } => {
                expr(cond, true, reads);
                expr(then, true, reads);
                expr(els, true, reads);
            }
            _ => {}
        }
    }
    match &s.kind {
        StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
            expr(e, true, reads)
        }
        StmtKind::If { cond, .. } => expr(cond, true, reads),
        StmtKind::While { cond, .. } | StmtKind::DoWhile { cond, .. } => expr(cond, true, reads),
        StmtKind::Switch { scrutinee, .. } => expr(scrutinee, true, reads),
        StmtKind::For { cond, step, .. } => {
            if let Some(c) = cond {
                expr(c, true, reads);
            }
            if let Some(st) = step {
                expr(st, true, reads);
            }
        }
        _ => {}
    }
}

/// Calls `f` with each callee name of calls nested in (non-bare) positions.
fn for_each_call(s: &Stmt, f: &mut impl FnMut(&str)) {
    fn expr(e: &Expr, f: &mut impl FnMut(&str)) {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                f(callee);
                for a in args {
                    expr(a, f);
                }
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                expr(lhs, f);
                expr(rhs, f);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                expr(lhs, f);
                expr(rhs, f);
            }
            ExprKind::Unary { expr: e2, .. }
            | ExprKind::Cast { expr: e2, .. }
            | ExprKind::Deref(e2)
            | ExprKind::AddrOf(e2)
            | ExprKind::IncDec { target: e2, .. } => expr(e2, f),
            ExprKind::Member { base, .. } => expr(base, f),
            ExprKind::Index { base, index } => {
                expr(base, f);
                expr(index, f);
            }
            ExprKind::Ternary { cond, then, els } => {
                expr(cond, f);
                expr(then, f);
                expr(els, f);
            }
            _ => {}
        }
    }
    match &s.kind {
        StmtKind::Decl { init: Some(e), .. } | StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
            expr(e, f)
        }
        StmtKind::If { cond, .. } => expr(cond, f),
        StmtKind::While { cond, .. } | StmtKind::DoWhile { cond, .. } => expr(cond, f),
        StmtKind::Switch { scrutinee, .. } => expr(scrutinee, f),
        StmtKind::For { cond, step, .. } => {
            if let Some(c) = cond {
                expr(c, f);
            }
            if let Some(st) = step {
                expr(st, f);
            }
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
        smatch_unused(&[("a.c".to_string(), m)])
    }

    #[test]
    fn reports_never_read_retval_var() {
        let f = run("void f(void) { int r = getv(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].variable, "r");
        assert_eq!(f[0].kind, "unused-return");
    }

    #[test]
    fn figure_8_pattern_is_missed() {
        // `ret` is read in `if (ret)`: the syntactic check stays silent on
        // the dead first assignment — the paper's Fig. 8.
        let f =
            run("void f(void) { int ret = get_permset(); ret = calc_mask(); if (ret) { h(); } }");
        assert!(f.iter().all(|x| x.kind != "unused-return"), "{f:?}");
    }

    #[test]
    fn unchecked_return_uses_majority_heuristic() {
        // check_status's result is consumed at 2 sites and ignored at 1:
        // the ignoring site is flagged.
        let src = "void a(void) { if (check_status()) { h(); } }\n\
                   void b(void) { int v = check_status(); use(v); }\n\
                   void c(void) { check_status(); }\n";
        let f = run(src);
        let unchecked: Vec<_> = f.iter().filter(|x| x.kind == "unchecked-return").collect();
        assert_eq!(unchecked.len(), 1);
        assert_eq!(unchecked[0].function, "c");
    }

    #[test]
    fn mostly_ignored_function_is_not_flagged() {
        let src = "void a(void) { log_msg(\"x\"); }\n\
                   void b(void) { log_msg(\"y\"); }\n\
                   void c(void) { log_msg(\"z\"); }\n";
        let f = run(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn overwritten_argument_is_invisible() {
        let f = run("int open(char *p, int bufsz) { bufsz = 1400; return bufsz; }");
        assert!(f.is_empty(), "{f:?}");
    }
}
