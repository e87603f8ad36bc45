//! Coverity Scan's unused-value and unchecked-return-value checks.
//!
//! Per §8.4.4, Coverity-unused "only detects unused assignment and unused
//! return value, excluding other types of unused definitions (e.g. assigned
//! but unused arguments)", and "infers whether function return values need
//! be used based on the percentage of used return values. If the function is
//! only used once, it cannot correctly infer whether the return value should
//! be used." It also prunes nothing that was intentionally left in the code
//! (no authorship, no semantics).
//!
//! Coverity's `UNUSED_VALUE` checker concerns *values received from a
//! function call* that are never used — a plain arithmetic redundancy like
//! `t = a * 2; t = a + 3;` is below its reporting bar — so the unused-value
//! arm here only fires on call-result stores.
//!
//! The paper further notes that several evaluated projects had previously
//! run Coverity and addressed its warnings; the harness models that with the
//! `suppress` set of historically-fixed finding identities.

use std::collections::{
    HashMap,
    HashSet, //
};

use vc_dataflow::dead_stores;
use vc_ir::{
    cfg::Cfg,
    ir::{
        LocalKind,
        StoreInfo, //
    },
    Program,
    VarKey, //
};

use crate::finding::{
    Finding,
    Tool, //
};

/// Runs the Coverity-style checks.
///
/// `suppress` holds identities `(function, variable, line)` of findings the
/// project already addressed in the past (the tool was run before, §8.4.4);
/// those are not re-reported.
pub fn coverity_unused(prog: &Program, suppress: &HashSet<(String, String, u32)>) -> Vec<Finding> {
    // Return-value usage ratios for the unchecked-return inference.
    let mut ignored_stores: HashMap<String, usize> = HashMap::new();

    let mut raw: Vec<Finding> = Vec::new();
    for f in &prog.funcs {
        let cfg = Cfg::new(f);
        for d in dead_stores(f, &cfg) {
            let VarKey::Local(l) = d.key else {
                continue; // No field-granular unused values.
            };
            if matches!(d.info, StoreInfo::ParamInit { .. }) {
                continue; // "excluding ... assigned but unused arguments".
            }
            let synthetic = f.local(l).kind == LocalKind::Synthetic;
            if synthetic {
                // Ignored call result: defer to the usage-ratio inference.
                if let StoreInfo::RetVal { callee, .. } = &d.info {
                    *ignored_stores.entry(callee.clone()).or_default() += 1;
                    raw.push(Finding {
                        tool: Tool::CoverityUnused,
                        file: prog.source.name(d.span.file).to_string(),
                        line: d.span.line(),
                        function: f.name.clone(),
                        variable: f.var_key_name(d.key),
                        kind: format!("unchecked-return:{callee}"),
                    });
                }
                continue;
            }
            // UNUSED_VALUE only concerns values received from calls.
            if !matches!(d.info, StoreInfo::RetVal { .. }) {
                continue;
            }
            raw.push(Finding {
                tool: Tool::CoverityUnused,
                file: prog.source.name(d.span.file).to_string(),
                line: d.span.line(),
                function: f.name.clone(),
                variable: f.var_key_name(d.key),
                kind: "unused-value".to_string(),
            });
        }
    }

    // Apply the usage-ratio inference to unchecked-return findings: only
    // report when the callee has >= 2 call sites and most of them use the
    // result. A single call site is uninferable and dropped (Fig. 8's
    // `get_permset` case).
    let mut call_counts: HashMap<&str, usize> = HashMap::new();
    for (callee, _) in prog.direct_calls() {
        *call_counts.entry(callee).or_default() += 1;
    }
    raw.retain(|f| {
        let Some(callee) = f.kind.strip_prefix("unchecked-return:") else {
            return true;
        };
        let total = call_counts.get(callee).copied().unwrap_or(0);
        let ignored = ignored_stores.get(callee).copied().unwrap_or(0);
        let used = total.saturating_sub(ignored);
        total >= 2 && used * 2 > total
    });
    for f in &mut raw {
        if f.kind.starts_with("unchecked-return:") {
            f.kind = "unchecked-return".to_string();
        }
    }

    raw.retain(|f| !suppress.contains(&f.identity()));
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        coverity_unused(&prog, &HashSet::new())
    }

    #[test]
    fn reports_unused_call_value() {
        let f = run("void f(void) { int x = g(); x = 2; use(x); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "unused-value");
    }

    #[test]
    fn plain_arithmetic_redundancy_is_below_the_bar() {
        let f = run("void f(int a) { int x = a * 2; x = 2; use(x); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn single_call_site_is_uninferable() {
        // `get_permset` is called once; Coverity cannot infer the result
        // must be checked (the Fig. 8 miss).
        let f = run("int get_permset(void);\nvoid f(void) { get_permset(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn majority_checked_function_is_flagged_when_ignored() {
        let src = "int check(void);\n\
                   void a(void) { int v = check(); use(v); }\n\
                   void b(void) { int w = check(); use(w); }\n\
                   void c(void) { check(); }\n";
        let f = run(src);
        let unchecked: Vec<_> = f.iter().filter(|x| x.kind == "unchecked-return").collect();
        assert_eq!(unchecked.len(), 1);
        assert_eq!(unchecked[0].function, "c");
    }

    #[test]
    fn overwritten_argument_is_excluded() {
        let f = run("int open(char *p, int bufsz) { bufsz = 1400; return bufsz; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn suppression_removes_historically_fixed_findings() {
        let src = "void f(void) { int x = g(); x = 2; use(x); }";
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        let all = coverity_unused(&prog, &HashSet::new());
        assert_eq!(all.len(), 1);
        let mut suppress = HashSet::new();
        suppress.insert(all[0].identity());
        let after = coverity_unused(&prog, &suppress);
        assert!(after.is_empty());
    }
}
