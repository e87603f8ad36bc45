//! Test support: deterministic random MiniC programs, a parse that must be
//! clean, and a canonical text of a whole build.
//!
//! Property tests across the workspace need "some arbitrary valid program".
//! [`source_from_seed`] derives one deterministically from a `u64`, using a
//! self-contained LCG so the crate needs no RNG dependency. Generated
//! programs always parse, lower, and pass IR validation (checked by this
//! module's own tests).

use std::collections::BTreeMap;

use crate::{
    ast::Module,
    parser::parse_recovering,
    pretty::function_to_ir_text,
    program::{
        BuildError,
        Program,
        RecoverStats, //
    },
    span::FileId, //
};

/// Parses `src` and returns its module, panicking with the first
/// diagnostic (and the source) unless the parse was clean.
pub fn parse_clean(file: FileId, src: &str) -> Module {
    let (module, errors) = parse_recovering(file, src);
    if let Some(e) = errors.first() {
        panic!("{e}\nsource:\n{src}");
    }
    module
}

/// Everything a build produced, as text, for tests that compare two builds
/// byte for byte: each function's IR dump and full structure (spans,
/// locals, types) in program order, the externs, the globals and struct
/// layouts sorted by name, the errors, and the recovery stats.
pub fn build_text(prog: &Program, errors: &[BuildError], stats: &RecoverStats) -> String {
    let mut out = String::new();
    for f in &prog.funcs {
        out.push_str(&function_to_ir_text(f));
        out.push_str(&format!("{f:?}\n"));
    }
    out.push_str(&format!("externs {:?}\n", prog.extern_funcs));
    out.push_str(&format!(
        "globals {:?}\n",
        prog.globals.iter().collect::<BTreeMap<_, _>>()
    ));
    let types: BTreeMap<_, _> = prog.types.iter().map(|l| (&l.name, l)).collect();
    out.push_str(&format!("types {types:?}\n"));
    for e in errors {
        out.push_str(&format!("error {e}\n"));
    }
    out.push_str(&format!("stats {stats:?}\n"));
    out
}

/// A minimal LCG; constants from Numerical Recipes.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(
            seed.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        )
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Generates a deterministic, valid MiniC source file from a seed.
///
/// The program contains 1–4 functions with declarations, assignments,
/// arithmetic, calls, branches, and loops over a small variable pool; it is
/// guaranteed to parse and lower (see this module's tests).
pub fn source_from_seed(seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let nfuncs = 1 + rng.below(4);
    let mut out = String::new();
    for fi in 0..nfuncs {
        gen_function(&mut rng, fi, &mut out);
    }
    out
}

fn gen_function(rng: &mut Lcg, fi: usize, out: &mut String) {
    let nparams = rng.below(3);
    let params: Vec<String> = (0..nparams).map(|i| format!("p{i}")).collect();
    let sig = if params.is_empty() {
        "void".to_string()
    } else {
        params
            .iter()
            .map(|p| format!("int {p}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!("int fn{fi}({sig}) {{\n"));
    // Start the scope with a couple of locals so uses always resolve.
    let mut vars: Vec<String> = params;
    for i in 0..(1 + rng.below(3)) {
        let v = format!("v{i}");
        out.push_str(&format!("  int {v} = {};\n", rng.below(100)));
        vars.push(v);
    }
    let nstmts = 1 + rng.below(6);
    for _ in 0..nstmts {
        gen_stmt(rng, &vars, 1, out);
    }
    out.push_str(&format!("  return {};\n}}\n", expr(rng, &vars, 0)));
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn gen_stmt(rng: &mut Lcg, vars: &[String], depth: usize, out: &mut String) {
    match rng.below(if depth >= 3 { 3 } else { 8 }) {
        // Assignment.
        0 => {
            indent(depth, out);
            let v = &vars[rng.below(vars.len())];
            out.push_str(&format!("{v} = {};\n", expr(rng, vars, 0)));
        }
        // Compound assignment.
        1 => {
            indent(depth, out);
            let v = &vars[rng.below(vars.len())];
            let op = ["+=", "-=", "*="][rng.below(3)];
            out.push_str(&format!("{v} {op} {};\n", expr(rng, vars, 0)));
        }
        // Call statement.
        2 => {
            indent(depth, out);
            out.push_str(&format!("sink{}({});\n", rng.below(4), expr(rng, vars, 0)));
        }
        // If / if-else.
        3 => {
            indent(depth, out);
            out.push_str(&format!("if ({}) {{\n", expr(rng, vars, 0)));
            gen_stmt(rng, vars, depth + 1, out);
            indent(depth, out);
            if rng.below(2) == 0 {
                out.push_str("} else {\n");
                gen_stmt(rng, vars, depth + 1, out);
                indent(depth, out);
            }
            out.push_str("}\n");
        }
        // Bounded while loop.
        4 => {
            indent(depth, out);
            let v = &vars[rng.below(vars.len())];
            out.push_str(&format!("while ({v} > 0) {{\n"));
            indent(depth + 1, out);
            out.push_str(&format!("{v} = {v} - 1;\n"));
            gen_stmt(rng, vars, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        // For loop.
        5 => {
            indent(depth, out);
            out.push_str(&format!(
                "for (int k = 0; k < {}; k = k + 1) {{\n",
                1 + rng.below(9)
            ));
            let mut inner: Vec<String> = vars.to_vec();
            inner.push("k".into());
            gen_stmt(rng, &inner, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        // Switch.
        6 => {
            indent(depth, out);
            let v = &vars[rng.below(vars.len())];
            out.push_str(&format!("switch ({v}) {{\n"));
            let arms = 1 + rng.below(3);
            for a in 0..arms {
                indent(depth, out);
                out.push_str(&format!("case {a}:\n"));
                gen_stmt(rng, vars, depth + 1, out);
                indent(depth + 1, out);
                out.push_str("break;\n");
            }
            if rng.below(2) == 0 {
                indent(depth, out);
                out.push_str("default:\n");
                gen_stmt(rng, vars, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        // Bounded do-while.
        _ => {
            indent(depth, out);
            let v = &vars[rng.below(vars.len())];
            out.push_str("do {\n");
            indent(depth + 1, out);
            out.push_str(&format!("{v} = {v} - 1;\n"));
            gen_stmt(rng, vars, depth + 1, out);
            indent(depth, out);
            out.push_str(&format!("}} while ({v} > 0);\n"));
        }
    }
}

fn expr(rng: &mut Lcg, vars: &[String], depth: usize) -> String {
    match rng.below(if depth >= 2 { 2 } else { 5 }) {
        0 => rng.below(100).to_string(),
        1 => vars[rng.below(vars.len())].clone(),
        2 => {
            let op = ["+", "-", "*", "<", "==", "&&"][rng.below(6)];
            format!(
                "({} {} {})",
                expr(rng, vars, depth + 1),
                op,
                expr(rng, vars, depth + 1)
            )
        }
        3 => format!("(-{})", expr(rng, vars, depth + 1)),
        _ => format!("get{}({})", rng.below(4), expr(rng, vars, depth + 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        program::Program,
        validate::validate_program, //
    };

    #[test]
    fn generated_sources_build_and_validate() {
        for seed in 0..200u64 {
            let src = source_from_seed(seed);
            let prog = Program::build(&[("gen.c", src.as_str())], &[])
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            validate_program(&prog).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(source_from_seed(7), source_from_seed(7));
        assert_ne!(source_from_seed(7), source_from_seed(8));
    }
}
