//! Flow-sensitive, field-sensitive live-variable analysis.
//!
//! This is the analysis of §2.1/§4.1 of the paper: a backward dataflow over
//! the CFG where a `load` generates a use, a `store` kills them, and loops are
//! iterated to a fixed point. The per-instruction transfer function is public
//! so the ValueCheck detector (which threads an extra define-set through the
//! same traversal) and the baseline tools stay consistent with it.

use std::collections::BTreeSet;

use vc_ir::{
    cfg::Cfg,
    ir::{
        BlockId,
        Inst,
        LocalId,
        StoreInfo, //
    },
    span::Span,
    Function,
    VarKey, //
};

use crate::{
    framework::{
        solve,
        BlockFacts,
        DataflowAnalysis,
        Direction, //
    },
    varset::VarKeySet,
};

/// The live-variable analysis instance.
pub struct Liveness;

/// Applies the backward transfer function of one instruction to a live set.
///
/// - `load place` adds the place's variable key (a use);
/// - `store place` removes everything the store overwrites (a kill);
/// - `&place` (address-of) conservatively adds the key: once the address
///   escapes, memory may be read through it at any later point.
pub fn transfer_inst(inst: &Inst, live: &mut VarKeySet) {
    match inst {
        Inst::Load { place, .. } => {
            if let Some(key) = place.var_key() {
                live.insert(key);
            }
        }
        Inst::Store { place, .. } => {
            if let Some(key) = place.var_key() {
                live.remove_killed(key);
            }
        }
        Inst::AddrOf { place, .. } => {
            if let Some(key) = place.var_key() {
                live.insert(key);
            }
        }
        Inst::Bin { .. } | Inst::Un { .. } | Inst::Call { .. } => {}
    }
}

impl DataflowAnalysis for Liveness {
    type Fact = VarKeySet;
    const DIRECTION: Direction = Direction::Backward;

    fn boundary_fact(&self, _f: &Function) -> VarKeySet {
        // Nothing local is live after the function returns.
        VarKeySet::new()
    }

    fn init_fact(&self, _f: &Function) -> VarKeySet {
        VarKeySet::new()
    }

    fn join(&self, into: &mut VarKeySet, from: &VarKeySet) {
        into.union_with(from);
    }

    fn transfer_block(&self, f: &Function, bb: BlockId, fact: &mut VarKeySet) {
        for inst in f.block(bb).insts.iter().rev() {
            transfer_inst(inst, fact);
        }
    }
}

/// Solves liveness for `f`, returning live sets at block boundaries.
pub fn live_variables(f: &Function, cfg: &Cfg) -> BlockFacts<VarKeySet> {
    solve(f, cfg, &Liveness)
}

/// The locals whose address is taken anywhere in `f` (directly via `&x`, or
/// by array decay). Stores to them can be observed through pointers, so they
/// are excluded from unused-definition candidates (paper §4.1, "Pointer and
/// Alias").
pub fn escaped_locals(f: &Function) -> BTreeSet<LocalId> {
    let mut out = BTreeSet::new();
    for bb in &f.blocks {
        for inst in &bb.insts {
            if let Inst::AddrOf { place, .. } = inst {
                if let Some(key) = place.var_key() {
                    out.insert(key.local());
                }
            }
        }
    }
    out
}

/// A store whose value is never subsequently read: an unused definition.
#[derive(Clone, Debug)]
pub struct DeadStore {
    /// Containing block.
    pub block: BlockId,
    /// Index of the store within the block.
    pub inst_idx: usize,
    /// The variable (or field) defined.
    pub key: VarKey,
    /// Span of the store.
    pub span: Span,
    /// Provenance of the stored value.
    pub info: StoreInfo,
}

/// Finds all dead stores to non-escaping locals, flow-sensitively.
///
/// This is the raw unused-definition detector shared by ValueCheck (which
/// filters it by authorship) and by the dead-store baseline. Stores carrying
/// an `unused` attribute are **not** filtered here; pruning is a separate,
/// later phase (Fig. 2).
pub fn dead_stores(f: &Function, cfg: &Cfg) -> Vec<DeadStore> {
    let facts = live_variables(f, cfg);
    let escaped = escaped_locals(f);
    let mut out = Vec::new();
    for (bid, bb) in f.iter_blocks() {
        let mut live = facts.exit(bid).clone();
        // Walk the block backward, checking each store against the live set
        // *below* it before applying its kill.
        for (idx, inst) in bb.insts.iter().enumerate().rev() {
            if let Inst::Store {
                place, span, info, ..
            } = inst
            {
                if let Some(key) = place.var_key() {
                    if !escaped.contains(&key.local()) && !live.contains_covering(key) {
                        out.push(DeadStore {
                            block: bid,
                            inst_idx: idx,
                            key,
                            span: *span,
                            info: info.clone(),
                        });
                    }
                }
            }
            transfer_inst(inst, &mut live);
        }
    }
    // Report in source order for stable output.
    out.sort_by_key(|d| (d.span.start, d.block, d.inst_idx));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_ir::Program;

    fn func(src: &str) -> Function {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        Function::clone(&prog.funcs[0])
    }

    fn dead_names(src: &str) -> Vec<String> {
        let f = func(src);
        let cfg = Cfg::new(&f);
        dead_stores(&f, &cfg)
            .into_iter()
            .map(|d| f.var_key_name(d.key))
            .collect()
    }

    #[test]
    fn simple_overwrite_is_dead() {
        let names = dead_names("void f(void) { int x = 1; x = 2; use(x); }");
        assert_eq!(names, vec!["x"]);
    }

    #[test]
    fn used_definition_is_live() {
        let names = dead_names("void f(void) { int x = 1; use(x); x = 2; use(x); }");
        assert!(names.is_empty());
    }

    #[test]
    fn last_store_before_return_is_dead() {
        let names = dead_names("int f(void) { int x = 1; int y = x; x = 3; return y; }");
        assert_eq!(names, vec!["x"]);
    }

    #[test]
    fn flow_sensitivity_beats_ast_walking() {
        // `ret` IS referenced (in the condition), but the first definition is
        // still dead: the Figure 8 pattern that defeats AST-based tools.
        let names = dead_names(
            "void f(void) { int ret = get_permset(); ret = calc_mask(); if (ret) { handle(); } }",
        );
        assert_eq!(names, vec!["ret"]);
    }

    #[test]
    fn loop_carried_use_keeps_definition_live() {
        // `acc` defined before the loop is read by the first iteration.
        let names =
            dead_names("int f(int n) { int acc = 0; for (int i = 0; i < n; i = i + 1) { acc = acc + i; } return acc; }");
        assert!(names.is_empty(), "unexpected dead stores: {names:?}");
    }

    #[test]
    fn figure_1a_loop_overwrite_is_dead() {
        // Fig. 1a: first `attr` definition overwritten by the for-init on
        // every path.
        let names = dead_names(
            "int conv(int *bm) {\n\
               int attr = next_attr(bm);\n\
               for (attr = next_attr(bm); attr != -1; attr = next_attr(bm)) { use(attr); }\n\
               return 0;\n\
             }",
        );
        assert_eq!(names, vec!["attr"]);
    }

    #[test]
    fn figure_1b_overwritten_param_is_dead() {
        // Fig. 1b: `bufsz` overwritten before any read.
        let names = dead_names(
            "int logfile_mod_open(char *path, size_t bufsz) {\n\
               bufsz = 1400;\n\
               if (bufsz > 0) { setup(path, bufsz); }\n\
               return 0;\n\
             }",
        );
        assert_eq!(names, vec!["bufsz"]);
    }

    #[test]
    fn partial_overwrite_on_one_path_is_live() {
        // Overwritten on the then-path only; the else-path reads it.
        let names = dead_names("void f(int c) { int x = 1; if (c) { x = 2; } use(x); }");
        assert!(names.is_empty(), "unexpected dead stores: {names:?}");
    }

    #[test]
    fn overwrite_on_all_paths_is_dead() {
        let names =
            dead_names("void f(int c) { int x = 1; if (c) { x = 2; } else { x = 3; } use(x); }");
        assert_eq!(names, vec!["x"]);
    }

    #[test]
    fn field_stores_are_tracked_separately() {
        let names = dead_names(
            "struct p { int a; int b; };\n\
             void f(void) { struct p s; s.a = 1; s.b = 2; s.a = 3; use(s.a); use(s.b); }",
        );
        assert_eq!(names, vec!["s#0"]);
    }

    #[test]
    fn whole_struct_use_keeps_fields_live() {
        let names = dead_names(
            "struct p { int a; int b; };\n\
             void f(void) { struct p s; s.a = 1; consume(s); }",
        );
        assert!(names.is_empty(), "unexpected dead stores: {names:?}");
    }

    #[test]
    fn address_taken_locals_are_exempt() {
        // `x` escapes via `&x`; the write may be observed through the pointer.
        let names = dead_names("void f(void) { int x = 1; register_ptr(&x); x = 2; }");
        assert!(names.is_empty(), "unexpected dead stores: {names:?}");
    }

    #[test]
    fn unused_parameter_definition_is_dead() {
        let names = dead_names("int f(int used, int ignored) { return used; }");
        assert_eq!(names, vec!["ignored"]);
    }

    #[test]
    fn ignored_return_value_synthesizes_dead_store() {
        let names = dead_names("int g(void);\nvoid f(void) { g(); }");
        assert_eq!(names.len(), 1);
        assert!(names[0].starts_with("$ret_g_"), "got {names:?}");
    }

    #[test]
    fn escape_set_is_exact() {
        let f = func("void f(void) { int a = 1; int b = 2; sink(&a); use(b); }");
        let escaped = escaped_locals(&f);
        let a = f.local_by_name("a").unwrap();
        let b = f.local_by_name("b").unwrap();
        assert!(escaped.contains(&a));
        assert!(!escaped.contains(&b));
    }

    #[test]
    fn switch_overwrite_on_all_arms_is_dead() {
        // Every arm (and default) overwrites x: the initial store is dead.
        let names = dead_names(
            "void f(int c) {\n\
             int x = 1;\n\
             switch (c) {\n\
             case 1: x = 10; break;\n\
             case 2: x = 20; break;\n\
             default: x = 30;\n\
             }\n\
             use(x);\n\
             }",
        );
        assert_eq!(names, vec!["x"]);
    }

    #[test]
    fn switch_without_default_keeps_initial_live() {
        // No default: the fall-through path reads the initial value.
        let names = dead_names(
            "void f(int c) {\n\
             int x = 1;\n\
             switch (c) {\n\
             case 1: x = 10; break;\n\
             }\n\
             use(x);\n\
             }",
        );
        assert!(names.is_empty(), "{names:?}");
    }

    #[test]
    fn do_while_body_use_keeps_definition_live() {
        let names = dead_names(
            "void f(int n) { int acc = 0; do { acc = acc + n; n = n - 1; } while (n > 0); \
             use(acc); }",
        );
        assert!(names.is_empty(), "{names:?}");
    }

    #[test]
    fn liveness_equation_holds_at_fixpoint() {
        // in[n] == gen/kill applied to out[n]; check by re-applying transfer.
        let f =
            func("int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }");
        let cfg = Cfg::new(&f);
        let facts = live_variables(&f, &cfg);
        for (bid, bb) in f.iter_blocks() {
            let mut fact = facts.exit(bid).clone();
            for inst in bb.insts.iter().rev() {
                transfer_inst(inst, &mut fact);
            }
            assert_eq!(&fact, facts.entry(bid), "block {bid:?} not at fixpoint");
        }
    }
}
