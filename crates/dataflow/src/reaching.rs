//! Forward reaching-definitions analysis.
//!
//! For every program point, which stores may have produced the current value
//! of each variable? Used to build def-use chains (the in-function slice of a
//! sparse value-flow graph) and by tests cross-checking liveness: a store
//! reaching a load of the same key must be live.

use std::collections::{
    BTreeMap,
    BTreeSet, //
};

use vc_ir::{
    cfg::Cfg,
    ir::{
        BlockId,
        Inst, //
    },
    Function,
    VarKey, //
};

use vc_obs::Budget;

use crate::framework::{
    solve,
    solve_budgeted,
    BlockFacts,
    DataflowAnalysis,
    Direction, //
};

/// Identifies one store instruction: `(block, instruction index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefSite {
    /// Containing block.
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst_idx: u32,
}

/// Map from variable key to the set of stores that may reach this point.
pub type ReachingFact = BTreeMap<VarKey, BTreeSet<DefSite>>;

/// The reaching-definitions analysis instance.
pub struct ReachingDefs;

impl DataflowAnalysis for ReachingDefs {
    type Fact = ReachingFact;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary_fact(&self, _f: &Function) -> ReachingFact {
        ReachingFact::new()
    }

    fn init_fact(&self, _f: &Function) -> ReachingFact {
        ReachingFact::new()
    }

    fn join(&self, into: &mut ReachingFact, from: &ReachingFact) {
        for (key, sites) in from {
            into.entry(*key).or_default().extend(sites.iter().copied());
        }
    }

    fn transfer_block(&self, f: &Function, bb: BlockId, fact: &mut ReachingFact) {
        for (idx, inst) in f.block(bb).insts.iter().enumerate() {
            transfer_inst(inst, bb, idx as u32, fact);
        }
    }
}

/// Applies one instruction's forward transfer: a store to a key kills the
/// reaching definitions of everything it overwrites and gens itself.
pub fn transfer_inst(inst: &Inst, bb: BlockId, idx: u32, fact: &mut ReachingFact) {
    if let Inst::Store { place, .. } = inst {
        if let Some(key) = place.var_key() {
            // A whole-variable store also kills each field's definitions.
            if let VarKey::Local(l) = key {
                let field_keys: Vec<VarKey> = fact
                    .range(VarKey::Field(l, 0)..=VarKey::Field(l, u32::MAX))
                    .map(|(k, _)| *k)
                    .collect();
                for k in field_keys {
                    fact.remove(&k);
                }
            }
            let site = DefSite {
                block: bb,
                inst_idx: idx,
            };
            fact.insert(key, BTreeSet::from([site]));
        }
    }
}

/// Solves reaching definitions for `f`.
pub fn reaching_definitions(f: &Function, cfg: &Cfg) -> BlockFacts<ReachingFact> {
    solve(f, cfg, &ReachingDefs)
}

/// [`reaching_definitions`] under a step/wall-clock [`Budget`]: on
/// pathological CFGs the def-site sets grow with the block count and the
/// fixpoint turns quadratic, so hardened callers bound it and accept the
/// partial facts ([`BlockFacts::exhausted`]).
pub fn reaching_definitions_budgeted(
    f: &Function,
    cfg: &Cfg,
    budget: Budget,
) -> BlockFacts<ReachingFact> {
    solve_budgeted(f, cfg, &ReachingDefs, budget)
}

/// A def-use edge: the store at `def` flows to the load at `(use_block,
/// use_idx)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DefUseEdge {
    /// The defining store.
    pub def: DefSite,
    /// Block of the use.
    pub use_block: BlockId,
    /// Instruction index of the use.
    pub use_idx: u32,
    /// The variable flowing along the edge.
    pub key: VarKey,
}

/// Computes all def-use chains of `f` over direct local accesses.
pub fn def_use_chains(f: &Function, cfg: &Cfg) -> Vec<DefUseEdge> {
    let facts = reaching_definitions(f, cfg);
    let mut edges = Vec::new();
    for (bid, bb) in f.iter_blocks() {
        let mut fact = facts.entry(bid).clone();
        for (idx, inst) in bb.insts.iter().enumerate() {
            if let Inst::Load { place, .. } = inst {
                if let Some(key) = place.var_key() {
                    // Exact and covering defs both flow into this use.
                    let mut reached: BTreeSet<DefSite> = BTreeSet::new();
                    if let Some(sites) = fact.get(&key) {
                        reached.extend(sites.iter().copied());
                    }
                    if let VarKey::Field(l, _) = key {
                        if let Some(sites) = fact.get(&VarKey::Local(l)) {
                            reached.extend(sites.iter().copied());
                        }
                    }
                    for def in reached {
                        edges.push(DefUseEdge {
                            def,
                            use_block: bid,
                            use_idx: idx as u32,
                            key,
                        });
                    }
                }
            }
            transfer_inst(inst, bid, idx as u32, &mut fact);
        }
    }
    edges.sort();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_ir::Program;

    fn func(src: &str) -> Function {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        Function::clone(&prog.funcs[0])
    }

    #[test]
    fn straight_line_def_reaches_use() {
        let f = func("void f(void) { int x = 1; use(x); }");
        let cfg = Cfg::new(&f);
        let edges = def_use_chains(&f, &cfg);
        let x = f.local_by_name("x").unwrap();
        assert!(edges.iter().any(|e| e.key == VarKey::Local(x)));
    }

    #[test]
    fn overwritten_def_does_not_reach() {
        let f = func("void f(void) { int x = 1; x = 2; use(x); }");
        let cfg = Cfg::new(&f);
        let edges = def_use_chains(&f, &cfg);
        let x = f.local_by_name("x").unwrap();
        // Exactly one def of x reaches the single use.
        let x_edges: Vec<_> = edges.iter().filter(|e| e.key == VarKey::Local(x)).collect();
        assert_eq!(x_edges.len(), 1);
    }

    #[test]
    fn branches_merge_definitions() {
        let f = func("void f(int c) { int x = 1; if (c) { x = 2; } use(x); }");
        let cfg = Cfg::new(&f);
        let edges = def_use_chains(&f, &cfg);
        let x = f.local_by_name("x").unwrap();
        // Both the initial and the conditional store reach the use.
        let defs: BTreeSet<DefSite> = edges
            .iter()
            .filter(|e| e.key == VarKey::Local(x))
            .map(|e| e.def)
            .collect();
        assert_eq!(defs.len(), 2);
    }

    #[test]
    fn loop_back_edge_carries_definition() {
        let f = func("int f(int n) { int s = 0; while (n) { s = s + 1; n = n - 1; } return s; }");
        let cfg = Cfg::new(&f);
        let edges = def_use_chains(&f, &cfg);
        let s = f.local_by_name("s").unwrap();
        // The in-loop redefinition of s flows back into `s + 1`.
        let loads_of_s_with_two_defs = edges
            .iter()
            .filter(|e| e.key == VarKey::Local(s))
            .fold(BTreeMap::<(BlockId, u32), usize>::new(), |mut m, e| {
                *m.entry((e.use_block, e.use_idx)).or_default() += 1;
                m
            })
            .values()
            .any(|&n| n >= 2);
        assert!(loads_of_s_with_two_defs);
    }

    #[test]
    fn dead_store_reaches_no_use() {
        let f = func("int f(void) { int x = 1; int y = 2; x = y; return x; }");
        let cfg = Cfg::new(&f);
        let edges = def_use_chains(&f, &cfg);
        // Cross-check with liveness: every dead store must have no def-use
        // edge, and every store with an edge must not be reported dead.
        let dead = crate::liveness::dead_stores(&f, &cfg);
        for d in &dead {
            assert!(
                !edges
                    .iter()
                    .any(|e| e.def.block == d.block && e.def.inst_idx as usize == d.inst_idx),
                "dead store has a use"
            );
        }
    }
}
