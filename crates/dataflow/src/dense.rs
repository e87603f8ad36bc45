//! Dense bitset-backed liveness for the summary builder.
//!
//! [`crate::liveness::Liveness`] keeps its facts in a `BTreeSet<VarKey>`,
//! which is the right shape for the reference implementation and the
//! baselines but pays a tree allocation and pointer chase per inserted key,
//! per join, per equality check — the dominant cost of a whole-program
//! summary pass. This module solves the *same* lattice over a per-function
//! [`KeyIndex`]: every variable key that appears in the function gets one
//! bit, facts are a handful of `u64` words, join is bitwise-or, equality is
//! a word compare, and the field-covering rules become range scans over a
//! local's contiguous bit block.
//!
//! The two implementations are semantically identical (the key universe of
//! a function covers every key its transfer functions can ever mention), so
//! the solver visits blocks in the same order, converges after the same
//! iterations, and yields the same dead-store list. `summary.rs` keeps the
//! `BTreeSet` oracle in its tests to pin that equivalence.

use vc_ir::{
    ir::Inst,
    Function,
    LocalId,
    VarKey, //
};

use crate::framework::{
    DataflowAnalysis,
    Direction, //
};

/// Sentinel for "this local has no whole-variable key".
const NONE: u32 = u32::MAX;

/// Bit positions of one local's keys inside a [`KeyIndex`].
#[derive(Clone, Copy, Debug)]
struct LocalKeys {
    /// Bit of the `VarKey::Local` key, or [`NONE`].
    whole: u32,
    /// Half-open bit range of the local's `VarKey::Field` keys, sorted by
    /// field number (empty when the local has no field keys).
    fields: (u32, u32),
}

impl Default for LocalKeys {
    fn default() -> Self {
        Self {
            whole: NONE,
            fields: (0, 0),
        }
    }
}

/// The dense key universe of one function: every [`VarKey`] mentioned by a
/// load, store, or address-of, assigned one bit, grouped so a local's whole
/// key and field keys are contiguous.
#[derive(Clone, Debug, Default)]
pub struct KeyIndex {
    /// Keys in bit order: sorted by (local, whole-before-fields, field no).
    keys: Vec<VarKey>,
    /// Per-local bit positions; indexed by `LocalId`.
    locals: Vec<LocalKeys>,
}

fn key_order(k: &VarKey) -> (u32, u32, u32) {
    match k {
        VarKey::Local(l) => (l.0, 0, 0),
        VarKey::Field(l, n) => (l.0, 1, *n),
    }
}

impl KeyIndex {
    /// Builds the index for `f` in one instruction scan.
    pub fn new(f: &Function) -> Self {
        let mut keys: Vec<VarKey> = Vec::new();
        for bb in &f.blocks {
            for inst in &bb.insts {
                match inst {
                    Inst::Load { place, .. }
                    | Inst::Store { place, .. }
                    | Inst::AddrOf { place, .. } => {
                        if let Some(key) = place.var_key() {
                            keys.push(key);
                        }
                    }
                    Inst::Bin { .. } | Inst::Un { .. } | Inst::Call { .. } => {}
                }
            }
        }
        Self::from_keys(keys, f.locals.len())
    }

    /// Builds the index from an already-collected (possibly duplicated) key
    /// list — for callers whose own instruction scan gathered the keys.
    pub fn from_keys(mut keys: Vec<VarKey>, num_locals: usize) -> Self {
        keys.sort_unstable_by_key(key_order);
        keys.dedup();

        let mut locals = vec![LocalKeys::default(); num_locals];
        for (bit, key) in keys.iter().enumerate() {
            let bit = bit as u32;
            let entry = &mut locals[key.local().0 as usize];
            match key {
                VarKey::Local(_) => entry.whole = bit,
                VarKey::Field(..) => {
                    if entry.fields.0 == entry.fields.1 {
                        entry.fields = (bit, bit + 1);
                    } else {
                        entry.fields.1 = bit + 1;
                    }
                }
            }
        }
        Self { keys, locals }
    }

    /// Number of distinct keys (bits).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the function mentions no keys at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of overflow words a fact needs beyond the inline head word.
    fn rest_words(&self) -> usize {
        self.keys.len().div_ceil(64).saturating_sub(1)
    }

    /// The bit of `key`, if the key is in the universe.
    fn bit_of(&self, key: VarKey) -> Option<u32> {
        let lk = self.locals.get(key.local().0 as usize)?;
        match key {
            VarKey::Local(_) => (lk.whole != NONE).then_some(lk.whole),
            VarKey::Field(_, n) => {
                let (lo, hi) = (lk.fields.0 as usize, lk.fields.1 as usize);
                let slot = self.keys[lo..hi]
                    .binary_search_by_key(&n, |k| match k {
                        VarKey::Field(_, fno) => *fno,
                        VarKey::Local(_) => unreachable!("field range holds only field keys"),
                    })
                    .ok()?;
                Some((lo + slot) as u32)
            }
        }
    }

    /// An empty fact sized for this universe.
    pub fn empty_fact(&self) -> BitFact {
        BitFact {
            head: 0,
            rest: vec![0; self.rest_words()],
        }
    }
}

/// A set of live keys over a [`KeyIndex`] universe.
///
/// The first 64 bits live inline, so the dominant function shape — at most
/// 64 distinct keys — clones, joins, and compares without touching the
/// heap (`rest` stays the empty, allocation-free vector).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitFact {
    head: u64,
    rest: Vec<u64>,
}

impl BitFact {
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w == 0 {
            &mut self.head
        } else {
            &mut self.rest[w - 1]
        }
    }

    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.head
        } else {
            self.rest[w - 1]
        }
    }

    fn set(&mut self, bit: u32) {
        *self.word_mut(bit as usize / 64) |= 1 << (bit % 64);
    }

    fn clear(&mut self, bit: u32) {
        *self.word_mut(bit as usize / 64) &= !(1 << (bit % 64));
    }

    fn get(&self, bit: u32) -> bool {
        self.word(bit as usize / 64) & (1 << (bit % 64)) != 0
    }

    fn any_in(&self, lo: u32, hi: u32) -> bool {
        (lo..hi).any(|b| self.get(b))
    }

    /// Bitwise-or of `other` into `self`.
    pub fn union_with(&mut self, other: &BitFact) {
        self.head |= other.head;
        for (w, o) in self.rest.iter_mut().zip(&other.rest) {
            *w |= o;
        }
    }

    /// Marks `key` live (a use). Keys outside the universe are ignored —
    /// they cannot occur for keys read off this function's instructions.
    pub fn insert(&mut self, idx: &KeyIndex, key: VarKey) {
        if let Some(bit) = idx.bit_of(key) {
            self.set(bit);
        }
    }

    /// Removes everything a store to `key` overwrites: the key itself and,
    /// for whole-variable stores, every field of the local.
    pub fn remove_killed(&mut self, idx: &KeyIndex, key: VarKey) {
        if let Some(bit) = idx.bit_of(key) {
            self.clear(bit);
        }
        if let VarKey::Local(l) = key {
            if let Some(lk) = idx.locals.get(l.0 as usize) {
                for b in lk.fields.0..lk.fields.1 {
                    self.clear(b);
                }
            }
        }
    }

    /// Covering membership, mirroring
    /// [`crate::varset::VarKeySet::contains_covering`]: a live field keeps
    /// the aggregate live, a live whole variable keeps each field live.
    pub fn contains_covering(&self, idx: &KeyIndex, key: VarKey) -> bool {
        let Some(lk) = idx.locals.get(key.local().0 as usize) else {
            return false;
        };
        match key {
            VarKey::Local(_) => {
                (lk.whole != NONE && self.get(lk.whole)) || self.any_in(lk.fields.0, lk.fields.1)
            }
            VarKey::Field(..) => {
                (lk.whole != NONE && self.get(lk.whole))
                    || idx.bit_of(key).is_some_and(|b| self.get(b))
            }
        }
    }

    /// The live keys, for cross-checks against the reference set.
    pub fn iter<'a>(&'a self, idx: &'a KeyIndex) -> impl Iterator<Item = VarKey> + 'a {
        idx.keys
            .iter()
            .enumerate()
            .filter(|(b, _)| self.get(*b as u32))
            .map(|(_, k)| *k)
    }
}

/// Applies the backward transfer of one instruction, mirroring
/// [`crate::liveness::transfer_inst`].
pub fn transfer_inst_dense(idx: &KeyIndex, inst: &Inst, live: &mut BitFact) {
    match inst {
        Inst::Load { place, .. } | Inst::AddrOf { place, .. } => {
            if let Some(key) = place.var_key() {
                live.insert(idx, key);
            }
        }
        Inst::Store { place, .. } => {
            if let Some(key) = place.var_key() {
                live.remove_killed(idx, key);
            }
        }
        Inst::Bin { .. } | Inst::Un { .. } | Inst::Call { .. } => {}
    }
}

/// The dense live-variable analysis instance.
pub struct DenseLiveness<'a> {
    /// The function's key universe.
    pub idx: &'a KeyIndex,
}

impl DataflowAnalysis for DenseLiveness<'_> {
    type Fact = BitFact;
    const DIRECTION: Direction = Direction::Backward;

    fn boundary_fact(&self, _f: &Function) -> BitFact {
        self.idx.empty_fact()
    }

    fn init_fact(&self, _f: &Function) -> BitFact {
        self.idx.empty_fact()
    }

    fn join(&self, into: &mut BitFact, from: &BitFact) {
        into.union_with(from);
    }

    fn transfer_block(&self, f: &Function, bb: vc_ir::ir::BlockId, fact: &mut BitFact) {
        for inst in f.block(bb).insts.iter().rev() {
            transfer_inst_dense(self.idx, inst, fact);
        }
    }
}

/// The locals whose address is taken anywhere in `f`, as a dense bool map
/// (the summary builder's allocation-free counterpart of
/// [`crate::liveness::escaped_locals`]).
pub fn escaped_flags(f: &Function) -> Vec<bool> {
    let mut out = vec![false; f.locals.len()];
    for bb in &f.blocks {
        for inst in &bb.insts {
            if let Inst::AddrOf { place, .. } = inst {
                if let Some(key) = place.var_key() {
                    out[key.local().0 as usize] = true;
                }
            }
        }
    }
    out
}

/// Whether `l` is flagged escaped (bounds-safe).
pub fn is_escaped(flags: &[bool], l: LocalId) -> bool {
    flags.get(l.0 as usize).copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        framework::solve,
        liveness::{live_variables, Liveness},
    };
    use std::collections::BTreeSet;
    use vc_ir::{cfg::Cfg, Program};

    const FIXTURES: &[&str] = &[
        "void f(void) { int x = 1; x = 2; use(x); }",
        "void f(int c) { int x = 1; if (c) { x = 2; } use(x); }",
        "void f(int c) { int x = 1; if (c) { x = 2; } else { x = 3; } use(x); }",
        "int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
        "int f(int n) { int acc = 0; for (int i = 0; i < n; i = i + 1) { acc = acc + i; } \
         return acc; }",
        "struct p { int a; int b; };\n\
         void f(void) { struct p s; s.a = 1; s.b = 2; s.a = 3; use(s.a); use(s.b); }",
        "struct p { int a; int b; };\n\
         void f(int c) { struct p s; s.a = 1; if (c) { consume(s); } s.b = 2; use(s.b); }",
        "void f(void) { int x = 1; register_ptr(&x); x = 2; }",
        "int g(void);\nvoid f(void) { g(); }",
        "void f(int c) {\n int x = 1;\n switch (c) {\n case 1: x = 10; break;\n \
         case 2: x = 20; break;\n default: x = 30;\n }\n use(x);\n }",
    ];

    fn func(src: &str) -> Function {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        Function::clone(&prog.funcs[0])
    }

    #[test]
    fn dense_facts_match_the_reference_set_implementation() {
        for src in FIXTURES {
            let f = func(src);
            let cfg = Cfg::new(&f);
            let reference = live_variables(&f, &cfg);
            let idx = KeyIndex::new(&f);
            let dense = solve(&f, &cfg, &DenseLiveness { idx: &idx });
            assert_eq!(
                reference.iterations, dense.iterations,
                "{src}: different convergence"
            );
            for b in 0..f.blocks.len() {
                let b = vc_ir::ir::BlockId(b as u32);
                let want: BTreeSet<VarKey> = reference.entry(b).iter().collect();
                let got: BTreeSet<VarKey> = dense.entry(b).iter(&idx).collect();
                assert_eq!(got, want, "{src}: entry fact of {b:?}");
                let want: BTreeSet<VarKey> = reference.exit(b).iter().collect();
                let got: BTreeSet<VarKey> = dense.exit(b).iter(&idx).collect();
                assert_eq!(got, want, "{src}: exit fact of {b:?}");
            }
        }
    }

    #[test]
    fn covering_queries_match_the_reference_set_implementation() {
        use crate::varset::VarKeySet;
        for src in FIXTURES {
            let f = func(src);
            let idx = KeyIndex::new(&f);
            // Replay the whole-function backward walk on both
            // representations, checking every covering query both ways.
            let mut dense = idx.empty_fact();
            let mut reference = VarKeySet::new();
            for bb in f.blocks.iter().rev() {
                for inst in bb.insts.iter().rev() {
                    crate::liveness::transfer_inst(inst, &mut reference);
                    transfer_inst_dense(&idx, inst, &mut dense);
                    for key in idx.keys.iter().copied() {
                        assert_eq!(
                            dense.contains_covering(&idx, key),
                            reference.contains_covering(key),
                            "{src}: covering({key:?}) diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn escaped_flags_match_escaped_locals() {
        for src in FIXTURES {
            let f = func(src);
            let flags = escaped_flags(&f);
            let reference = crate::liveness::escaped_locals(&f);
            for l in 0..f.locals.len() {
                let l = LocalId(l as u32);
                assert_eq!(
                    is_escaped(&flags, l),
                    reference.contains(&l),
                    "{src}: {l:?}"
                );
            }
        }
    }

    #[test]
    fn key_index_groups_a_locals_keys_contiguously() {
        let f = func(
            "struct p { int a; int b; };\n\
             void f(void) { struct p s; int x; s.a = 1; s.b = 2; x = 3; use(x); use(s.a); \
             use(s.b); }",
        );
        let idx = KeyIndex::new(&f);
        assert!(!idx.is_empty());
        // Every key resolves to its own bit, and distinct keys to distinct
        // bits.
        let bits: BTreeSet<u32> = idx.keys.iter().map(|k| idx.bit_of(*k).unwrap()).collect();
        assert_eq!(bits.len(), idx.len());
    }

    #[test]
    fn out_of_universe_queries_are_inert() {
        let f = func("void f(void) { int x = 1; use(x); }");
        let idx = KeyIndex::new(&f);
        let mut fact = idx.empty_fact();
        let ghost = VarKey::Field(LocalId(999), 7);
        fact.insert(&idx, ghost);
        fact.remove_killed(&idx, ghost);
        assert!(!fact.contains_covering(&idx, ghost));
    }

    #[test]
    fn budgeted_dense_solve_flags_exhaustion_like_the_reference() {
        use crate::framework::solve_budgeted;
        use vc_obs::Budget;
        let f = func(
            "void f(int n) { while (n) { for (int i = 0; i < n; i = i + 1) { g(i); } n = n - 1; \
             } }",
        );
        let cfg = Cfg::new(&f);
        let idx = KeyIndex::new(&f);
        let dense = solve_budgeted(&f, &cfg, &DenseLiveness { idx: &idx }, Budget::steps(1));
        let reference = solve_budgeted(&f, &cfg, &Liveness, Budget::steps(1));
        assert!(dense.exhausted && reference.exhausted);
        assert_eq!(dense.iterations, reference.iterations);
    }
}
