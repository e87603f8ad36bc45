//! Dominator-tree computation (Cooper–Harvey–Kennedy).
//!
//! Dominators are not needed by the headline detection algorithm, but the
//! incremental analyzer and several ablation benches use them to reason about
//! "overwritten on all successor paths" properties, and they serve as an
//! independent oracle in property tests of the CFG utilities.

use vc_ir::{
    cfg::Cfg,
    ir::BlockId, //
};

/// The dominator tree of a CFG.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of `b`; the entry maps to itself.
    /// Unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators with the Cooper–Harvey–Kennedy iterative scheme.
    pub fn new(cfg: &Cfg) -> Self {
        let n = cfg.len();
        let rpo = cfg.reverse_postorder();
        // Position of each block in RPO; unreachable blocks keep usize::MAX.
        let mut rpo_pos = vec![usize::MAX; n];
        let mut reachable_rpo = Vec::new();
        let mut seen = vec![false; n];
        // `postorder()` appends unreachable blocks; filter to reachable only.
        {
            let mut stack = vec![cfg.entry];
            seen[cfg.entry.0 as usize] = true;
            while let Some(b) = stack.pop() {
                for &s in cfg.succs(b) {
                    if !seen[s.0 as usize] {
                        seen[s.0 as usize] = true;
                        stack.push(s);
                    }
                }
            }
        }
        for (i, &b) in rpo.iter().enumerate() {
            if seen[b.0 as usize] {
                rpo_pos[b.0 as usize] = i;
                reachable_rpo.push(b);
            }
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[cfg.entry.0 as usize] = Some(cfg.entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_pos[a.0 as usize] > rpo_pos[b.0 as usize] {
                    a = idom[a.0 as usize].expect("processed block has idom");
                }
                while rpo_pos[b.0 as usize] > rpo_pos[a.0 as usize] {
                    b = idom[b.0 as usize].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &reachable_rpo {
                if b == cfg.entry {
                    continue;
                }
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if !seen[p.0 as usize] || idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.0 as usize] != new_idom {
                    idom[b.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }

        Self {
            idom,
            entry: cfg.entry,
        }
    }

    /// The immediate dominator of `b` (the entry dominates itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.0 as usize]
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            match self.idom[cur.0 as usize] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.0 as usize].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_ir::{
        Function,
        Program, //
    };

    fn func(src: &str) -> Function {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        Function::clone(&prog.funcs[0])
    }

    /// Oracle: `a` dominates `b` iff removing `a` makes `b` unreachable.
    fn dominates_oracle(cfg: &Cfg, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        if a == cfg.entry {
            return reachable(cfg, None, b);
        }
        !reachable_avoiding(cfg, a, b)
    }

    fn reachable(cfg: &Cfg, _skip: Option<BlockId>, target: BlockId) -> bool {
        reachable_avoiding(cfg, BlockId(u32::MAX), target)
    }

    fn reachable_avoiding(cfg: &Cfg, avoid: BlockId, target: BlockId) -> bool {
        let mut seen = vec![false; cfg.len()];
        let mut stack = vec![cfg.entry];
        if cfg.entry == avoid {
            return false;
        }
        seen[cfg.entry.0 as usize] = true;
        while let Some(b) = stack.pop() {
            if b == target {
                return true;
            }
            for &s in cfg.succs(b) {
                if s != avoid && !seen[s.0 as usize] {
                    seen[s.0 as usize] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    fn check_against_oracle(src: &str) {
        let f = func(src);
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        for a in 0..cfg.len() {
            for b in 0..cfg.len() {
                let (a, b) = (BlockId(a as u32), BlockId(b as u32));
                if !dom.is_reachable(a) || !dom.is_reachable(b) {
                    continue;
                }
                assert_eq!(
                    dom.dominates(a, b),
                    dominates_oracle(&cfg, a, b),
                    "dominates({a:?}, {b:?}) mismatch"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_diamond() {
        check_against_oracle(
            "int f(int x) { int y = 0; if (x) { y = 1; } else { y = 2; } return y; }",
        );
    }

    #[test]
    fn matches_oracle_on_loops() {
        check_against_oracle(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { if (i % 2) { s = s + \
             i; } else { continue; } } return s; }",
        );
    }

    #[test]
    fn matches_oracle_with_early_returns() {
        check_against_oracle(
            "int f(int x) { if (x < 0) { return -1; } while (x) { x = x - 1; if (x == 3) { \
             break; } } return x; }",
        );
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let f = func("void f(int x) { if (x) { a(); } else { b(); } c(); }");
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        for b in 0..cfg.len() {
            let b = BlockId(b as u32);
            if dom.is_reachable(b) {
                assert!(dom.dominates(cfg.entry, b));
            }
        }
    }
}
