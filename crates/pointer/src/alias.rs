//! Alias-use queries derived from the points-to solution.
//!
//! The paper's §4.1 "Pointer and Alias": a definition that may be read
//! through a pointer must not be reported unused. [`AliasUses`] computes,
//! program-wide, which memory objects may be read indirectly — via a deref
//! load anywhere, or by being visible to an unknown (extern) callee — and
//! answers "is this local possibly used through an alias?".

use std::collections::BTreeSet;

use vc_ir::{
    ir::{
        Callee,
        Inst,
        Operand,
        Place, //
    },
    FuncId,
    LocalId,
    Program, //
};

use crate::{
    andersen::PointsTo,
    node::MemObj, //
};

/// Program-wide indirect-read facts.
#[derive(Clone, Debug, Default)]
pub struct AliasUses {
    /// `(function, local)` pairs that may be read through a pointer.
    read_locals: BTreeSet<(FuncId, LocalId)>,
}

impl AliasUses {
    /// Computes alias-use facts for the whole program.
    pub fn compute(prog: &Program, pts: &PointsTo) -> AliasUses {
        let mut read_locals = BTreeSet::new();
        let mut mark = |obj: &MemObj| {
            if let MemObj::Local(f, l) | MemObj::LocalField(f, l, _) = obj {
                read_locals.insert((*f, *l));
            }
        };
        for (fi, f) in prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for bb in &f.blocks {
                for inst in &bb.insts {
                    match inst {
                        // A deref load may read anything the pointer targets.
                        Inst::Load {
                            place: Place::Deref(t) | Place::DerefField(t, _),
                            ..
                        } => {
                            for o in pts.points_to(fid, *t) {
                                mark(o);
                            }
                        }
                        // Pointers handed to unknown callees may be read there.
                        Inst::Call { callee, args, .. } => {
                            let unknown = match callee {
                                Callee::Direct(name) => !prog.defines_function(name),
                                Callee::Indirect(_) => false,
                            };
                            if unknown {
                                for a in args {
                                    if let Operand::Temp(t) = a {
                                        for o in pts.points_to(fid, *t) {
                                            mark(o);
                                        }
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        AliasUses { read_locals }
    }

    /// The degraded-mode oracle: a field-insensitive over-approximation
    /// that needs no points-to solution at all. Every local whose address
    /// is ever taken is treated as may-aliased-read, since `&x` is the only
    /// way a local's storage can become reachable through a pointer. This
    /// is the fallback tier when the Andersen solver's budget runs out
    /// ([`PointsTo::exhausted`]); it is a strict superset of what
    /// [`AliasUses::compute`] marks, so detection stays sound, merely less
    /// precise.
    pub fn conservative(prog: &Program) -> AliasUses {
        let mut read_locals = BTreeSet::new();
        for (fi, f) in prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for bb in &f.blocks {
                for inst in &bb.insts {
                    if let Inst::AddrOf { place, .. } = inst {
                        if let Some(key) = place.var_key() {
                            read_locals.insert((fid, key.local()));
                        }
                    }
                }
            }
        }
        AliasUses { read_locals }
    }

    /// Whether `(func, local)` may be read through an alias.
    pub fn is_aliased_read(&self, func: FuncId, local: LocalId) -> bool {
        self.read_locals.contains(&(func, local))
    }

    /// All aliased-read locals of one function.
    pub fn aliased_locals(&self, func: FuncId) -> impl Iterator<Item = LocalId> + '_ {
        self.read_locals
            .iter()
            .filter(move |(f, _)| *f == func)
            .map(|(_, l)| *l)
    }

    /// Total number of `(function, local)` facts.
    pub fn len(&self) -> usize {
        self.read_locals.len()
    }

    /// Whether no local is aliased-read.
    pub fn is_empty(&self) -> bool {
        self.read_locals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> (Program, PointsTo, AliasUses) {
        let p = Program::build(&[("a.c", src)], &[]).unwrap();
        let pts = PointsTo::solve(&p);
        let uses = AliasUses::compute(&p, &pts);
        (p, pts, uses)
    }

    #[test]
    fn deref_read_marks_local() {
        let (p, _, uses) = facts("int f(void) { int x = 1; int *p = &x; return *p; }");
        let fid = p.func_id("f").unwrap();
        let x = p.func_by_name("f").unwrap().local_by_name("x").unwrap();
        assert!(uses.is_aliased_read(fid, x));
    }

    #[test]
    fn cross_function_deref_marks_callers_local() {
        let (p, _, uses) = facts(
            "int read_it(int *p) { return *p; }\n\
             int f(void) { int x = 7; return read_it(&x); }",
        );
        let fid = p.func_id("f").unwrap();
        let x = p.func_by_name("f").unwrap().local_by_name("x").unwrap();
        assert!(uses.is_aliased_read(fid, x));
    }

    #[test]
    fn pointer_to_extern_call_marks_local() {
        let (p, _, uses) = facts("void f(void) { int x = 1; libc_sink(&x); }");
        let fid = p.func_id("f").unwrap();
        let x = p.func_by_name("f").unwrap().local_by_name("x").unwrap();
        assert!(uses.is_aliased_read(fid, x));
    }

    #[test]
    fn unrelated_local_is_not_marked() {
        let (p, _, uses) =
            facts("int f(void) { int x = 1; int y = 2; int *p = &x; return *p + y; }");
        let fid = p.func_id("f").unwrap();
        let y = p.func_by_name("f").unwrap().local_by_name("y").unwrap();
        assert!(!uses.is_aliased_read(fid, y));
    }

    #[test]
    fn conservative_oracle_covers_precise_analysis() {
        let src = "int read_it(int *p) { return *p; }\n\
                   void write_it(int *p) { *p = 3; }\n\
                   int f(void) { int x = 7; int y = 1; write_it(&y); return read_it(&x) + y; }";
        let (p, _, precise) = facts(src);
        let cons = AliasUses::conservative(&p);
        let fid = p.func_id("f").unwrap();
        let f = p.func_by_name("f").unwrap();
        // Everything the precise analysis marks, the oracle marks too.
        for l in precise.aliased_locals(fid) {
            assert!(cons.is_aliased_read(fid, l));
        }
        // And it marks the write-only address-taken local the precise
        // analysis can skip.
        let y = f.local_by_name("y").unwrap();
        assert!(cons.is_aliased_read(fid, y));
    }

    #[test]
    fn write_only_pointer_does_not_mark_read_when_only_defined_callee_writes() {
        // `write_it` only stores through p; there is no deref *load*, and the
        // callee is defined, so x is not aliased-READ.
        let (p, _, uses) = facts(
            "void write_it(int *p) { *p = 3; }\n\
             void f(void) { int x = 1; write_it(&x); }",
        );
        let fid = p.func_id("f").unwrap();
        let x = p.func_by_name("f").unwrap().local_by_name("x").unwrap();
        assert!(!uses.is_aliased_read(fid, x));
    }
}
