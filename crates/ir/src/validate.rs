//! Structural validation of lowered IR.
//!
//! Validation is cheap and run by the workload generator on every generated
//! program, so malformed IR is caught at generation time instead of deep in
//! an analysis pass.

use crate::ir::{
    BlockId,
    Callee,
    Function,
    Inst,
    Operand,
    Place,
    TempId,
    Terminator, //
};

/// A violated IR invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError {
    /// The offending function.
    pub func: String,
    /// Description of the violation.
    pub message: String,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IR validation failed in `{}`: {}",
            self.func, self.message
        )
    }
}

impl std::error::Error for ValidateError {}

/// Validates one function. Checks:
///
/// - every branch target is a valid block id;
/// - every temp is defined exactly once, before any use in instruction order
///   along the block layout (lowering emits temps in order);
/// - every local referenced by a place exists;
/// - the temp-origin table covers every temp.
pub fn validate_function(f: &Function) -> Result<(), ValidateError> {
    let err = |message: String| ValidateError {
        func: f.name.clone(),
        message,
    };

    let nblocks = f.blocks.len();
    if (f.entry.0 as usize) >= nblocks {
        return Err(err(format!("entry block {:?} out of range", f.entry)));
    }

    let check_block = |b: BlockId| -> Result<(), ValidateError> {
        if (b.0 as usize) >= nblocks {
            return Err(err(format!("branch target {b:?} out of range")));
        }
        Ok(())
    };

    let ntemps = f.temp_origins.len();
    let mut defined = vec![false; ntemps];
    // Parameter temps are function inputs, defined implicitly at entry.
    for (i, origin) in f.temp_origins.iter().enumerate() {
        if matches!(origin, crate::ir::TempOrigin::Param(_)) {
            defined[i] = true;
        }
    }
    let check_temp_use = |t: TempId, defined: &[bool]| -> Result<(), ValidateError> {
        if (t.0 as usize) >= ntemps {
            return Err(err(format!("temp {t:?} out of origin-table range")));
        }
        if !defined[t.0 as usize] {
            return Err(err(format!("temp {t:?} used before definition")));
        }
        Ok(())
    };
    let check_operand = |o: &Operand, defined: &[bool]| -> Result<(), ValidateError> {
        if let Operand::Temp(t) = o {
            check_temp_use(*t, defined)?;
        }
        Ok(())
    };
    let check_def = |t: TempId| -> Result<usize, ValidateError> {
        let i = t.0 as usize;
        if i >= ntemps {
            return Err(err(format!("temp {t:?} missing from origin table")));
        }
        Ok(i)
    };
    let nlocals = f.locals.len();
    let check_place = |p: &Place, defined: &[bool]| -> Result<(), ValidateError> {
        match p {
            Place::Local(l) | Place::Field(l, _) => {
                if (l.0 as usize) >= nlocals {
                    return Err(err(format!("local {l:?} out of range")));
                }
            }
            Place::Deref(t) | Place::DerefField(t, _) => check_temp_use(*t, defined)?,
            Place::Global(_) | Place::GlobalField(_, _) => {}
        }
        Ok(())
    };

    // Temps are numbered in emission order, so a linear scan over blocks in
    // id order observes each definition before its (dominated) uses.
    for bb in &f.blocks {
        for inst in &bb.insts {
            match inst {
                Inst::Load { dst, place, .. } => {
                    check_place(place, &defined)?;
                    defined[check_def(*dst)?] = true;
                }
                Inst::Store { place, value, .. } => {
                    check_place(place, &defined)?;
                    check_operand(value, &defined)?;
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    check_operand(lhs, &defined)?;
                    check_operand(rhs, &defined)?;
                    defined[check_def(*dst)?] = true;
                }
                Inst::Un { dst, operand, .. } => {
                    check_operand(operand, &defined)?;
                    defined[check_def(*dst)?] = true;
                }
                Inst::AddrOf { dst, place, .. } => {
                    check_place(place, &defined)?;
                    defined[check_def(*dst)?] = true;
                }
                Inst::Call {
                    dst, callee, args, ..
                } => {
                    if let Callee::Indirect(t) = callee {
                        check_temp_use(*t, &defined)?;
                    }
                    for a in args {
                        check_operand(a, &defined)?;
                    }
                    if let Some(d) = dst {
                        defined[check_def(*d)?] = true;
                    }
                }
            }
        }
        match &bb.term {
            Terminator::Br(b) => check_block(*b)?,
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                check_operand(cond, &defined)?;
                check_block(*then_bb)?;
                check_block(*else_bb)?;
            }
            Terminator::Ret { value, .. } => {
                if let Some(v) = value {
                    check_operand(v, &defined)?;
                }
            }
            Terminator::Unreachable => {}
        }
    }
    Ok(())
}

/// Validates every function of a program.
pub fn validate_program(prog: &crate::program::Program) -> Result<(), ValidateError> {
    for f in &prog.funcs {
        validate_function(f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn lowered_programs_validate() {
        let prog = Program::build(
            &[(
                "a.c",
                "struct s { int a; int b; };\n\
                 int g(int x);\n\
                 int f(struct s *p, int n) {\n\
                   int acc = 0;\n\
                   for (int i = 0; i < n; i = i + 1) { acc = acc + g(i); }\n\
                   p->a = acc;\n\
                   if (acc > 10) { return 1; } else { return 0; }\n\
                 }",
            )],
            &[],
        )
        .unwrap();
        validate_program(&prog).unwrap();
    }

    #[test]
    fn detects_bad_branch_target() {
        let mut prog = Program::build(&[("a.c", "void f(void) { }")], &[]).unwrap();
        std::sync::Arc::make_mut(&mut prog.funcs[0]).blocks[0].term =
            Terminator::Br(crate::ir::BlockId(99));
        assert!(validate_program(&prog).is_err());
    }

    #[test]
    fn detects_missing_temp_origin() {
        let mut prog = Program::build(&[("a.c", "int f(int x) { return x; }")], &[]).unwrap();
        // Truncate the origin table to invalidate the last temp.
        std::sync::Arc::make_mut(&mut prog.funcs[0])
            .temp_origins
            .pop();
        assert!(validate_program(&prog).is_err());
    }
}
