//! Lowering from the MiniC AST to the load/store IR.
//!
//! Lowering mimics `clang -O0 -fno-inline`: every named local gets a stack
//! slot, parameter values are spilled into slots at entry (so an overwritten
//! parameter is visible as a dead store, Fig. 1b), and an ignored call result
//! becomes a store into a synthetic slot (`[tmp] = printf(...)`, Table 1).
//!
//! Lowering is configuration-aware: statements whose preprocessor guards are
//! not satisfied by the active configuration are skipped, but the names they
//! mention are recorded in [`Function::guarded_mentions`] for the
//! configuration-dependency pruner.

use std::{
    cell::RefCell,
    collections::{
        BTreeSet,
        HashMap, //
    }, //
};

use vc_obs::hash::{
    fnv1a_bytes,
    FNV_SEED, //
};

use crate::{
    ast::{
        BinOp,
        Block,
        Expr,
        ExprKind,
        FuncDef,
        Stmt,
        StmtKind,
        SwitchCase,
        UnOp, //
    },
    ir::{
        BasicBlock,
        BlockId,
        Callee,
        Function,
        Inst,
        IrUnOp,
        LocalId,
        LocalInfo,
        LocalKind,
        Operand,
        ParamInfo,
        Place,
        StoreInfo,
        TempId,
        TempOrigin,
        Terminator, //
    },
    span::Span,
    types::{
        StructLayout,
        Type,
        TypeTable, //
    },
};

/// An error produced during lowering.
#[derive(Clone, Debug)]
pub struct LowerError {
    /// Explanation of what went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LowerError {}

/// Program-level context the lowerer consults: struct layouts, function
/// signatures, and global names.
///
/// Every lookup is recorded by a hash of the name, misses included, so a
/// build can tell which declarations a lowered function depends on: it
/// stays valid for as long as none of those names changes what it
/// declares.
pub(crate) struct LowerCtx<'a> {
    /// Struct layouts for field resolution.
    pub(crate) types: &'a TypeTable,
    /// Return types of all known functions (defined or declared), by name.
    pub(crate) func_ret: &'a HashMap<&'a str, &'a Type>,
    /// Global variables and their types, by name.
    pub(crate) globals: &'a HashMap<String, Type>,
    /// Preprocessor symbols defined by the active configuration.
    pub(crate) defines: &'a [String],
    /// [`name_key`]s of the lookups made since the last
    /// [`take_consulted`](Self::take_consulted).
    pub(crate) consulted: RefCell<Vec<u64>>,
}

impl<'a> LowerCtx<'a> {
    fn note(&self, name: &str) {
        self.consulted.borrow_mut().push(name_key(name));
    }

    fn global(&self, name: &str) -> Option<&'a Type> {
        self.note(name);
        self.globals.get(name)
    }

    fn ret(&self, name: &str) -> Option<&'a Type> {
        self.note(name);
        self.func_ret.get(name).copied()
    }

    fn layout(&self, name: &str) -> Option<&'a StructLayout> {
        self.note(name);
        self.types.get(name)
    }

    /// The [`name_key`]s of every declaration looked up since the last
    /// call, sorted and deduplicated.
    pub(crate) fn take_consulted(&self) -> Vec<u64> {
        let mut keys = std::mem::take(&mut *self.consulted.borrow_mut());
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// The key lowering records a declaration lookup under: FNV-1a over the
/// name. Struct tags, globals and functions share one key space, so a
/// collision only makes a dependency look wider than it is.
pub(crate) fn name_key(name: &str) -> u64 {
    fnv1a_bytes(FNV_SEED, name.as_bytes())
}

/// Lowers one function definition to IR.
pub(crate) fn lower_function(ctx: &LowerCtx<'_>, def: &FuncDef) -> Result<Function, LowerError> {
    let mut lw = FuncLowerer {
        ctx,
        func_name: def.name.clone(),
        locals: Vec::new(),
        temp_origins: Vec::new(),
        blocks: vec![BlockUnder::new()],
        current: BlockId(0),
        scopes: vec![HashMap::new()],
        break_stack: Vec::new(),
        continue_stack: Vec::new(),
        return_spans: Vec::new(),
    };

    // Spill parameters into slots; these stores are the "implicit definition"
    // of Fig. 1b and are checked at function entry by the detector.
    let mut params = Vec::new();
    for (i, p) in def.params.iter().enumerate() {
        let slot = lw.add_local(LocalInfo {
            name: p.name.clone(),
            ty: p.ty.clone(),
            span: p.span,
            unused_attr: p.unused_attr,
            kind: LocalKind::Param(i),
        });
        lw.bind(p.name.clone(), slot);
        let t = lw.new_temp(TempOrigin::Param(i));
        lw.emit(Inst::Store {
            place: Place::Local(slot),
            value: Operand::Temp(t),
            info: StoreInfo::ParamInit { index: i },
            span: p.span,
        });
        params.push(ParamInfo {
            name: p.name.clone(),
            ty: p.ty.clone(),
            local: slot,
            unused_attr: p.unused_attr,
            span: p.span,
        });
    }

    lw.lower_block(&def.body)?;

    // Implicit return when control falls off the end.
    let end_span = Span::point(def.span.file, def.span.end.line, def.span.end.col);
    lw.terminate(Terminator::Ret {
        value: None,
        span: end_span,
    });

    let blocks = lw
        .blocks
        .into_iter()
        .map(|b| BasicBlock {
            insts: b.insts,
            term: b.term.unwrap_or(Terminator::Unreachable),
        })
        .collect();

    Ok(Function {
        name: def.name.clone(),
        ret_ty: def.ret.clone(),
        params,
        locals: lw.locals,
        blocks,
        entry: BlockId(0),
        temp_origins: lw.temp_origins,
        is_static: def.is_static,
        file: def.span.file,
        span: def.span,
        return_spans: lw.return_spans,
        guarded_mentions: collect_guarded_mentions(&def.body),
        recovered: def.body.poisoned_count() > 0,
    })
}

/// Collects names mentioned inside preprocessor-guarded statements.
fn collect_guarded_mentions(body: &Block) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    fn walk_block(b: &Block, out: &mut BTreeSet<String>) {
        for s in &b.stmts {
            walk_stmt(s, out);
        }
    }
    fn walk_stmt(s: &Stmt, out: &mut BTreeSet<String>) {
        if !s.guards.is_empty() {
            collect_stmt_names(s, out);
        }
        // Recurse to find guarded statements nested in unguarded ones.
        match &s.kind {
            StmtKind::If { then, els, .. } => {
                walk_block(then, out);
                if let Some(e) = els {
                    walk_block(e, out);
                }
            }
            StmtKind::While { body, .. } => walk_block(body, out),
            StmtKind::DoWhile { body, .. } => walk_block(body, out),
            StmtKind::Switch { cases, default, .. } => {
                for c in cases {
                    walk_block(&c.body, out);
                }
                if let Some(d) = default {
                    walk_block(d, out);
                }
            }
            StmtKind::For { body, init, .. } => {
                if let Some(i) = init {
                    walk_stmt(i, out);
                }
                walk_block(body, out);
            }
            StmtKind::Block(b) => walk_block(b, out),
            _ => {}
        }
    }
    fn collect_stmt_names(s: &Stmt, out: &mut BTreeSet<String>) {
        match &s.kind {
            StmtKind::Decl { init: Some(e), .. } => collect_expr_names(e, out),
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => collect_expr_names(e, out),
            StmtKind::If { cond, then, els } => {
                collect_expr_names(cond, out);
                for t in &then.stmts {
                    collect_stmt_names(t, out);
                }
                if let Some(e) = els {
                    for t in &e.stmts {
                        collect_stmt_names(t, out);
                    }
                }
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                collect_expr_names(cond, out);
                for t in &body.stmts {
                    collect_stmt_names(t, out);
                }
            }
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            } => {
                collect_expr_names(scrutinee, out);
                for c in cases {
                    for t in &c.body.stmts {
                        collect_stmt_names(t, out);
                    }
                }
                if let Some(d) = default {
                    for t in &d.stmts {
                        collect_stmt_names(t, out);
                    }
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    collect_stmt_names(i, out);
                }
                if let Some(c) = cond {
                    collect_expr_names(c, out);
                }
                if let Some(st) = step {
                    collect_expr_names(st, out);
                }
                for t in &body.stmts {
                    collect_stmt_names(t, out);
                }
            }
            StmtKind::Block(b) => {
                for t in &b.stmts {
                    collect_stmt_names(t, out);
                }
            }
            _ => {}
        }
    }
    fn collect_expr_names(e: &Expr, out: &mut BTreeSet<String>) {
        match &e.kind {
            ExprKind::Var(n) => {
                out.insert(n.clone());
            }
            ExprKind::Unary { expr, .. }
            | ExprKind::Deref(expr)
            | ExprKind::AddrOf(expr)
            | ExprKind::Cast { expr, .. }
            | ExprKind::IncDec { target: expr, .. } => collect_expr_names(expr, out),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                collect_expr_names(lhs, out);
                collect_expr_names(rhs, out);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    collect_expr_names(a, out);
                }
            }
            ExprKind::Member { base, .. } => collect_expr_names(base, out),
            ExprKind::Index { base, index } => {
                collect_expr_names(base, out);
                collect_expr_names(index, out);
            }
            ExprKind::Ternary { cond, then, els } => {
                collect_expr_names(cond, out);
                collect_expr_names(then, out);
                collect_expr_names(els, out);
            }
            _ => {}
        }
    }
    walk_block(body, &mut out);
    out
}

struct BlockUnder {
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

impl BlockUnder {
    fn new() -> Self {
        Self {
            insts: Vec::new(),
            term: None,
        }
    }
}

struct FuncLowerer<'a, 'b> {
    ctx: &'a LowerCtx<'b>,
    func_name: String,
    locals: Vec<LocalInfo>,
    temp_origins: Vec<TempOrigin>,
    blocks: Vec<BlockUnder>,
    current: BlockId,
    scopes: Vec<HashMap<String, LocalId>>,
    /// Targets of `break`: innermost loop exit or switch exit.
    break_stack: Vec<BlockId>,
    /// Targets of `continue`: innermost loop header/step (switches are
    /// transparent to `continue`, as in C).
    continue_stack: Vec<BlockId>,
    return_spans: Vec<Span>,
}

impl<'a, 'b> FuncLowerer<'a, 'b> {
    fn err(&self, span: Span, message: impl Into<String>) -> LowerError {
        LowerError {
            message: format!("in `{}`: {}", self.func_name, message.into()),
            span,
        }
    }

    fn add_local(&mut self, info: LocalInfo) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(info);
        id
    }

    fn bind(&mut self, name: String, slot: LocalId) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, slot);
    }

    fn lookup(&self, name: &str) -> Option<LocalId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn new_temp(&mut self, origin: TempOrigin) -> TempId {
        let id = TempId(self.temp_origins.len() as u32);
        self.temp_origins.push(origin);
        id
    }

    fn emit(&mut self, inst: Inst) {
        let b = &mut self.blocks[self.current.0 as usize];
        if b.term.is_none() {
            b.insts.push(inst);
        }
        // Instructions after a terminator (unreachable code) are dropped,
        // matching what a compiler's trivial DCE of unreachable blocks does.
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockUnder::new());
        id
    }

    fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }

    fn terminate(&mut self, term: Terminator) {
        let b = &mut self.blocks[self.current.0 as usize];
        if b.term.is_none() {
            b.term = Some(term);
        }
    }

    fn stmt_enabled(&self, s: &Stmt) -> bool {
        s.guards.iter().all(|g| g.enabled(self.ctx.defines))
    }

    // ----- Types ----------------------------------------------------------

    /// Best-effort static type of an expression; unknown shapes become `int`.
    fn expr_type(&self, e: &Expr) -> Type {
        match &e.kind {
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::BoolLit(_) => Type::Bool,
            ExprKind::StrLit(_) => Type::Char.ptr_to(),
            ExprKind::Null => Type::Void.ptr_to(),
            ExprKind::Var(n) => {
                if let Some(l) = self.lookup(n) {
                    self.locals[l.0 as usize].ty.clone()
                } else if let Some(t) = self.ctx.global(n) {
                    t.clone()
                } else if self.ctx.ret(n).is_some() {
                    Type::Void.ptr_to()
                } else {
                    Type::Int
                }
            }
            ExprKind::Unary { expr, .. } => self.expr_type(expr),
            ExprKind::Deref(inner) => self
                .expr_type(inner)
                .pointee()
                .cloned()
                .unwrap_or(Type::Int),
            ExprKind::AddrOf(inner) => self.expr_type(inner).ptr_to(),
            ExprKind::IncDec { target, .. } => self.expr_type(target),
            ExprKind::Binary { op, lhs, rhs } => {
                if op.is_logical() {
                    Type::Bool
                } else {
                    let lt = self.expr_type(lhs);
                    if lt.is_pointer_like() {
                        lt
                    } else {
                        let rt = self.expr_type(rhs);
                        if rt.is_pointer_like() {
                            rt
                        } else {
                            lt
                        }
                    }
                }
            }
            ExprKind::Assign { lhs, .. } => self.expr_type(lhs),
            ExprKind::Call { callee, .. } => self.ctx.ret(callee).cloned().unwrap_or(Type::Int),
            ExprKind::Member { base, field, .. } => {
                let bt = self.expr_type(base);
                let sname = match &bt {
                    Type::Struct(n) => Some(n.clone()),
                    Type::Ptr(inner) => match inner.as_ref() {
                        Type::Struct(n) => Some(n.clone()),
                        _ => None,
                    },
                    _ => None,
                };
                sname
                    .and_then(|n| {
                        let layout = self.ctx.layout(&n)?;
                        let idx = layout.field_index(field)?;
                        Some(layout.field_types[idx].clone())
                    })
                    .unwrap_or(Type::Int)
            }
            ExprKind::Index { base, .. } => {
                self.expr_type(base).pointee().cloned().unwrap_or(Type::Int)
            }
            ExprKind::Cast { ty, .. } => ty.clone(),
            ExprKind::Ternary { then, .. } => self.expr_type(then),
        }
    }

    /// Resolves `field` against the struct type of `base_ty`.
    fn field_index(&self, base_ty: &Type, field: &str, span: Span) -> Result<u32, LowerError> {
        let sname = match base_ty {
            Type::Struct(n) => n,
            Type::Ptr(inner) | Type::Array(inner, _) => match inner.as_ref() {
                Type::Struct(n) => n,
                other => {
                    return Err(self.err(span, format!("`{other}` has no field `{field}`")));
                }
            },
            other => return Err(self.err(span, format!("`{other}` has no field `{field}`"))),
        };
        let layout = self
            .ctx
            .layout(sname)
            .ok_or_else(|| self.err(span, format!("unknown struct `{sname}`")))?;
        layout
            .field_index(field)
            .map(|i| i as u32)
            .ok_or_else(|| self.err(span, format!("struct `{sname}` has no field `{field}`")))
    }

    // ----- Blocks and statements -----------------------------------------

    fn lower_block(&mut self, b: &Block) -> Result<(), LowerError> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.lower_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        if !self.stmt_enabled(s) {
            return Ok(());
        }
        match &s.kind {
            StmtKind::Decl {
                name,
                ty,
                init,
                unused_attr,
            } => {
                let slot = self.add_local(LocalInfo {
                    name: name.clone(),
                    ty: ty.clone(),
                    span: s.span,
                    unused_attr: *unused_attr,
                    kind: LocalKind::Named,
                });
                self.bind(name.clone(), slot);
                if let Some(e) = init {
                    let (value, info) = self.lower_store_value(&Place::Local(slot), e)?;
                    self.emit(Inst::Store {
                        place: Place::Local(slot),
                        value,
                        info,
                        span: s.span,
                    });
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.lower_expr_stmt(e, s.span)?;
                Ok(())
            }
            StmtKind::If { cond, then, els } => self.lower_if(cond, then, els.as_ref(), s.span),
            StmtKind::While { cond, body } => self.lower_while(cond, body),
            StmtKind::DoWhile { body, cond } => self.lower_do_while(body, cond),
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            } => self.lower_switch(scrutinee, cases, default.as_ref()),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => self.lower_for(init.as_deref(), cond.as_ref(), step.as_ref(), body),
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.return_spans.push(s.span);
                self.terminate(Terminator::Ret {
                    value: v,
                    span: s.span,
                });
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Break => {
                let target = *self
                    .break_stack
                    .last()
                    .ok_or_else(|| self.err(s.span, "break outside of loop or switch"))?;
                self.terminate(Terminator::Br(target));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Continue => {
                let target = *self
                    .continue_stack
                    .last()
                    .ok_or_else(|| self.err(s.span, "continue outside of loop"))?;
                self.terminate(Terminator::Br(target));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Block(b) => self.lower_block(b),
            // A poisoned recovery region lowers to nothing; the surviving
            // function is flagged `recovered` instead.
            StmtKind::Error => Ok(()),
        }
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        then: &Block,
        els: Option<&Block>,
        _span: Span,
    ) -> Result<(), LowerError> {
        let c = self.lower_expr(cond)?;
        let then_bb = self.new_block();
        let else_bb = self.new_block();
        let merge_bb = if els.is_some() {
            self.new_block()
        } else {
            else_bb
        };
        self.terminate(Terminator::CondBr {
            cond: c,
            then_bb,
            else_bb,
        });

        self.switch_to(then_bb);
        self.lower_block(then)?;
        self.terminate(Terminator::Br(merge_bb));

        if let Some(e) = els {
            self.switch_to(else_bb);
            self.lower_block(e)?;
            self.terminate(Terminator::Br(merge_bb));
        }

        self.switch_to(merge_bb);
        Ok(())
    }

    fn lower_while(&mut self, cond: &Expr, body: &Block) -> Result<(), LowerError> {
        let header = self.new_block();
        self.terminate(Terminator::Br(header));
        self.switch_to(header);
        let c = self.lower_expr(cond)?;
        let body_bb = self.new_block();
        let exit_bb = self.new_block();
        self.terminate(Terminator::CondBr {
            cond: c,
            then_bb: body_bb,
            else_bb: exit_bb,
        });

        self.break_stack.push(exit_bb);
        self.continue_stack.push(header);
        self.switch_to(body_bb);
        self.lower_block(body)?;
        self.terminate(Terminator::Br(header));
        self.break_stack.pop();
        self.continue_stack.pop();

        self.switch_to(exit_bb);
        Ok(())
    }

    fn lower_do_while(&mut self, body: &Block, cond: &Expr) -> Result<(), LowerError> {
        let body_bb = self.new_block();
        let cond_bb = self.new_block();
        let exit_bb = self.new_block();
        self.terminate(Terminator::Br(body_bb));

        self.break_stack.push(exit_bb);
        self.continue_stack.push(cond_bb);
        self.switch_to(body_bb);
        self.lower_block(body)?;
        self.terminate(Terminator::Br(cond_bb));
        self.break_stack.pop();
        self.continue_stack.pop();

        self.switch_to(cond_bb);
        let c = self.lower_expr(cond)?;
        self.terminate(Terminator::CondBr {
            cond: c,
            then_bb: body_bb,
            else_bb: exit_bb,
        });
        self.switch_to(exit_bb);
        Ok(())
    }

    fn lower_switch(
        &mut self,
        scrutinee: &Expr,
        cases: &[SwitchCase],
        default: Option<&Block>,
    ) -> Result<(), LowerError> {
        let scrut = self.lower_expr(scrutinee)?;
        let exit_bb = self.new_block();

        // Dispatch chain: one comparison block per label value.
        let mut arm_blocks = Vec::with_capacity(cases.len());
        for _ in cases {
            arm_blocks.push(self.new_block());
        }
        let default_bb = if default.is_some() {
            self.new_block()
        } else {
            exit_bb
        };

        for (ci, case) in cases.iter().enumerate() {
            for v in &case.values {
                let eq = self.new_temp(TempOrigin::Bin(BinOp::Eq));
                self.emit(Inst::Bin {
                    dst: eq,
                    op: BinOp::Eq,
                    lhs: scrut.clone(),
                    rhs: Operand::Const(*v),
                    span: scrutinee.span,
                });
                let next = self.new_block();
                self.terminate(Terminator::CondBr {
                    cond: Operand::Temp(eq),
                    then_bb: arm_blocks[ci],
                    else_bb: next,
                });
                self.switch_to(next);
            }
        }
        self.terminate(Terminator::Br(default_bb));

        // Arm bodies; `break` targets the switch exit.
        self.break_stack.push(exit_bb);
        for (ci, case) in cases.iter().enumerate() {
            self.switch_to(arm_blocks[ci]);
            self.lower_block(&case.body)?;
            self.terminate(Terminator::Br(exit_bb));
        }
        if let Some(d) = default {
            self.switch_to(default_bb);
            self.lower_block(d)?;
            self.terminate(Terminator::Br(exit_bb));
        }
        self.break_stack.pop();

        self.switch_to(exit_bb);
        Ok(())
    }

    fn lower_for(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Block,
    ) -> Result<(), LowerError> {
        self.scopes.push(HashMap::new());
        if let Some(i) = init {
            self.lower_stmt(i)?;
        }
        let header = self.new_block();
        self.terminate(Terminator::Br(header));
        self.switch_to(header);
        let body_bb = self.new_block();
        let exit_bb = self.new_block();
        match cond {
            Some(c) => {
                let v = self.lower_expr(c)?;
                self.terminate(Terminator::CondBr {
                    cond: v,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
            }
            None => self.terminate(Terminator::Br(body_bb)),
        }

        let step_bb = self.new_block();
        self.break_stack.push(exit_bb);
        self.continue_stack.push(step_bb);
        self.switch_to(body_bb);
        self.lower_block(body)?;
        self.terminate(Terminator::Br(step_bb));
        self.break_stack.pop();
        self.continue_stack.pop();

        self.switch_to(step_bb);
        if let Some(st) = step {
            self.lower_expr_stmt(st, st.span)?;
        }
        self.terminate(Terminator::Br(header));

        self.switch_to(exit_bb);
        self.scopes.pop();
        Ok(())
    }

    // ----- Expressions ----------------------------------------------------

    /// Lowers an expression evaluated only for its effect. Ignored non-void
    /// call results become stores into a synthetic slot.
    fn lower_expr_stmt(&mut self, e: &Expr, span: Span) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                let (dst, callee_ir) = self.lower_call(callee, args, e.span)?;
                // Only a *declared* non-void callee produces the implicit
                // definition: for unknown (library) functions without a
                // prototype the return type is unknown, as in C.
                let declared_nonvoid =
                    |n: &str| self.ctx.ret(n).map(|t| *t != Type::Void).unwrap_or(false);
                if let (Some(t), Callee::Direct(name)) = (dst, &callee_ir) {
                    if !declared_nonvoid(name) {
                        return Ok(());
                    }
                    // The implicit definition `[tmp] = f(...)` of Table 1.
                    let slot = self.add_local(LocalInfo {
                        name: format!("$ret_{}_{}", name, span.start.line),
                        ty: self.ctx.ret(name).cloned().unwrap_or(Type::Int),
                        span,
                        unused_attr: false,
                        kind: LocalKind::Synthetic,
                    });
                    self.emit(Inst::Store {
                        place: Place::Local(slot),
                        value: Operand::Temp(t),
                        info: StoreInfo::RetVal {
                            callee: name.clone(),
                            synthetic_dst: true,
                        },
                        span,
                    });
                }
                Ok(())
            }
            ExprKind::Cast { ty, expr } if *ty == Type::Void => {
                // `(void)x` evaluates x; the load is a real use, which is
                // exactly why developers write it to silence warnings.
                self.lower_expr(expr)?;
                Ok(())
            }
            _ => {
                self.lower_expr(e)?;
                Ok(())
            }
        }
    }

    /// Lowers an expression to an operand (rvalue).
    fn lower_expr(&mut self, e: &Expr) -> Result<Operand, LowerError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Operand::Const(*v)),
            ExprKind::BoolLit(b) => Ok(Operand::Const(*b as i64)),
            ExprKind::StrLit(s) => Ok(Operand::Str(s.clone())),
            ExprKind::Null => Ok(Operand::Null),
            ExprKind::Var(name) => {
                if let Some(slot) = self.lookup(name) {
                    // Arrays decay to a pointer to their storage.
                    if matches!(self.locals[slot.0 as usize].ty, Type::Array(..)) {
                        let t = self.new_temp(TempOrigin::AddrOf(Place::Local(slot)));
                        self.emit(Inst::AddrOf {
                            dst: t,
                            place: Place::Local(slot),
                            span: e.span,
                        });
                        return Ok(Operand::Temp(t));
                    }
                    let t = self.new_temp(TempOrigin::Load(Place::Local(slot)));
                    self.emit(Inst::Load {
                        dst: t,
                        place: Place::Local(slot),
                        span: e.span,
                    });
                    Ok(Operand::Temp(t))
                } else if self.ctx.global(name).is_some() {
                    let t = self.new_temp(TempOrigin::Load(Place::Global(name.clone())));
                    self.emit(Inst::Load {
                        dst: t,
                        place: Place::Global(name.clone()),
                        span: e.span,
                    });
                    Ok(Operand::Temp(t))
                } else if self.ctx.ret(name).is_some() {
                    Ok(Operand::FuncAddr(name.clone()))
                } else {
                    Err(self.err(e.span, format!("unknown identifier `{name}`")))
                }
            }
            ExprKind::Unary { op, expr } => {
                let v = self.lower_expr(expr)?;
                let ir_op = match op {
                    UnOp::Neg => IrUnOp::Neg,
                    UnOp::Not => IrUnOp::Not,
                    UnOp::BitNot => IrUnOp::BitNot,
                };
                let t = self.new_temp(TempOrigin::Un(ir_op));
                self.emit(Inst::Un {
                    dst: t,
                    op: ir_op,
                    operand: v,
                    span: e.span,
                });
                Ok(Operand::Temp(t))
            }
            ExprKind::Deref(_) | ExprKind::Member { .. } | ExprKind::Index { .. } => {
                let place = self.lower_place(e)?;
                let t = self.new_temp(TempOrigin::Load(place.clone()));
                self.emit(Inst::Load {
                    dst: t,
                    place,
                    span: e.span,
                });
                Ok(Operand::Temp(t))
            }
            ExprKind::AddrOf(inner) => {
                match &inner.kind {
                    // `&func` yields the function address.
                    ExprKind::Var(n) if self.lookup(n).is_none() && self.ctx.ret(n).is_some() => {
                        Ok(Operand::FuncAddr(n.clone()))
                    }
                    _ => {
                        let place = self.lower_place(inner)?;
                        let t = self.new_temp(TempOrigin::AddrOf(place.clone()));
                        self.emit(Inst::AddrOf {
                            dst: t,
                            place,
                            span: e.span,
                        });
                        Ok(Operand::Temp(t))
                    }
                }
            }
            ExprKind::IncDec { delta, pre, target } => {
                let place = self.lower_place(target)?;
                let old = self.new_temp(TempOrigin::Load(place.clone()));
                self.emit(Inst::Load {
                    dst: old,
                    place: place.clone(),
                    span: e.span,
                });
                let new = self.new_temp(TempOrigin::Bin(BinOp::Add));
                self.emit(Inst::Bin {
                    dst: new,
                    op: BinOp::Add,
                    lhs: Operand::Temp(old),
                    rhs: Operand::Const(*delta),
                    span: e.span,
                });
                self.emit(Inst::Store {
                    place,
                    value: Operand::Temp(new),
                    info: StoreInfo::SelfOffset { delta: *delta },
                    span: e.span,
                });
                Ok(Operand::Temp(if *pre { new } else { old }))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                let t = self.new_temp(TempOrigin::Bin(*op));
                self.emit(Inst::Bin {
                    dst: t,
                    op: *op,
                    lhs: l,
                    rhs: r,
                    span: e.span,
                });
                Ok(Operand::Temp(t))
            }
            ExprKind::Assign { op, lhs, rhs } => self.lower_assign(op, lhs, rhs, e.span),
            ExprKind::Call { callee, args } => {
                let (dst, _) = self.lower_call(callee, args, e.span)?;
                match dst {
                    Some(t) => Ok(Operand::Temp(t)),
                    None => Err(self.err(e.span, format!("void call `{callee}` used as a value"))),
                }
            }
            ExprKind::Cast { expr, .. } => self.lower_expr(expr),
            ExprKind::Ternary { cond, then, els } => {
                // Lowered strictly through a slot; precise short-circuiting is
                // irrelevant to def-use structure at our granularity.
                let slot = self.add_local(LocalInfo {
                    name: format!("$ternary_{}", e.span.start.line),
                    ty: self.expr_type(then),
                    span: e.span,
                    unused_attr: true, // Never a candidate.
                    kind: LocalKind::Synthetic,
                });
                let c = self.lower_expr(cond)?;
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let merge_bb = self.new_block();
                self.terminate(Terminator::CondBr {
                    cond: c,
                    then_bb,
                    else_bb,
                });
                self.switch_to(then_bb);
                let tv = self.lower_expr(then)?;
                self.emit(Inst::Store {
                    place: Place::Local(slot),
                    value: tv,
                    info: StoreInfo::Normal,
                    span: then.span,
                });
                self.terminate(Terminator::Br(merge_bb));
                self.switch_to(else_bb);
                let ev = self.lower_expr(els)?;
                self.emit(Inst::Store {
                    place: Place::Local(slot),
                    value: ev,
                    info: StoreInfo::Normal,
                    span: els.span,
                });
                self.terminate(Terminator::Br(merge_bb));
                self.switch_to(merge_bb);
                let t = self.new_temp(TempOrigin::Load(Place::Local(slot)));
                self.emit(Inst::Load {
                    dst: t,
                    place: Place::Local(slot),
                    span: e.span,
                });
                Ok(Operand::Temp(t))
            }
        }
    }

    /// Lowers an lvalue expression to a [`Place`].
    fn lower_place(&mut self, e: &Expr) -> Result<Place, LowerError> {
        match &e.kind {
            ExprKind::Var(name) => {
                if let Some(slot) = self.lookup(name) {
                    Ok(Place::Local(slot))
                } else if self.ctx.global(name).is_some() {
                    Ok(Place::Global(name.clone()))
                } else {
                    Err(self.err(e.span, format!("unknown identifier `{name}`")))
                }
            }
            ExprKind::Deref(inner) => {
                let v = self.lower_expr(inner)?;
                let t = self.operand_temp(v, inner.span)?;
                Ok(Place::Deref(t))
            }
            ExprKind::Member { base, field, arrow } => {
                if *arrow {
                    let v = self.lower_expr(base)?;
                    let t = self.operand_temp(v, base.span)?;
                    let idx = self.field_index(&self.expr_type(base), field, e.span)?;
                    Ok(Place::DerefField(t, idx))
                } else {
                    let base_place = self.lower_place(base)?;
                    let idx = self.field_index(&self.expr_type(base), field, e.span)?;
                    match base_place {
                        Place::Local(l) => Ok(Place::Field(l, idx)),
                        Place::Global(g) => Ok(Place::GlobalField(g, idx)),
                        // Nested aggregates degrade to the outer access: a
                        // one-level field sensitivity, like `v#n` naming.
                        other => Ok(other),
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let _ = self.lower_expr(index)?;
                let addr = self.lower_expr(base)?;
                let t = self.operand_temp(addr, base.span)?;
                Ok(Place::Deref(t))
            }
            _ => Err(self.err(e.span, "expression is not an lvalue")),
        }
    }

    fn operand_temp(&mut self, v: Operand, span: Span) -> Result<TempId, LowerError> {
        match v {
            Operand::Temp(t) => Ok(t),
            other => Err(self.err(
                span,
                format!("expected a pointer-valued expression, found {other:?}"),
            )),
        }
    }

    /// Computes the stored operand and its [`StoreInfo`] for `place = rhs`.
    fn lower_store_value(
        &mut self,
        place: &Place,
        rhs: &Expr,
    ) -> Result<(Operand, StoreInfo), LowerError> {
        // Detect the cursor shape `p = p + c` / `p = p - c` at source level.
        if let ExprKind::Binary {
            op: op @ (BinOp::Add | BinOp::Sub),
            lhs,
            rhs: r,
        } = &rhs.kind
        {
            if let (ExprKind::Var(n), ExprKind::IntLit(c)) = (&lhs.kind, &r.kind) {
                if let Some(slot) = self.lookup(n) {
                    if *place == Place::Local(slot) {
                        let v = self.lower_expr(rhs)?;
                        let delta = if *op == BinOp::Add { *c } else { -*c };
                        return Ok((v, StoreInfo::SelfOffset { delta }));
                    }
                }
            }
        }
        let v = self.lower_expr(rhs)?;
        let info = match &v {
            Operand::Temp(t) => match &self.temp_origins[t.0 as usize] {
                TempOrigin::Call(name) => StoreInfo::RetVal {
                    callee: name.clone(),
                    synthetic_dst: false,
                },
                _ => StoreInfo::Normal,
            },
            _ => StoreInfo::Normal,
        };
        Ok((v, info))
    }

    fn lower_assign(
        &mut self,
        op: &Option<BinOp>,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<Operand, LowerError> {
        let place = self.lower_place(lhs)?;
        match op {
            None => {
                let (value, info) = self.lower_store_value(&place, rhs)?;
                self.emit(Inst::Store {
                    place,
                    value: value.clone(),
                    info,
                    span,
                });
                Ok(value)
            }
            Some(bin) => {
                let old = self.new_temp(TempOrigin::Load(place.clone()));
                self.emit(Inst::Load {
                    dst: old,
                    place: place.clone(),
                    span,
                });
                let r = self.lower_expr(rhs)?;
                let t = self.new_temp(TempOrigin::Bin(*bin));
                self.emit(Inst::Bin {
                    dst: t,
                    op: *bin,
                    lhs: Operand::Temp(old),
                    rhs: r.clone(),
                    span,
                });
                let info = match (bin, r.as_const()) {
                    (BinOp::Add, Some(c)) => StoreInfo::SelfOffset { delta: c },
                    (BinOp::Sub, Some(c)) => StoreInfo::SelfOffset { delta: -c },
                    _ => StoreInfo::Normal,
                };
                self.emit(Inst::Store {
                    place,
                    value: Operand::Temp(t),
                    info,
                    span,
                });
                Ok(Operand::Temp(t))
            }
        }
    }

    /// Lowers a call; returns the result temp (if the callee returns a value)
    /// and the resolved callee.
    fn lower_call(
        &mut self,
        callee: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<(Option<TempId>, Callee), LowerError> {
        let mut arg_ops = Vec::with_capacity(args.len());
        for a in args {
            arg_ops.push(self.lower_expr(a)?);
        }
        // A name bound to a local/global variable is an indirect call through
        // a function pointer; otherwise it is a direct call.
        if let Some(slot) = self.lookup(callee) {
            let t = self.new_temp(TempOrigin::Load(Place::Local(slot)));
            self.emit(Inst::Load {
                dst: t,
                place: Place::Local(slot),
                span,
            });
            let dst = self.new_temp(TempOrigin::IndirectCall);
            self.emit(Inst::Call {
                dst: Some(dst),
                callee: Callee::Indirect(t),
                args: arg_ops,
                span,
            });
            return Ok((Some(dst), Callee::Indirect(t)));
        }
        if self.ctx.global(callee).is_some() {
            let t = self.new_temp(TempOrigin::Load(Place::Global(callee.to_string())));
            self.emit(Inst::Load {
                dst: t,
                place: Place::Global(callee.to_string()),
                span,
            });
            let dst = self.new_temp(TempOrigin::IndirectCall);
            self.emit(Inst::Call {
                dst: Some(dst),
                callee: Callee::Indirect(t),
                args: arg_ops,
                span,
            });
            return Ok((Some(dst), Callee::Indirect(t)));
        }
        let ret = self.ctx.ret(callee).cloned().unwrap_or(Type::Int);
        let dst = if ret == Type::Void {
            None
        } else {
            Some(self.new_temp(TempOrigin::Call(callee.to_string())))
        };
        self.emit(Inst::Call {
            dst,
            callee: Callee::Direct(callee.to_string()),
            args: arg_ops,
            span,
        });
        Ok((dst, Callee::Direct(callee.to_string())))
    }
}
