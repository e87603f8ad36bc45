//! Field-sensitive Andersen's (inclusion-based) pointer analysis.
//!
//! This is the SVF substitute: the paper uses field-sensitive Andersen's
//! analysis \[13\] "because of its better scalability compared to
//! flow-sensitive pointer analysis" (§4.1). The solver is a standard
//! worklist over inclusion constraints with on-the-fly call-graph
//! construction, so function pointers are resolved during solving and
//! indirect calls bind their arguments to the discovered callees.

use std::{
    collections::BTreeSet,
    rc::Rc, //
};

use vc_ir::{
    ir::{
        Callee,
        Inst,
        Operand,
        Place,
        TempOrigin,
        Terminator, //
    },
    FileId,
    FuncId,
    LocalId,
    Program,
    TempId, //
};

use crate::{
    fasthash::{FastMap, FastSet},
    node::{Interner, MemObj},
};

/// A value source feeding a constraint: a pointer variable or a literal
/// object address.
#[derive(Clone, Copy, Debug)]
enum Src {
    Var(u32),
    Obj(u32),
}

/// An indirect call site awaiting callee resolution.
#[derive(Clone, Debug)]
struct IndirectSite {
    caller: FuncId,
    args: Vec<Src>,
    dst: Option<u32>,
}

/// Analysis configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Field-sensitive object model (the paper's default). Disable for the
    /// field-sensitivity ablation bench.
    pub field_sensitive: bool,
    /// Work budget for the constraint solver. When the step cap or deadline
    /// runs out mid-solve the partial (under-approximate) solution is
    /// returned with [`PointsTo::exhausted`] set; callers are expected to
    /// fall back to a conservative alias oracle.
    pub budget: vc_obs::Budget,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            field_sensitive: true,
            budget: vc_obs::Budget::UNLIMITED,
        }
    }
}

/// The solved points-to relation and derived call graph.
#[derive(Debug)]
pub struct PointsTo {
    interner: Interner,
    pts: Vec<BTreeSet<u32>>,
    /// `(caller, callee-name)` edges, direct and resolved-indirect.
    call_edges: BTreeSet<(FuncId, String)>,
    /// Per-function temps of each parameter index, for binding.
    config: Config,
    /// Per-function base of the dense temp variable id space (see
    /// [`Solver::temp_var`]); `temp_base[f] + t` is the variable id of
    /// temp `t` in function `f`.
    temp_base: Vec<u32>,
    /// Whether the solver stopped on budget exhaustion: the relation is
    /// partial (an under-approximation) and must not be trusted for
    /// may-alias queries.
    exhausted: bool,
}

struct Solver<'p> {
    prog: &'p Program,
    config: Config,
    scope: Option<BTreeSet<FileId>>,
    func_scope: Option<BTreeSet<FuncId>>,
    interner: Interner,
    /// Dense variable ids without hashing: temps occupy `0..total_temps`
    /// (`temp_base[f] + t`), and the slot variable of object `o` is
    /// `total_temps + o` (object ids are themselves dense).
    temp_base: Vec<u32>,
    total_temps: u32,
    /// Memoized object ids of plain `MemObj::Local` objects, indexed by
    /// `local_base[f] + l` (`u32::MAX` = not yet interned). Avoids a hash
    /// of the enum for the hottest object kind during generation.
    local_base: Vec<u32>,
    local_obj: Vec<u32>,
    /// Memoized object ids of named objects (globals, function addresses,
    /// string literals, extern returns), keyed by name so repeat lookups
    /// neither clone the name into a fresh `MemObj` nor hash the enum.
    global_objs: FastMap<String, u32>,
    func_objs: FastMap<String, u32>,
    str_objs: FastMap<String, u32>,
    extern_objs: FastMap<String, u32>,
    pts: Vec<BTreeSet<u32>>,
    copy_edges: Vec<Vec<u32>>,
    copy_seen: FastSet<(u32, u32)>,
    loads: Vec<Vec<(u32, Option<u32>)>>,
    stores: Vec<Vec<(Src, Option<u32>)>>,
    geps: Vec<Vec<(u32, u32)>>,
    sites: Vec<IndirectSite>,
    sites_by_var: FastMap<u32, Vec<usize>>,
    bound: FastSet<(usize, String)>,
    worklist: Vec<u32>,
    queued: Vec<bool>,
    /// Worklist pops performed before reaching the fixpoint.
    propagations: u64,
    call_edges: BTreeSet<(FuncId, String)>,
    /// name -> (FuncId, param temps, return sources).
    func_info: FastMap<String, Rc<FuncInfo>>,
}

/// A function's id, parameter temps and return sources.
type FuncInfo = (FuncId, Vec<u32>, Vec<Src>);

impl PointsTo {
    /// Runs the analysis over a whole program with the default (field-
    /// sensitive) configuration.
    pub fn solve(prog: &Program) -> PointsTo {
        Self::solve_with(prog, Config::default())
    }

    /// Runs the analysis with an explicit configuration.
    pub fn solve_with(prog: &Program, config: Config) -> PointsTo {
        Self::solve_impl(prog, config, None, None)
    }

    /// Runs the analysis restricted to functions defined in `files` — the
    /// paper's per-bitcode-file SVF usage (§7), and the incremental
    /// analyzer's fast path. Out-of-scope callees are treated as externs.
    pub fn solve_files(prog: &Program, files: &BTreeSet<FileId>) -> PointsTo {
        Self::solve_impl(prog, Config::default(), Some(files), None)
    }

    /// Runs the analysis restricted to an explicit function set — the
    /// demand-driven per-component solve (see `demand`). Out-of-scope
    /// callees are treated as externs; the caller is responsible for
    /// passing a set closed under pointer-relevant interactions.
    pub fn solve_funcs(prog: &Program, funcs: &BTreeSet<FuncId>, config: Config) -> PointsTo {
        Self::solve_impl(prog, config, None, Some(funcs))
    }

    fn solve_impl(
        prog: &Program,
        config: Config,
        scope: Option<&BTreeSet<FileId>>,
        func_scope: Option<&BTreeSet<FuncId>>,
    ) -> PointsTo {
        let span = vc_obs::span("pointer.solve", "pointer");
        let mut solver = Solver::new(prog, config);
        solver.scope = scope.cloned();
        solver.func_scope = func_scope.cloned();
        solver.generate();
        let exhausted = solver.run();
        span.end();
        let out = PointsTo {
            interner: solver.interner,
            pts: solver.pts,
            call_edges: solver.call_edges,
            config,
            temp_base: solver.temp_base,
            exhausted,
        };
        if exhausted {
            vc_obs::counter_inc(vc_obs::names::POINTER_BUDGET_EXHAUSTED);
        }
        vc_obs::counter_inc(vc_obs::names::POINTER_SOLVES);
        vc_obs::counter_add(vc_obs::names::POINTER_PROPAGATIONS, solver.propagations);
        vc_obs::counter_add(vc_obs::names::POINTER_NODES, out.pts.len() as u64);
        vc_obs::counter_add(
            vc_obs::names::POINTER_COPY_EDGES,
            solver.copy_seen.len() as u64,
        );
        vc_obs::counter_add(vc_obs::names::POINTER_FACTS, out.fact_count() as u64);
        out
    }

    /// The points-to set of a temp, as memory objects.
    pub fn points_to(&self, func: FuncId, temp: TempId) -> Vec<&MemObj> {
        let v = match self.temp_base.get(func.0 as usize) {
            Some(base) => (base + temp.0) as usize,
            None => return Vec::new(),
        };
        match self.pts.get(v) {
            Some(set) => set.iter().map(|&o| self.interner.obj_ref(o)).collect(),
            None => Vec::new(),
        }
    }

    /// The function names a function-pointer temp may target.
    pub fn resolve_fn_ptr(&self, func: FuncId, temp: TempId) -> Vec<String> {
        self.points_to(func, temp)
            .into_iter()
            .filter_map(|o| o.as_func().map(str::to_string))
            .collect()
    }

    /// Call-graph edges `(caller, callee name)`, direct and indirect.
    pub fn call_edges(&self) -> &BTreeSet<(FuncId, String)> {
        &self.call_edges
    }

    /// Locals of `func` whose storage appears in some points-to set: they
    /// are "referenced by pointers" in the paper's sense and must not be
    /// reported as unused definitions.
    pub fn pointed_to_locals(&self, func: FuncId) -> BTreeSet<LocalId> {
        let mut out = BTreeSet::new();
        for set in &self.pts {
            for &o in set {
                match self.interner.obj_ref(o) {
                    MemObj::Local(f, l) | MemObj::LocalField(f, l, _) if *f == func => {
                        out.insert(*l);
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Whether the analysis ran field-sensitively.
    pub fn is_field_sensitive(&self) -> bool {
        self.config.field_sensitive
    }

    /// Whether the solver stopped on budget exhaustion. An exhausted
    /// solution under-approximates the points-to relation; may-alias
    /// consumers must fall back to a conservative oracle (see
    /// `AliasUses::conservative`).
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Total number of points-to facts (for scalability reporting).
    pub fn fact_count(&self) -> usize {
        self.pts.iter().map(|s| s.len()).sum()
    }
}

impl<'p> Solver<'p> {
    fn new(prog: &'p Program, config: Config) -> Self {
        let mut temp_base = Vec::with_capacity(prog.funcs.len());
        let mut local_base = Vec::with_capacity(prog.funcs.len());
        let mut total_temps: u32 = 0;
        let mut total_locals: u32 = 0;
        for f in &prog.funcs {
            temp_base.push(total_temps);
            local_base.push(total_locals);
            total_temps += f.temp_origins.len() as u32;
            total_locals += f.locals.len() as u32;
        }
        Self {
            prog,
            config,
            scope: None,
            func_scope: None,
            interner: Interner::new(),
            temp_base,
            total_temps,
            local_base,
            local_obj: vec![u32::MAX; total_locals as usize],
            global_objs: FastMap::default(),
            func_objs: FastMap::default(),
            str_objs: FastMap::default(),
            extern_objs: FastMap::default(),
            pts: Vec::new(),
            copy_edges: Vec::new(),
            copy_seen: FastSet::default(),
            loads: Vec::new(),
            stores: Vec::new(),
            geps: Vec::new(),
            sites: Vec::new(),
            sites_by_var: FastMap::default(),
            bound: FastSet::default(),
            worklist: Vec::new(),
            queued: Vec::new(),
            propagations: 0,
            call_edges: BTreeSet::new(),
            func_info: FastMap::default(),
        }
    }

    fn ensure_var(&mut self, v: u32) {
        let n = (v as usize) + 1;
        if self.pts.len() < n {
            self.pts.resize_with(n, BTreeSet::new);
            self.copy_edges.resize_with(n, Vec::new);
            self.loads.resize_with(n, Vec::new);
            self.stores.resize_with(n, Vec::new);
            self.geps.resize_with(n, Vec::new);
            self.queued.resize(n, false);
        }
    }

    fn temp_var(&mut self, f: FuncId, t: TempId) -> u32 {
        let id = self.temp_base[f.0 as usize] + t.0;
        self.ensure_var(id);
        id
    }

    fn slot_of(&mut self, o: u32) -> u32 {
        let id = self.total_temps + o;
        self.ensure_var(id);
        id
    }

    fn global_obj(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.global_objs.get(name) {
            return id;
        }
        let id = self.interner.obj(MemObj::Global(name.to_string()));
        self.global_objs.insert(name.to_string(), id);
        id
    }

    fn func_obj(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.func_objs.get(name) {
            return id;
        }
        let id = self.interner.obj(MemObj::Func(name.to_string()));
        self.func_objs.insert(name.to_string(), id);
        id
    }

    fn str_obj(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.str_objs.get(s) {
            return id;
        }
        let id = self.interner.obj(MemObj::Str(s.to_string()));
        self.str_objs.insert(s.to_string(), id);
        id
    }

    fn extern_obj(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.extern_objs.get(name) {
            return id;
        }
        let id = self.interner.obj(MemObj::Extern(name.to_string()));
        self.extern_objs.insert(name.to_string(), id);
        id
    }

    fn local_obj(&mut self, f: FuncId, l: LocalId) -> u32 {
        let idx = (self.local_base[f.0 as usize] + l.0) as usize;
        let memo = self.local_obj[idx];
        if memo != u32::MAX {
            return memo;
        }
        let id = self.interner.obj(MemObj::Local(f, l));
        self.local_obj[idx] = id;
        id
    }

    fn obj_field(&mut self, o: u32, n: u32) -> Option<u32> {
        if !self.config.field_sensitive {
            return Some(o);
        }
        let base = self.interner.obj_ref(o).clone();
        base.field(n).map(|f| self.interner.obj(f))
    }

    fn enqueue(&mut self, v: u32) {
        if !self.queued[v as usize] {
            self.queued[v as usize] = true;
            self.worklist.push(v);
        }
    }

    fn add_addr(&mut self, dst: u32, obj: u32) {
        if self.pts[dst as usize].insert(obj) {
            self.enqueue(dst);
        }
    }

    fn add_copy(&mut self, src: u32, dst: u32) {
        if src == dst || !self.copy_seen.insert((src, dst)) {
            return;
        }
        self.copy_edges[src as usize].push(dst);
        // Propagate what src already has.
        let items: Vec<u32> = self.pts[src as usize].iter().copied().collect();
        let mut changed = false;
        for o in items {
            changed |= self.pts[dst as usize].insert(o);
        }
        if changed {
            self.enqueue(dst);
        }
    }

    fn add_src(&mut self, src: Src, dst: u32) {
        match src {
            Src::Var(v) => self.add_copy(v, dst),
            Src::Obj(o) => self.add_addr(dst, o),
        }
    }

    /// Converts an operand to a constraint source, if it carries a pointer.
    fn operand_src(&mut self, f: FuncId, op: &Operand) -> Option<Src> {
        match op {
            Operand::Temp(t) => Some(Src::Var(self.temp_var(f, *t))),
            Operand::FuncAddr(n) => {
                let o = self.func_obj(n);
                Some(Src::Obj(o))
            }
            Operand::Str(s) => {
                let o = self.str_obj(s);
                Some(Src::Obj(o))
            }
            Operand::Const(_) | Operand::Null => None,
        }
    }

    /// The object a direct place denotes, if any.
    fn place_obj(&mut self, f: FuncId, p: &Place) -> Option<u32> {
        match p {
            Place::Local(l) => Some(self.local_obj(f, *l)),
            Place::Field(l, n) => {
                let base = self.local_obj(f, *l);
                self.obj_field(base, *n)
            }
            Place::Global(g) => Some(self.global_obj(g)),
            Place::GlobalField(g, n) => {
                let base = self.global_obj(g);
                self.obj_field(base, *n)
            }
            Place::Deref(_) | Place::DerefField(_, _) => None,
        }
    }

    // ----- Constraint generation ------------------------------------------

    fn in_scope(&self, fid: FuncId, f: &vc_ir::Function) -> bool {
        if let Some(s) = &self.scope {
            if !s.contains(&f.file) {
                return false;
            }
        }
        if let Some(s) = &self.func_scope {
            if !s.contains(&fid) {
                return false;
            }
        }
        true
    }

    fn generate(&mut self) {
        // Collect per-function info first: param temps and return sources.
        for (fi, f) in self.prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            if !self.in_scope(fid, f) {
                continue;
            }
            let mut param_temps = vec![u32::MAX; f.params.len()];
            for (ti, origin) in f.temp_origins.iter().enumerate() {
                if let TempOrigin::Param(i) = origin {
                    if *i < param_temps.len() {
                        param_temps[*i] = self.temp_var(fid, TempId(ti as u32));
                    }
                }
            }
            let mut rets = Vec::new();
            for bb in &f.blocks {
                if let Terminator::Ret { value: Some(v), .. } = &bb.term {
                    if let Some(src) = self.operand_src(fid, v) {
                        rets.push(src);
                    }
                }
            }
            self.func_info
                .insert(f.name.clone(), Rc::new((fid, param_temps, rets)));
        }

        for (fi, f) in self.prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            if !self.in_scope(fid, f) {
                continue;
            }
            for bb in &f.blocks {
                for inst in &bb.insts {
                    self.gen_inst(fid, inst);
                }
            }
        }
    }

    fn gen_inst(&mut self, fid: FuncId, inst: &Inst) {
        match inst {
            Inst::AddrOf { dst, place, .. } => {
                let d = self.temp_var(fid, *dst);
                match place {
                    Place::Deref(q) => {
                        // `&*q` is `q`.
                        let qv = self.temp_var(fid, *q);
                        self.add_copy(qv, d);
                    }
                    Place::DerefField(q, n) => {
                        // `&q->f`: gep over pts(q).
                        let qv = self.temp_var(fid, *q);
                        self.geps[qv as usize].push((d, *n));
                        self.enqueue(qv);
                    }
                    direct => {
                        if let Some(o) = self.place_obj(fid, direct) {
                            self.add_addr(d, o);
                        }
                    }
                }
            }
            Inst::Load { dst, place, .. } => {
                let d = self.temp_var(fid, *dst);
                match place {
                    Place::Deref(q) => {
                        let qv = self.temp_var(fid, *q);
                        self.loads[qv as usize].push((d, None));
                        self.enqueue(qv);
                    }
                    Place::DerefField(q, n) => {
                        let qv = self.temp_var(fid, *q);
                        self.loads[qv as usize].push((d, Some(*n)));
                        self.enqueue(qv);
                    }
                    direct => {
                        if let Some(o) = self.place_obj(fid, direct) {
                            let s = self.slot_of(o);
                            self.add_copy(s, d);
                        }
                    }
                }
            }
            Inst::Store { place, value, .. } => {
                let Some(src) = self.operand_src(fid, value) else {
                    return;
                };
                match place {
                    Place::Deref(q) => {
                        let qv = self.temp_var(fid, *q);
                        self.stores[qv as usize].push((src, None));
                        self.enqueue(qv);
                    }
                    Place::DerefField(q, n) => {
                        let qv = self.temp_var(fid, *q);
                        self.stores[qv as usize].push((src, Some(*n)));
                        self.enqueue(qv);
                    }
                    direct => {
                        if let Some(o) = self.place_obj(fid, direct) {
                            let s = self.slot_of(o);
                            self.add_src(src, s);
                        }
                    }
                }
            }
            Inst::Call {
                dst, callee, args, ..
            } => {
                // Positional sources: keep alignment with parameter indices.
                let mut positional = Vec::with_capacity(args.len());
                for a in args {
                    positional.push(self.operand_src(fid, a));
                }
                match callee {
                    Callee::Direct(name) => {
                        self.call_edges.insert((fid, name.clone()));
                        let dv = dst.map(|t| self.temp_var(fid, t));
                        self.bind_direct(fid, name, &positional, dv);
                    }
                    Callee::Indirect(t) => {
                        let cv = self.temp_var(fid, *t);
                        let dv = dst.map(|t| self.temp_var(fid, t));
                        let site = IndirectSite {
                            caller: fid,
                            args: positional.into_iter().flatten().collect(),
                            dst: dv,
                        };
                        let idx = self.sites.len();
                        self.sites.push(site);
                        self.sites_by_var.entry(cv).or_default().push(idx);
                        self.enqueue(cv);
                    }
                }
            }
            Inst::Bin { .. } | Inst::Un { .. } => {
                // Pointer arithmetic (`p + 1`) keeps pointing at the same
                // objects; propagate through the result.
                if let Inst::Bin { dst, lhs, rhs, .. } = inst {
                    let d = self.temp_var(fid, *dst);
                    for op in [lhs, rhs] {
                        if let Some(Src::Var(v)) = self.operand_src(fid, op) {
                            self.add_copy(v, d);
                        }
                    }
                }
            }
        }
    }

    fn bind_direct(&mut self, caller: FuncId, name: &str, args: &[Option<Src>], dst: Option<u32>) {
        if let Some(info) = self.func_info.get(name).cloned() {
            let (_fid, param_temps, rets) = &*info;
            for (i, arg) in args.iter().enumerate() {
                if let (Some(src), Some(&pv)) = (arg, param_temps.get(i)) {
                    if pv != u32::MAX {
                        self.add_src(*src, pv);
                    }
                }
            }
            if let Some(d) = dst {
                for &r in rets {
                    self.add_src(r, d);
                }
            }
        } else if let Some(d) = dst {
            // Unknown function: returns an opaque object.
            let o = self.extern_obj(name);
            self.add_addr(d, o);
        }
        let _ = caller;
    }

    // ----- Solving ---------------------------------------------------------

    /// Runs the fixpoint loop; returns whether the work budget ran out
    /// before convergence (in which case the relation is partial).
    fn run(&mut self) -> bool {
        let mut meter = vc_obs::BudgetMeter::start(self.config.budget);
        while let Some(v) = self.worklist.pop() {
            if !meter.tick() {
                return true;
            }
            self.queued[v as usize] = false;
            self.propagations += 1;
            let objs: Vec<u32> = self.pts[v as usize].iter().copied().collect();

            // Load constraints: d ⊇ *(v[.field]).
            let loads = self.loads[v as usize].clone();
            for (d, field) in loads {
                for &o in &objs {
                    let target = match field {
                        Some(n) => self.obj_field(o, n),
                        None => Some(o),
                    };
                    if let Some(t) = target {
                        let s = self.slot_of(t);
                        self.add_copy(s, d);
                    }
                }
            }
            // Store constraints: *(v[.field]) ⊇ src.
            let stores = self.stores[v as usize].clone();
            for (src, field) in stores {
                for &o in &objs {
                    let target = match field {
                        Some(n) => self.obj_field(o, n),
                        None => Some(o),
                    };
                    if let Some(t) = target {
                        let s = self.slot_of(t);
                        self.add_src(src, s);
                    }
                }
            }
            // Gep constraints: d ⊇ field(v, n).
            let geps = self.geps[v as usize].clone();
            for (d, n) in geps {
                for &o in &objs {
                    if let Some(fo) = self.obj_field(o, n) {
                        self.add_addr(d, fo);
                    }
                }
            }
            // Indirect call sites on this variable.
            if let Some(site_ids) = self.sites_by_var.get(&v).cloned() {
                for sid in site_ids {
                    let site = self.sites[sid].clone();
                    let funcs: Vec<String> = objs
                        .iter()
                        .filter_map(|&o| self.interner.obj_ref(o).as_func().map(str::to_string))
                        .collect();
                    for name in funcs {
                        if self.bound.insert((sid, name.clone())) {
                            self.call_edges.insert((site.caller, name.clone()));
                            let args: Vec<Option<Src>> =
                                site.args.iter().copied().map(Some).collect();
                            self.bind_direct(site.caller, &name, &args, site.dst);
                        }
                    }
                }
            }
            // Copy edges.
            let edges = self.copy_edges[v as usize].clone();
            for d in edges {
                let mut changed = false;
                let items: Vec<u32> = self.pts[v as usize].iter().copied().collect();
                for o in items {
                    changed |= self.pts[d as usize].insert(o);
                }
                if changed {
                    self.enqueue(d);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(src: &str) -> Program {
        Program::build(&[("a.c", src)], &[]).unwrap()
    }

    fn temp_pts_names(p: &Program, func: &str, pts: &PointsTo) -> Vec<String> {
        let fid = p.func_id(func).unwrap();
        let f = p.func_by_name(func).unwrap();
        let mut out = Vec::new();
        for ti in 0..f.temp_origins.len() {
            for o in pts.points_to(fid, TempId(ti as u32)) {
                out.push(format!("{o:?}"));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn addr_of_points_to_local() {
        let p = prog("void f(void) { int x = 1; int *p = &x; use(p); }");
        let pts = PointsTo::solve(&p);
        let names = temp_pts_names(&p, "f", &pts);
        assert!(
            names.iter().any(|n| n.contains("Local")),
            "no local object found: {names:?}"
        );
        let fid = p.func_id("f").unwrap();
        let f = p.func_by_name("f").unwrap();
        let x = f.local_by_name("x").unwrap();
        assert!(pts.pointed_to_locals(fid).contains(&x));
    }

    #[test]
    fn copies_propagate() {
        let p = prog("void f(void) { int x = 1; int *p = &x; int *q = p; *q = 2; }");
        let pts = PointsTo::solve(&p);
        let fid = p.func_id("f").unwrap();
        let f = p.func_by_name("f").unwrap();
        let x = f.local_by_name("x").unwrap();
        // q points to x, so x is pointed-to.
        assert!(pts.pointed_to_locals(fid).contains(&x));
    }

    #[test]
    fn function_pointers_resolve() {
        let p = prog(
            "int handler_a(int x) { return x; }\n\
             int handler_b(int x) { return x + 1; }\n\
             void dispatch(int which) {\n\
               int *fp = handler_a;\n\
               if (which) { fp = handler_b; }\n\
               fp(3);\n\
             }",
        );
        let pts = PointsTo::solve(&p);
        let edges = pts.call_edges();
        let d = p.func_id("dispatch").unwrap();
        assert!(edges.contains(&(d, "handler_a".to_string())));
        assert!(edges.contains(&(d, "handler_b".to_string())));
    }

    #[test]
    fn args_flow_into_params() {
        let p = prog(
            "void callee(int *p) { *p = 3; }\n\
             void caller(void) { int x = 0; callee(&x); }",
        );
        let pts = PointsTo::solve(&p);
        // Inside callee, param p points to caller's x.
        let callee = p.func_id("callee").unwrap();
        let caller_f = p.func_id("caller").unwrap();
        let f = p.func_by_name("callee").unwrap();
        // The ParamInit temp (origin Param(0)) must point to caller::x.
        let pt = f
            .temp_origins
            .iter()
            .position(|o| matches!(o, TempOrigin::Param(0)))
            .unwrap();
        let objs = pts.points_to(callee, TempId(pt as u32));
        assert!(
            objs.iter()
                .any(|o| matches!(o, MemObj::Local(f, _) if *f == caller_f)),
            "param does not point at caller local: {objs:?}"
        );
    }

    #[test]
    fn fields_are_distinguished_when_sensitive() {
        let p = prog(
            "struct s { int a; int b; };\n\
             void f(void) { struct s v; int *pa = &v.a; int *pb = &v.b; sink(pa, pb); }",
        );
        let pts = PointsTo::solve(&p);
        let fid = p.func_id("f").unwrap();
        let f = p.func_by_name("f").unwrap();
        // Find the two AddrOf temps and check their objects differ.
        let mut field_objs = Vec::new();
        for (ti, origin) in f.temp_origins.iter().enumerate() {
            if matches!(origin, TempOrigin::AddrOf(Place::Field(_, _))) {
                for o in pts.points_to(fid, TempId(ti as u32)) {
                    field_objs.push(format!("{o:?}"));
                }
            }
        }
        field_objs.sort();
        field_objs.dedup();
        assert_eq!(field_objs.len(), 2, "fields collapsed: {field_objs:?}");
    }

    #[test]
    fn field_insensitive_mode_collapses() {
        let p = prog(
            "struct s { int a; int b; };\n\
             void f(void) { struct s v; int *pa = &v.a; int *pb = &v.b; sink(pa, pb); }",
        );
        let pts = PointsTo::solve_with(
            &p,
            Config {
                field_sensitive: false,
                ..Config::default()
            },
        );
        let fid = p.func_id("f").unwrap();
        let f = p.func_by_name("f").unwrap();
        let mut field_objs = Vec::new();
        for (ti, origin) in f.temp_origins.iter().enumerate() {
            if matches!(origin, TempOrigin::AddrOf(Place::Field(_, _))) {
                for o in pts.points_to(fid, TempId(ti as u32)) {
                    field_objs.push(format!("{o:?}"));
                }
            }
        }
        field_objs.sort();
        field_objs.dedup();
        assert_eq!(field_objs.len(), 1, "expected collapse: {field_objs:?}");
    }

    #[test]
    fn solver_reports_metrics() {
        let obs = vc_obs::ObsSession::new();
        let p = prog("void f(void) { int x = 1; int *p = &x; int *q = p; *q = 2; }");
        let pts = {
            let _g = obs.install();
            PointsTo::solve(&p)
        };
        let reg = &obs.registry;
        assert_eq!(reg.counter(vc_obs::names::POINTER_SOLVES), 1);
        assert!(reg.counter(vc_obs::names::POINTER_PROPAGATIONS) > 0);
        assert!(reg.counter(vc_obs::names::POINTER_NODES) > 0);
        assert_eq!(
            reg.counter(vc_obs::names::POINTER_FACTS),
            pts.fact_count() as u64
        );
        let spans = obs.tracer.records();
        assert!(spans.iter().any(|s| s.name == "pointer.solve"));
    }

    #[test]
    fn extern_calls_return_opaque_objects() {
        let p = prog("char *strdup(char *s);\nvoid f(void) { char *p = strdup(\"x\"); use(p); }");
        let pts = PointsTo::solve(&p);
        let names = temp_pts_names(&p, "f", &pts);
        assert!(
            names.iter().any(|n| n.contains("Extern")),
            "no extern object: {names:?}"
        );
    }

    #[test]
    fn monotone_growth_no_removal() {
        // Solve twice; identical programs give identical fact counts
        // (determinism), and facts satisfy every copy edge (a ⊇ b).
        let src = "void g(int *p) { *p = 1; }\n\
                   void f(int c) { int x = 0; int y = 0; int *p = &x; if (c) { p = &y; } g(p); }";
        let p1 = prog(src);
        let p2 = prog(src);
        let a = PointsTo::solve(&p1);
        let b = PointsTo::solve(&p2);
        assert_eq!(a.fact_count(), b.fact_count());
        assert!(a.fact_count() > 0);
    }

    #[test]
    fn returned_pointers_flow_to_caller() {
        let p = prog(
            "int g_buf = 0;\n\
             int *get(void) { return &g_buf; }\n\
             void f(void) { int *p = get(); *p = 1; }",
        );
        let pts = PointsTo::solve(&p);
        let names = temp_pts_names(&p, "f", &pts);
        assert!(
            names.iter().any(|n| n.contains("Global")),
            "no global flow: {names:?}"
        );
    }
}
