//! Per-function analysis summaries — compute once, consume everywhere.
//!
//! Historically the detect stage solved a combined liveness × define-set
//! fixpoint per function, and the prune stage then rebuilt the CFG and
//! re-solved liveness for every function `PeerStats` looked at, while the
//! cursor and unused-hint prunes rescanned instruction streams per
//! candidate. This module centralizes those facts in one [`FnSummary`] per
//! function:
//!
//! - the dead-store list with overwriter spans (detect candidates and
//!   `PeerStats` unused-counts both read it),
//! - the def/use and escape sets,
//! - the interned signature and the direct-callee set (the cross-scope
//!   relevance facts used by redundant-summary elimination),
//! - the call-result map (`temp → callee`) detection classifies with,
//! - the per-key self-offset uniformity map the cursor prune consults.
//!
//! The work is split in two phases: a plain [`Liveness`](crate::liveness::Liveness) solve over the
//! escape facts finds dead stores, and only when that list is non-empty do
//! the allocation-heavy facts get collected (callee names, the call-result
//! map, def/use sets — every consumer asks about a dead-store candidate)
//! and a second define-set fixpoint run — restricted to the dead stores'
//! locals.
//! The define equations of one local never read another local's entries (a
//! store only clears and replaces keys of its own base local), so the
//! restricted solve produces the same overwriter spans the old combined
//! fact did, at a fraction of the joins.
//!
//! Summaries are content-addressable by construction (nothing in them
//! depends on ids outside the function except the interned signature), so
//! the serve daemon caches them across warm requests keyed by the lowered
//! function they were built from.

use std::{
    collections::{
        BTreeMap,
        BTreeSet,
        HashMap, //
    },
    hash::{
        DefaultHasher,
        Hash,
        Hasher, //
    },
    sync::Arc,
};

use vc_ir::{
    cfg::Cfg,
    ir::{
        BlockId,
        Callee,
        Inst,
        LocalId,
        Operand,
        StoreInfo,
        TempId, //
    },
    span::Span,
    FuncId,
    Function,
    Program,
    VarKey, //
};
use vc_obs::Budget;

use crate::{
    dense::{
        transfer_inst_dense,
        DenseLiveness,
        KeyIndex, //
    },
    framework::{
        solve_budgeted,
        DataflowAnalysis,
        Direction, //
    },
    varset::VarKeySet,
};

/// An interned function signature (parameter type vector).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub u32);

/// Interns every function signature of a program once, so `PeerStats` and
/// the peer prune compare signatures by id instead of cloning `Vec<Type>`
/// per function and per candidate.
///
/// Interning is deterministic (first-seen order over `prog.funcs`), so two
/// interners built from the same program assign identical ids. Each
/// function's parameter types are hashed in place; two signatures' types
/// are compared only when their hashes match.
#[derive(Clone, Debug, Default)]
pub struct SigInterner {
    ids: Vec<SigId>,
    distinct: usize,
}

impl SigInterner {
    /// Interns the signatures of every function in `prog`.
    pub fn new(prog: &Program) -> Self {
        // Per signature hash: the ids minted under it, each with the first
        // function that had it.
        let mut minted: HashMap<u64, Vec<(SigId, &Function)>> = HashMap::new();
        let mut ids = Vec::with_capacity(prog.funcs.len());
        let mut distinct = 0;
        for f in &prog.funcs {
            let mut h = DefaultHasher::new();
            f.params.len().hash(&mut h);
            for p in &f.params {
                p.ty.hash(&mut h);
            }
            let same_params = |g: &Function| {
                g.params.len() == f.params.len()
                    && g.params.iter().zip(&f.params).all(|(a, b)| a.ty == b.ty)
            };
            let bucket = minted.entry(h.finish()).or_default();
            let id = match bucket.iter().find(|(_, g)| same_params(g)) {
                Some(&(id, _)) => id,
                None => {
                    let id = SigId(distinct as u32);
                    distinct += 1;
                    bucket.push((id, f));
                    id
                }
            };
            ids.push(id);
        }
        Self { ids, distinct }
    }

    /// The interned signature of `fid`.
    pub fn sig_of(&self, fid: FuncId) -> SigId {
        self.ids[fid.0 as usize]
    }

    /// Number of distinct signatures interned.
    pub fn distinct(&self) -> usize {
        self.distinct
    }
}

/// Where a call result came from: the facts detection needs to classify a
/// dead store of a call result without rescanning the function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// Direct call to a named function.
    Direct(String),
    /// Indirect call through the given function-pointer temp; resolving it
    /// is a demand pointer query.
    Indirect(TempId),
}

/// Whether every self-offset store (`x = x + k`) to a key uses the same
/// delta — the fact the cursor prune's "uniform stride" heuristic needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelfDelta {
    /// All self-offset stores to the key share this delta.
    Uniform(i64),
    /// At least two distinct deltas were seen.
    Mixed,
}

/// One dead store, with the spans of the definitions that overwrite it.
#[derive(Clone, Debug)]
pub struct SummaryDead {
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
    /// Spans of the next definitions downstream that overwrite this store
    /// (§4.2's define set, queried at the dead store's program point);
    /// shared with the candidates detection derives from the store.
    pub overwriters: Arc<[Span]>,
}

/// The per-function summary: everything detect, `PeerStats`, and the prune
/// passes need, computed in one shot.
#[derive(Clone, Debug)]
pub struct FnSummary {
    /// Interned signature.
    pub sig: SigId,
    /// Dead stores in discovery order (blocks ascending, instructions
    /// descending within a block — the detector's traversal order).
    pub dead: Vec<SummaryDead>,
    /// Locals whose address is taken (stores to them are never dead).
    pub escaped: BTreeSet<LocalId>,
    /// Keys written by any store. Populated only when `dead` is non-empty:
    /// every consumer of the def/use/callee facts asks about a dead-store
    /// candidate, so dead-free functions skip the collection cost.
    pub defs: VarKeySet,
    /// Keys read by any load or address-of (same population rule as
    /// [`FnSummary::defs`]).
    pub uses: VarKeySet,
    /// Names called directly anywhere in the function (same population rule
    /// as [`FnSummary::defs`]).
    pub callees: BTreeSet<String>,
    /// Call-result temp → callee, for dead-store classification.
    /// Restricted to the value temps of dead stores — the only entries
    /// classification ever looks up (the temp-origin table remains the
    /// defensive fallback for anything else).
    pub call_dsts: HashMap<TempId, CallTarget>,
    /// Per-key self-offset delta uniformity, for the cursor prune.
    pub self_offsets: HashMap<VarKey, SelfDelta>,
    /// Whether the function contains any indirect call (the only case a
    /// pointer query can influence its report output).
    pub has_indirect_calls: bool,
    /// Whether a dataflow budget ran out while building; facts are partial
    /// and candidates derived from them are low-confidence.
    pub exhausted: bool,
}

/// The define-set analysis of §4.2, restricted to the dead stores' locals:
/// for each key of a tracked local, the spans of the next definitions
/// downstream. A store's transfer only clears and replaces keys of its own
/// base local, so restricting to the dead stores' locals loses nothing.
/// The transfers iterate pre-extracted per-block store lists — nothing but
/// a tracked store mutates the fact, so skipping every other instruction
/// changes no fact the walk reads.
struct DefsAnalysis<'a> {
    /// Per-block `(inst_idx, key, span)` of stores to tracked locals, in
    /// instruction order.
    stores: &'a [Vec<(u32, VarKey, Span)>],
}

type DefsFact = BTreeMap<VarKey, BTreeSet<Span>>;

/// A store to `key` at `span` becomes the (sole) next definition for
/// everything it overwrites.
fn defs_store_transfer(defs: &mut DefsFact, key: VarKey, span: Span) {
    if let VarKey::Local(l) = key {
        let stale: Vec<VarKey> = defs
            .range(VarKey::Field(l, 0)..=VarKey::Field(l, u32::MAX))
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            defs.remove(&k);
        }
    }
    defs.insert(key, BTreeSet::from([span]));
}

/// The overwriting definitions of `key` at a point: exact entry plus, for
/// field keys, whole-variable stores.
fn overwriters_of(defs: &DefsFact, key: VarKey) -> Arc<[Span]> {
    let mut out: BTreeSet<Span> = defs.get(&key).cloned().unwrap_or_default();
    if let VarKey::Field(l, _) = key {
        if let Some(extra) = defs.get(&VarKey::Local(l)) {
            out.extend(extra.iter().copied());
        }
    }
    // The empty list is a shared static, not an allocation.
    if out.is_empty() {
        Arc::default()
    } else {
        out.into_iter().collect()
    }
}

impl DataflowAnalysis for DefsAnalysis<'_> {
    type Fact = DefsFact;
    const DIRECTION: Direction = Direction::Backward;

    fn boundary_fact(&self, _f: &Function) -> DefsFact {
        DefsFact::default()
    }

    fn init_fact(&self, _f: &Function) -> DefsFact {
        DefsFact::default()
    }

    fn join(&self, into: &mut DefsFact, from: &DefsFact) {
        for (k, spans) in from {
            into.entry(*k).or_default().extend(spans.iter().copied());
        }
    }

    fn transfer_block(&self, _f: &Function, bb: BlockId, fact: &mut DefsFact) {
        for &(_, key, span) in self.stores[bb.0 as usize].iter().rev() {
            defs_store_transfer(fact, key, span);
        }
    }
}

/// Builds the summary of one function under a liveness [`Budget`].
///
/// Counted as `summary.built`. When the budget runs out mid-fixpoint the
/// summary is still produced from the partial facts, with
/// [`FnSummary::exhausted`] set.
pub fn build_summary(f: &Function, sig: SigId, budget: Budget) -> FnSummary {
    vc_obs::counter_inc(vc_obs::names::SUMMARY_BUILT);

    // Phase 0 — the only instruction scan. Everything is buffered into
    // flat vectors (keys, store locations, call sites borrowed from `f`):
    // no string is cloned and no def/use set is grown here. Every consumer
    // of those facts asks about a dead-store candidate, so their
    // materialization waits for the dead-triggered phase and the dead-free
    // function pays only the vector pushes.
    let mut self_offsets: HashMap<VarKey, SelfDelta> = HashMap::new();
    let mut escaped = BTreeSet::new();
    let mut has_indirect_calls = false;
    let mut use_keys: Vec<VarKey> = Vec::new();
    // `(block, inst_idx, key, span)` of every keyed store, in program order.
    let mut stores: Vec<(BlockId, u32, VarKey, Span)> = Vec::new();
    let mut calls: Vec<(Option<TempId>, &Callee)> = Vec::new();
    let mut store_counts = vec![0u32; f.locals.len()];
    let mut block_has_store = vec![false; f.blocks.len()];
    for (bid, bb) in f.iter_blocks() {
        for (ii, inst) in bb.insts.iter().enumerate() {
            match inst {
                Inst::Load { place, .. } => {
                    if let Some(key) = place.var_key() {
                        use_keys.push(key);
                    }
                }
                Inst::AddrOf { place, .. } => {
                    if let Some(key) = place.var_key() {
                        use_keys.push(key);
                        escaped.insert(key.local());
                    }
                }
                Inst::Store {
                    place, span, info, ..
                } => {
                    if let Some(key) = place.var_key() {
                        stores.push((bid, ii as u32, key, *span));
                        store_counts[key.local().0 as usize] += 1;
                        block_has_store[bid.0 as usize] = true;
                        if let StoreInfo::SelfOffset { delta } = info {
                            self_offsets
                                .entry(key)
                                .and_modify(|d| {
                                    if *d != SelfDelta::Uniform(*delta) {
                                        *d = SelfDelta::Mixed;
                                    }
                                })
                                .or_insert(SelfDelta::Uniform(*delta));
                        }
                    }
                }
                Inst::Call { dst, callee, .. } => {
                    if matches!(callee, Callee::Indirect(_)) {
                        has_indirect_calls = true;
                    }
                    calls.push((*dst, callee));
                }
                Inst::Bin { .. } | Inst::Un { .. } => {}
            }
        }
    }
    let mut keys = use_keys.clone();
    keys.extend(stores.iter().map(|&(_, _, k, _)| k));
    let idx = KeyIndex::from_keys(keys, f.locals.len());

    // Phase 1: dense liveness (bitwise facts over the key universe — the
    // same lattice as [`Liveness`], pinned equivalent by the oracle tests),
    // then the dead-store walk in the detector's discovery order (blocks
    // ascending, instructions descending), checking each store against the
    // live set *below* it before applying its kill.
    let cfg = Cfg::new(f);
    let live = solve_budgeted(f, &cfg, &DenseLiveness { idx: &idx }, budget);
    let mut exhausted = live.exhausted;
    let mut dead: Vec<SummaryDead> = Vec::new();
    for (bid, bb) in f.iter_blocks() {
        // A block without stores can yield no dead store; skip its walk.
        if !block_has_store[bid.0 as usize] {
            continue;
        }
        let mut fact = live.exit(bid).clone();
        for (ii, inst) in bb.insts.iter().enumerate().rev() {
            if let Inst::Store {
                place, span, info, ..
            } = inst
            {
                if let Some(key) = place.var_key() {
                    if !escaped.contains(&key.local()) && !fact.contains_covering(&idx, key) {
                        dead.push(SummaryDead {
                            block: bid,
                            inst_idx: ii,
                            key,
                            span: *span,
                            info: info.clone(),
                            overwriters: Arc::default(),
                        });
                    }
                }
            }
            transfer_inst_dense(&idx, inst, &mut fact);
        }
    }

    // Phase 2 (only when something is dead): the define-set fixpoint,
    // restricted to the dead stores' locals, then one walk per block that
    // holds a dead store to read each store's overwriters from the fact
    // below it.
    let mut callees = BTreeSet::new();
    let mut call_dsts = HashMap::new();
    let mut defs = VarKeySet::new();
    let mut uses = VarKeySet::new();
    if !dead.is_empty() {
        // Deferred fact materialization: the callee set, the call-result
        // map classification reads, and the def/use sets — only functions
        // with dead stores are ever asked about them, and the phase-0 scan
        // already buffered the raw entries. Sets bulk-build from the
        // buffers (`collect` sorts once) and strings clone only here.
        defs = stores.iter().map(|&(_, _, k, _)| k).collect();
        uses = use_keys.into_iter().collect();
        // Callee names dedup as borrowed strings before cloning once per
        // distinct name.
        let mut names: Vec<&str> = calls
            .iter()
            .filter_map(|(_, c)| match c {
                Callee::Direct(n) => Some(n.as_str()),
                Callee::Indirect(_) => None,
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        callees = names.into_iter().map(String::from).collect();
        // Classification only ever looks up the value temp of a dead
        // store, so the call-result map carries exactly those entries.
        let mut dead_value_temps: Vec<TempId> = dead
            .iter()
            .filter_map(|d| match f.block(d.block).insts.get(d.inst_idx) {
                Some(Inst::Store {
                    value: Operand::Temp(t),
                    ..
                }) => Some(*t),
                _ => None,
            })
            .collect();
        dead_value_temps.sort_unstable();
        dead_value_temps.dedup();
        for &(dst, callee) in &calls {
            if let Some(d) = dst {
                if dead_value_temps.binary_search(&d).is_ok() {
                    let target = match callee {
                        Callee::Direct(n) => CallTarget::Direct(n.clone()),
                        Callee::Indirect(t) => CallTarget::Indirect(*t),
                    };
                    call_dsts.insert(d, target);
                }
            }
        }

        let tracked: BTreeSet<LocalId> = dead.iter().map(|d| d.key.local()).collect();
        // A dead store's overwriters are later stores to the same local (a
        // field key is also overwritten by a whole-variable store, still the
        // same local). When every dead local has exactly one store in the
        // whole function — the dead store itself, the shape of every
        // synthetic ignored-retval store — the define-set fixpoint can only
        // produce empty overwriter lists, so skip it.
        let overwriters_possible = tracked.iter().any(|l| store_counts[l.0 as usize] > 1);
        if overwriters_possible {
            // Per-block lists of stores to tracked locals, filtered from
            // the phase-0 buffer: the define-set fixpoint transfers over
            // exactly these.
            let mut tracked_stores: Vec<Vec<(u32, VarKey, Span)>> =
                vec![Vec::new(); f.blocks.len()];
            for &(bid, ii, key, span) in &stores {
                if tracked.contains(&key.local()) {
                    tracked_stores[bid.0 as usize].push((ii, key, span));
                }
            }
            let analysis = DefsAnalysis {
                stores: &tracked_stores,
            };
            let facts = solve_budgeted(f, &cfg, &analysis, budget);
            exhausted |= facts.exhausted;
            let mut i = 0;
            while i < dead.len() {
                let bid = dead[i].block;
                let mut j = i;
                while j < dead.len() && dead[j].block == bid {
                    j += 1;
                }
                // Walk the block's tracked stores backward. Only stores
                // mutate the define fact, and every dead store of this
                // block is itself a tracked store, so the full-instruction
                // walk collapses to the store list without changing any
                // fact read.
                let mut fact = facts.exit(bid).clone();
                let mut di = i;
                for &(s_idx, key, span) in tracked_stores[bid.0 as usize].iter().rev() {
                    while di < j && dead[di].inst_idx == s_idx as usize {
                        dead[di].overwriters = overwriters_of(&fact, dead[di].key);
                        di += 1;
                    }
                    defs_store_transfer(&mut fact, key, span);
                }
                i = j;
            }
        }
    }

    FnSummary {
        sig,
        dead,
        escaped,
        defs,
        uses,
        callees,
        call_dsts,
        self_offsets,
        has_indirect_calls,
        exhausted,
    }
}

/// A store of per-function summaries for one scan.
///
/// Entries are shared [`Arc`]s: the detect stage and the serve daemon's
/// unit cache hand the same summary to the prune stage without copying it.
/// `get_or_build` hands out full-confidence summaries: a cached summary
/// built under an exhausted budget is rebuilt unbudgeted on first full
/// demand (the prune passes were never budget-limited), replacing the
/// partial entry.
#[derive(Debug, Default)]
pub struct Summaries {
    /// Indexed by `FuncId` (function ids are dense), `None` until built.
    map: Vec<Option<Arc<FnSummary>>>,
    held: usize,
}

impl Summaries {
    /// Inserts a summary computed elsewhere (the detect loop, a warm cache).
    pub fn insert(&mut self, fid: FuncId, summary: impl Into<Arc<FnSummary>>) {
        let i = fid.0 as usize;
        if i >= self.map.len() {
            self.map.resize_with(i + 1, || None);
        }
        if self.map[i].is_none() {
            self.held += 1;
        }
        self.map[i] = Some(summary.into());
    }

    /// The summary of `fid`, if present.
    pub fn get(&self, fid: FuncId) -> Option<&FnSummary> {
        self.shared(fid).map(|s| &**s)
    }

    /// The summary of `fid` as the shared handle it is held under, so a
    /// warm cache can keep it without copying.
    pub fn shared(&self, fid: FuncId) -> Option<&Arc<FnSummary>> {
        self.map.get(fid.0 as usize).and_then(Option::as_ref)
    }

    /// The full-confidence summary of `fid`, and whether it was reused:
    /// cached entries are reused, missing ones built unbudgeted — also
    /// when the cached entry is partial from budget exhaustion. The caller
    /// counts the reuses as `summary.reused`, once per pass.
    pub fn get_or_build(&mut self, f: &Function, fid: FuncId, sig: SigId) -> (&FnSummary, bool) {
        let reused = matches!(self.get(fid), Some(s) if !s.exhausted);
        if !reused {
            self.insert(fid, build_summary(f, sig, Budget::UNLIMITED));
        }
        (self.get(fid).expect("cached or just built"), reused)
    }

    /// Number of summaries held.
    pub fn len(&self) -> usize {
        self.held
    }

    /// Whether no summaries are held.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::dead_stores;
    use vc_ir::Program;

    fn prog(src: &str) -> Program {
        Program::build(&[("a.c", src)], &[]).unwrap()
    }

    fn summary(src: &str) -> (Program, FnSummary) {
        let p = prog(src);
        let interner = SigInterner::new(&p);
        let s = build_summary(&p.funcs[0], interner.sig_of(FuncId(0)), Budget::UNLIMITED);
        (p, s)
    }

    #[test]
    fn dead_list_matches_dead_stores_oracle() {
        let src = "int f(int n) {\n\
                   int x = 1;\n\
                   x = 2;\n\
                   int acc = 0;\n\
                   for (int i = 0; i < n; i = i + 1) { acc = acc + x; }\n\
                   return acc;\n\
                   }";
        let (p, s) = summary(src);
        let f = &p.funcs[0];
        let cfg = Cfg::new(f);
        let mut oracle: Vec<_> = dead_stores(f, &cfg)
            .into_iter()
            .map(|d| (d.block, d.inst_idx, d.key))
            .collect();
        oracle.sort();
        let mut got: Vec<_> = s
            .dead
            .iter()
            .map(|d| (d.block, d.inst_idx, d.key))
            .collect();
        got.sort();
        assert_eq!(got, oracle);
    }

    #[test]
    fn overwriters_collect_all_branch_definitions() {
        let (p, s) =
            summary("void f(int c) { int x = 1; if (c) { x = 2; } else { x = 3; } use(x); }");
        let f = &p.funcs[0];
        let dead: Vec<_> = s
            .dead
            .iter()
            .filter(|d| f.var_key_name(d.key) == "x")
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].overwriters.len(), 2, "{:?}", dead[0].overwriters);
    }

    #[test]
    fn field_dead_store_sees_whole_variable_overwriter() {
        let (p, s) = summary(
            "struct s { int a; int b; };\n\
             struct s mk(void);\n\
             void f(void) { struct s v; v.a = 1; v = mk(); use_s(v); }",
        );
        let f = &p.funcs[0];
        let fa = s
            .dead
            .iter()
            .find(|d| f.var_key_name(d.key) == "v#0")
            .expect("field dead store");
        assert_eq!(fa.overwriters.len(), 1);
    }

    #[test]
    fn scan_facts_cover_calls_and_self_offsets() {
        let (p, s) = summary(
            "void f(int n) {\n\
               int r = getv();\n\
               r = getw();\n\
               use(r);\n\
               n = n + 2;\n\
               n = n + 2;\n\
               use(n);\n\
             }",
        );
        let f = &p.funcs[0];
        assert!(s.callees.contains("getv") && s.callees.contains("getw"));
        assert!(!s.has_indirect_calls);
        let n = f.local_by_name("n").unwrap();
        assert_eq!(
            s.self_offsets.get(&VarKey::Local(n)),
            Some(&SelfDelta::Uniform(2))
        );
    }

    #[test]
    fn mixed_self_offset_deltas_are_flagged() {
        let (p, s) = summary("void f(int n) { n = n + 1; n = n + 2; use(n); }");
        let f = &p.funcs[0];
        let n = f.local_by_name("n").unwrap();
        assert_eq!(
            s.self_offsets.get(&VarKey::Local(n)),
            Some(&SelfDelta::Mixed)
        );
    }

    #[test]
    fn sig_interner_shares_ids_for_equal_signatures() {
        let p = prog(
            "int a(int x) { return x; }\n\
             int b(int y) { return y; }\n\
             int c(char *z) { return 0; }",
        );
        let i = SigInterner::new(&p);
        assert_eq!(i.sig_of(FuncId(0)), i.sig_of(FuncId(1)));
        assert_ne!(i.sig_of(FuncId(0)), i.sig_of(FuncId(2)));
        assert_eq!(i.distinct(), 2);
    }

    #[test]
    fn exhausted_summary_is_rebuilt_on_full_demand() {
        let p = prog("void f(int n) { int x = 1; x = 2; while (n) { n = n - 1; use(x); } }");
        let interner = SigInterner::new(&p);
        let sig = interner.sig_of(FuncId(0));
        let obs = vc_obs::ObsSession::new();
        let _g = obs.install();
        let partial = build_summary(&p.funcs[0], sig, Budget::steps(1));
        assert!(partial.exhausted);
        let mut store = Summaries::default();
        store.insert(FuncId(0), partial);
        let (full, reused) = store.get_or_build(&p.funcs[0], FuncId(0), sig);
        assert!(!full.exhausted);
        // Partial entry was rebuilt, not reused.
        assert!(!reused);
        assert_eq!(obs.registry.counter(vc_obs::names::SUMMARY_BUILT), 2);
        // A second full demand reuses.
        let (_, reused) = store.get_or_build(&p.funcs[0], FuncId(0), sig);
        assert!(reused);
        assert_eq!(obs.registry.counter(vc_obs::names::SUMMARY_BUILT), 2);
    }
}
