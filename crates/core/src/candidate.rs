//! Unused-definition candidates and their scenario classification.

use std::{
    hash::BuildHasher,
    ops::Range,
    sync::Arc, //
};

use vc_ir::{
    program::CallSite,
    FuncId,
    Program,
    Span,
    StoreInfo,
    VarKey, //
};
use vc_pointer::fasthash::MixMap;

/// Which of the paper's three cross-scope scenarios (§3.1) a candidate
/// belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Scenario 1: an ignored or unused return value. `callees` lists the
    /// possible called functions (one for direct calls; the points-to set
    /// for calls through function pointers). Shared, so a cached
    /// candidate's copy costs a reference-count bump.
    RetVal {
        /// Possible callees.
        callees: Arc<[String]>,
    },
    /// Scenario 2: a function argument whose incoming value is overwritten
    /// or ignored inside the function.
    Param {
        /// Zero-based parameter index.
        index: usize,
    },
    /// Scenario 3: an ordinary definition overwritten by later definitions
    /// on all successor paths (or never read before the function returns).
    Overwritten,
}

impl Scenario {
    /// The scenario's name in reports and fingerprints.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::RetVal { .. } => "retval",
            Scenario::Param { .. } => "param",
            Scenario::Overwritten => "overwritten",
        }
    }
}

/// One unused definition found by the detector, before authorship filtering
/// and pruning. Its names and span lists are shared, so a copy (a warm
/// serve hit rebinding its cached candidates) bumps reference counts; only
/// the callee name in a return-value store's `info` is copied.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The containing function; reports name it as `prog.func(func).name`.
    pub func: FuncId,
    /// The defined variable (or field).
    pub key: VarKey,
    /// Human-readable variable name (`buf`, `sctx#2`, `$ret_printf_12`).
    pub var_name: Arc<str>,
    /// Span of the defining store.
    pub span: Span,
    /// Scenario classification.
    pub scenario: Scenario,
    /// Spans of the definitions that overwrite this one downstream
    /// (the define-set of Fig. 3/4 at this point). Empty when the value is
    /// simply never read before the function returns.
    pub overwriters: Arc<[Span]>,
    /// Provenance of the stored value (cursor detection, synthetic slots).
    pub info: StoreInfo,
    /// Whether the destination is a compiler-synthesized slot (a call whose
    /// result the source ignores entirely).
    pub synthetic: bool,
    /// Whether the destination variable carries an `unused` attribute.
    pub unused_attr: bool,
    /// Whether the liveness facts backing this candidate were cut short by
    /// a budget (the degradation ladder keeps the candidate but flags it
    /// instead of dropping it).
    pub low_confidence: bool,
}

/// Direct call sites by callee name, each callee's sites in caller order,
/// collected in one walk over the program's calls; the names are borrowed
/// from the program.
#[derive(Debug, Default)]
pub struct CallSites<'p> {
    /// Callee name → the range of its sites in `sites`.
    by_callee: MixMap<&'p str, Range<u32>>,
    /// Every collected site, grouped by callee.
    sites: Vec<CallSite>,
    /// Hashes of the names the walk was asked about, sorted (kept by debug
    /// builds, which check [`CallSites::of`] against them); `None` when it
    /// collected every callee.
    asked: Option<Vec<u64>>,
}

impl<'p> CallSites<'p> {
    /// The call sites a candidate set asks about: those of every callee a
    /// return-value scenario names (the peer counts of the prune stage) and
    /// of every function a parameter scenario is about (authorship's
    /// call-site authors).
    pub fn asked(prog: &'p Program, cands: &[Candidate]) -> CallSites<'p> {
        let mut slots: MixMap<&str, u32> =
            MixMap::with_capacity_and_hasher(cands.len(), Default::default());
        let mut ask = |name| {
            let next = slots.len() as u32;
            slots.entry(name).or_insert(next);
        };
        for c in cands {
            match &c.scenario {
                Scenario::RetVal { callees } => callees.iter().for_each(|name| ask(name)),
                Scenario::Param { .. } => ask(&prog.func(c.func).name),
                Scenario::Overwritten => {}
            }
        }
        // Only debug builds check lookups against the names asked about.
        let mut asked: Vec<u64> = Vec::new();
        if cfg!(debug_assertions) {
            asked.extend(slots.keys().map(|name| slots.hasher().hash_one(name)));
            asked.sort_unstable();
        }
        CallSites {
            asked: Some(asked),
            ..Self::collect(prog, slots.len(), |callee| slots.get(callee).copied())
        }
    }

    /// The call sites of every directly called function.
    pub fn all(prog: &'p Program) -> CallSites<'p> {
        let mut slots: MixMap<&str, u32> = MixMap::default();
        Self::collect(prog, 0, |callee| {
            let next = slots.len() as u32;
            Some(*slots.entry(callee).or_insert(next))
        })
    }

    /// One walk over the direct calls, keeping each call whose callee
    /// `slot_of` numbers; a stable sort then groups the kept sites by
    /// callee without reordering any callee's sites.
    fn collect(
        prog: &'p Program,
        slots: usize,
        mut slot_of: impl FnMut(&'p str) -> Option<u32>,
    ) -> CallSites<'p> {
        let mut kept: Vec<(u32, &'p str, CallSite)> = Vec::new();
        for (callee, site) in prog.direct_calls() {
            if let Some(slot) = slot_of(callee) {
                kept.push((slot, callee, site));
            }
        }
        kept.sort_by_key(|&(slot, ..)| slot);
        let mut by_callee = MixMap::with_capacity_and_hasher(slots, Default::default());
        let mut sites = Vec::with_capacity(kept.len());
        for group in kept.chunk_by(|a, b| a.0 == b.0) {
            let start = sites.len() as u32;
            sites.extend(group.iter().map(|(.., site)| site.clone()));
            by_callee.insert(group[0].1, start..sites.len() as u32);
        }
        CallSites {
            by_callee,
            sites,
            asked: None,
        }
    }

    /// The direct call sites of `callee`, in caller order; empty when
    /// nothing calls it directly. The walk must have been asked about
    /// `callee` (checked in debug builds).
    pub fn of(&self, callee: &str) -> &[CallSite] {
        debug_assert!(
            self.asked.as_ref().is_none_or(|asked| {
                asked
                    .binary_search(&self.by_callee.hasher().hash_one(callee))
                    .is_ok()
            }),
            "call sites of `{callee}` were not asked for"
        );
        match self.by_callee.get(callee) {
            Some(range) => &self.sites[range.start as usize..range.end as usize],
            None => &[],
        }
    }

    /// Every collected callee with its sites, in no particular order.
    pub fn collected(&self) -> impl Iterator<Item = (&'p str, &[CallSite])> + '_ {
        self.by_callee.iter().map(|(&callee, range)| {
            (
                callee,
                &self.sites[range.start as usize..range.end as usize],
            )
        })
    }

    /// Whether the walk kept the sites of every directly called name.
    pub fn is_complete(&self) -> bool {
        self.asked.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{
        detect_program,
        DetectConfig, //
    };

    const SRC: &str = "int g(void) { return 1; }\n\
                       int h(int x) { x = 2; return x; }\n\
                       void f(void) { g(); int a = h(1); use(a); }\n\
                       void k(void) { g(); use(h(2)); }";

    #[test]
    fn asked_sites_group_by_callee_in_caller_order() {
        let prog = Program::build(&[("a.c", SRC)], &[]).unwrap();
        let cands = detect_program(&prog, DetectConfig::default());
        let sites = CallSites::asked(&prog, &cands);
        let callers = |name| -> Vec<&str> {
            let of = sites.of(name).iter();
            of.map(|s| prog.func(s.caller).name.as_str()).collect()
        };
        // `g`'s ignored results and `h`'s overwritten parameter are asked.
        assert_eq!(callers("g"), ["f", "k"]);
        assert_eq!(callers("h"), ["f", "k"]);
        let all = CallSites::all(&prog);
        assert_eq!(all.of("use").len(), 2);
        assert!(all.is_complete() && !sites.is_complete());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "were not asked for")]
    fn a_name_not_asked_about_is_caught() {
        let prog = Program::build(&[("a.c", SRC)], &[]).unwrap();
        CallSites::asked(&prog, &[]).of("g");
    }
}
