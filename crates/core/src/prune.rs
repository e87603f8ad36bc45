//! False-positive pruning — the four patterns of §5, applied as a pipeline
//! in the order of Fig. 2 / Table 4: configuration dependency → cursor →
//! unused hints → peer definitions. A candidate matching several patterns is
//! counted against the first one that fires, exactly as the paper's prune
//! accounting works ("some false positives may match multiple patterns but
//! are pruned by the earlier stage"). Its maps use the fixed-seed
//! [`vc_pointer::fasthash`] hashers, so a scan allocates the same way on
//! every run.

use vc_dataflow::summary::{
    SelfDelta,
    SigId,
    SigInterner,
    Summaries, //
};
use vc_ir::{
    ir::{
        Inst,
        StoreInfo, //
    },
    FileId,
    FuncId,
    Program,
    VarKey, //
};
use vc_pointer::fasthash::{
    FastMap,
    FastSet,
    MixMap,
    MixSet, //
};

use crate::{
    authorship::Attributed,
    candidate::{
        CallSites,
        Scenario, //
    },
};

/// Which pruner removed a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// §5.1 — a use exists under a preprocessor guard in the same function.
    ConfigDependency,
    /// §5.2 — the definition is a cursor (repeated constant self-increment).
    Cursor,
    /// §5.3 — the developer marked the definition as intentionally unused.
    UnusedHint,
    /// §5.4 — most peer definitions are also unused.
    PeerDefinition,
}

impl PruneReason {
    /// Stable snake-case label, used in metric names
    /// (`funnel.pruned.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            PruneReason::ConfigDependency => "config_dependency",
            PruneReason::Cursor => "cursor",
            PruneReason::UnusedHint => "unused_hint",
            PruneReason::PeerDefinition => "peer_definition",
        }
    }

    /// Every reason, in pipeline order.
    pub const ALL: [PruneReason; 4] = [
        PruneReason::ConfigDependency,
        PruneReason::Cursor,
        PruneReason::UnusedHint,
        PruneReason::PeerDefinition,
    ];
}

/// Pruning configuration; every pattern can be toggled for ablations.
#[derive(Clone, Copy, Debug)]
pub struct PruneConfig {
    /// Enable §5.1.
    pub config_dependency: bool,
    /// Enable §5.2.
    pub cursor: bool,
    /// Enable §5.3.
    pub unused_hints: bool,
    /// Enable §5.4.
    pub peer_definitions: bool,
    /// Peer pruning: minimum number of peer occurrences (the paper's
    /// "≥ 10 peer call sites"; the threshold itself counts).
    pub peer_min_occurrences: usize,
}

/// Peer pruning prunes when more than this fraction of the peers leave
/// their value unused (the paper's "over half").
const PEER_UNUSED_RATIO: f64 = 0.5;

impl Default for PruneConfig {
    fn default() -> Self {
        Self {
            config_dependency: true,
            cursor: true,
            unused_hints: true,
            peer_definitions: true,
            peer_min_occurrences: 10,
        }
    }
}

/// The outcome of the pruning pipeline.
#[derive(Clone, Debug, Default)]
pub struct PruneOutcome {
    /// Candidates that survived every pruner.
    pub kept: Vec<Attributed>,
    /// Pruned candidates with the (first) reason that fired.
    pub pruned: Vec<(Attributed, PruneReason)>,
}

impl PruneOutcome {
    /// Sorts `items` by their [`verdicts`], one per item, in order.
    pub fn from_verdicts(
        items: Vec<Attributed>,
        verdicts: Vec<Option<PruneReason>>,
    ) -> PruneOutcome {
        let mut out = PruneOutcome::default();
        for (item, verdict) in items.into_iter().zip(verdicts) {
            match verdict {
                Some(reason) => out.pruned.push((item, reason)),
                None => out.kept.push(item),
            }
        }
        out
    }

    /// Number pruned by a particular pattern.
    pub fn count(&self, reason: PruneReason) -> usize {
        self.pruned.iter().filter(|(_, r)| *r == reason).count()
    }

    /// Total number pruned.
    pub fn total_pruned(&self) -> usize {
        self.pruned.len()
    }
}

/// The cross-scope questions a candidate set can ask of the peer
/// statistics: which callees' retval-ignore rates matter, and which
/// (interned) signatures' parameter-unuse rates matter. Redundant-summary
/// elimination drops every function that can answer neither question
/// before its summary is ever built.
#[derive(Clone, Debug, Default)]
pub struct PeerScope<'a> {
    /// Callees some candidate's RetVal scenario names.
    pub callees: MixSet<&'a str>,
    /// Signatures some candidate's Param scenario belongs to.
    pub sigs: FastSet<SigId>,
}

impl<'a> PeerScope<'a> {
    /// The scope induced by a candidate set: the only peer questions the
    /// prune stage will ever ask about these items.
    pub fn from_items(interner: &SigInterner, items: &'a [Attributed]) -> PeerScope<'a> {
        let mut scope = PeerScope::default();
        for item in items {
            match &item.candidate.scenario {
                Scenario::RetVal { callees } => {
                    scope.callees.extend(callees.iter().map(String::as_str));
                }
                Scenario::Param { .. } => {
                    scope.sigs.insert(interner.sig_of(item.candidate.func));
                }
                Scenario::Overwritten => {}
            }
        }
        scope
    }
}

/// Program-wide usage statistics backing peer-definition pruning:
/// per callee, how many call sites exist and how many ignore the result;
/// per function signature and parameter index, how many functions leave the
/// parameter unused. Callee names are borrowed from the program.
#[derive(Clone, Debug, Default)]
pub struct PeerStats<'p> {
    /// callee name → (call sites, sites whose result is unused).
    pub retval: MixMap<&'p str, (usize, usize)>,
    /// (interned signature, param index) → (functions with that signature,
    /// functions whose parameter at the index is unused).
    pub params: FastMap<(SigId, usize), (usize, usize)>,
    /// The signature interner the `params` keys were minted from.
    sigs: SigInterner,
}

impl<'p> PeerStats<'p> {
    /// Computes peer statistics for a program, building summaries as
    /// needed into a throwaway store. Pipeline callers use
    /// [`PeerStats::compute_with`] to share the detect stage's summaries
    /// and scope the work to the surviving candidates.
    pub fn compute(prog: &'p Program) -> PeerStats<'p> {
        let mut summaries = Summaries::default();
        let sites = CallSites::all(prog);
        Self::compute_with(prog, SigInterner::new(prog), &mut summaries, None, &sites)
    }

    /// Computes peer statistics from shared per-function summaries.
    ///
    /// A call site's return value counts as unused when the store of the
    /// result (explicit or synthetic) is a dead store; call sites whose
    /// result feeds an expression directly have no such store and count as
    /// used. A parameter counts as unused when its entry definition is dead.
    ///
    /// With a [`PeerScope`], redundant-summary elimination applies: a
    /// function that neither calls a scoped callee nor shares a scoped
    /// signature cannot contribute to any peer question the candidate set
    /// will ask, so its summary is skipped entirely (counted as
    /// `summary.eliminated`). Cached summaries are reused (counted as
    /// `summary.reused`); missing ones are built on demand.
    ///
    /// Call-site counts come from `call_sites`: [`CallSites::asked`] of
    /// the candidates the scope was drawn from, or [`CallSites::all`] when
    /// there is no scope (both checked in debug builds).
    pub fn compute_with(
        prog: &'p Program,
        sigs: SigInterner,
        summaries: &mut Summaries,
        scope: Option<&PeerScope<'p>>,
        call_sites: &CallSites<'p>,
    ) -> PeerStats<'p> {
        let mut stats = PeerStats {
            retval: MixMap::default(),
            params: FastMap::default(),
            sigs,
        };
        // Count call sites per callee and, when scoped, collect the callers
        // whose summaries can still contribute retval-unused counts.
        let mut relevant_callers: FastSet<FuncId> = FastSet::default();
        match scope {
            Some(scope) => {
                for &callee in &scope.callees {
                    let sites = call_sites.of(callee);
                    if !sites.is_empty() {
                        relevant_callers.extend(sites.iter().map(|s| s.caller));
                        stats.retval.insert(callee, (sites.len(), 0));
                    }
                }
            }
            None => {
                debug_assert!(
                    call_sites.is_complete(),
                    "unscoped peer counts need every call site"
                );
                for (callee, sites) in call_sites.collected() {
                    stats.retval.insert(callee, (sites.len(), 0));
                }
            }
        }
        let (mut eliminated, mut reused) = (0u64, 0u64);
        for (fi, f) in prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let sig = stats.sigs.sig_of(fid);
            let (sig_relevant, calls_relevant) = match scope {
                None => (true, true),
                Some(s) => (s.sigs.contains(&sig), relevant_callers.contains(&fid)),
            };
            if !sig_relevant && !calls_relevant {
                // Redundant-summary elimination: no peer question this
                // candidate set asks can reach this function.
                eliminated += 1;
                continue;
            }
            let (summary, hit) = summaries.get_or_build(f, fid, sig);
            reused += hit as u64;
            // Dead retval stores. Every such store's callee is called
            // directly in this function, so a scoped callee has its entry.
            if calls_relevant {
                for d in &summary.dead {
                    if let StoreInfo::RetVal { callee, .. } = &d.info {
                        if let Some(counts) = stats.retval.get_mut(callee.as_str()) {
                            counts.1 += 1;
                        }
                    }
                }
            }
            // Parameter usage per signature.
            if sig_relevant {
                for (i, p) in f.params.iter().enumerate() {
                    let entry = stats.params.entry((sig, i)).or_default();
                    entry.0 += 1;
                    let param_dead = summary.dead.iter().any(|d| {
                        d.key == VarKey::Local(p.local)
                            && matches!(d.info, StoreInfo::ParamInit { .. })
                    });
                    if param_dead {
                        entry.1 += 1;
                    }
                }
            }
        }
        crate::counters_add(&[
            (vc_obs::names::SUMMARY_ELIMINATED, eliminated),
            (vc_obs::names::SUMMARY_REUSED, reused),
        ]);
        stats
    }

    /// The interned signature of `fid` under the interner these stats were
    /// built with.
    pub fn sig_of(&self, fid: FuncId) -> SigId {
        self.sigs.sig_of(fid)
    }
}

/// Runs the pruning pipeline over attributed candidates, consulting the
/// shared per-function summaries (cursor facts) and a per-file line index
/// built lazily, once per file (unused hints).
pub fn prune(
    prog: &Program,
    config: &PruneConfig,
    peers: &PeerStats,
    summaries: &Summaries,
    items: Vec<Attributed>,
) -> PruneOutcome {
    let verdicts = verdicts(prog, config, peers, summaries, &items);
    PruneOutcome::from_verdicts(items, verdicts)
}

/// The pruning pipeline's verdict on each item, in order: the first
/// reason that fires, or `None` to keep it. Borrows the items, so a caller
/// that isolates the stage keeps them all when it fails.
pub fn verdicts(
    prog: &Program,
    config: &PruneConfig,
    peers: &PeerStats,
    summaries: &Summaries,
    items: &[Attributed],
) -> Vec<Option<PruneReason>> {
    let mut lines: FastMap<FileId, Vec<&str>> = FastMap::default();
    items
        .iter()
        .map(|item| prune_one(prog, config, peers, summaries, &mut lines, item))
        .collect()
}

/// Applies the pipeline to one candidate; returns the first reason that
/// fires, or `None` to keep it.
fn prune_one<'p>(
    prog: &'p Program,
    config: &PruneConfig,
    peers: &PeerStats,
    summaries: &Summaries,
    lines: &mut FastMap<FileId, Vec<&'p str>>,
    item: &Attributed,
) -> Option<PruneReason> {
    let cand = &item.candidate;
    let f = prog.func(cand.func);

    // §5.1 Configuration dependency: a use of this variable appears under a
    // preprocessor directive in the same function (possibly compiled out).
    if config.config_dependency {
        let base_name = cand.var_name.split('#').next().unwrap_or(&cand.var_name);
        if f.guarded_mentions.contains(base_name) {
            return Some(PruneReason::ConfigDependency);
        }
    }

    // §5.2 Cursor: the definition is a constant self-offset and every
    // self-offset of this variable in the function uses the same constant.
    // The summary's per-key delta map answers this without rescanning the
    // instruction stream per candidate.
    if config.cursor {
        if let StoreInfo::SelfOffset { delta } = cand.info {
            let uniform = match summaries.get(cand.func) {
                Some(s) => matches!(s.self_offsets.get(&cand.key), Some(SelfDelta::Uniform(_))),
                // Defensive fallback when no summary reached the prune
                // stage for this function: the original inline scan.
                None => !f.blocks.iter().any(|bb| {
                    bb.insts.iter().any(|inst| {
                        matches!(
                            inst,
                            Inst::Store {
                                place,
                                info: StoreInfo::SelfOffset { delta: d },
                                ..
                            } if place.var_key() == Some(cand.key) && *d != delta
                        )
                    })
                }),
            };
            if uniform {
                return Some(PruneReason::Cursor);
            }
        }
    }

    // §5.3 Unused hints: attributes, or the keyword `unused` on the
    // definition's source line. Synthetic spans carry no real source line
    // (`line() == 0`) and must not be matched against any text.
    if config.unused_hints {
        if cand.unused_attr {
            return Some(PruneReason::UnusedHint);
        }
        let line_no = cand.span.line() as usize;
        if line_no > 0 {
            if let Some(file) = prog.source.file(cand.span.file) {
                let index = lines
                    .entry(cand.span.file)
                    .or_insert_with(|| file.content.lines().collect());
                if let Some(line) = index.get(line_no - 1) {
                    let hint = |w: &[u8]| w.eq_ignore_ascii_case(b"unused");
                    if line.as_bytes().windows(6).any(hint) {
                        return Some(PruneReason::UnusedHint);
                    }
                }
            }
        }
    }

    // §5.4 Peer definitions: if most peers are also unused, developers
    // evidently do not care about this value.
    if config.peer_definitions {
        match &cand.scenario {
            Scenario::RetVal { callees } => {
                for callee in callees.iter() {
                    if let Some((total, unused)) = peers.retval.get(callee.as_str()) {
                        if *total >= config.peer_min_occurrences
                            && (*unused as f64) > (*total as f64) * PEER_UNUSED_RATIO
                        {
                            return Some(PruneReason::PeerDefinition);
                        }
                    }
                }
            }
            Scenario::Param { index } => {
                let sig = peers.sig_of(cand.func);
                if let Some((total, unused)) = peers.params.get(&(sig, *index)) {
                    if *total >= config.peer_min_occurrences
                        && (*unused as f64) > (*total as f64) * PEER_UNUSED_RATIO
                    {
                        return Some(PruneReason::PeerDefinition);
                    }
                }
            }
            Scenario::Overwritten => {}
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        authorship::AuthorshipCtx,
        detect::{
            detect_program_hardened,
            DetectConfig, //
        },
        harden::HardenConfig,
    };
    use vc_vcs::{
        FileWrite,
        Repository, //
    };

    fn run_prune(src: &str) -> (PruneOutcome, Program) {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        let mut repo = Repository::new();
        let a = repo.add_author("solo");
        repo.commit(
            a,
            1,
            "init",
            vec![FileWrite {
                path: "a.c".into(),
                content: src.into(),
            }],
        );
        let out = detect_program_hardened(&prog, DetectConfig::default(), HardenConfig::default());
        let sites = CallSites::all(&prog);
        let attributed = AuthorshipCtx::new(&prog, &repo, &sites).attribute_all(out.candidates);
        let mut summaries = out.summaries;
        let peers = PeerStats::compute_with(&prog, out.sigs, &mut summaries, None, &sites);
        let outcome = prune(
            &prog,
            &PruneConfig::default(),
            &peers,
            &summaries,
            attributed,
        );
        (outcome, prog)
    }

    /// The functions of the kept items, as reports name them.
    fn kept<'p>(prog: &'p Program, out: &PruneOutcome) -> Vec<&'p str> {
        let funcs = out.kept.iter().map(|k| prog.func(k.candidate.func));
        funcs.map(|f| f.name.as_str()).collect()
    }

    /// The functions of the pruned items with their reasons.
    fn pruned<'p>(prog: &'p Program, out: &PruneOutcome) -> Vec<(&'p str, PruneReason)> {
        let funcs = out
            .pruned
            .iter()
            .map(|(a, r)| (prog.func(a.candidate.func), *r));
        funcs.map(|(f, r)| (f.name.as_str(), r)).collect()
    }

    #[test]
    fn config_dependency_prunes_guarded_use() {
        let src = "void f(void) {\nint host = 1;\n#ifdef USE_ICMP\nlookup(host);\n#endif\n}\n";
        let (out, _) = run_prune(src);
        assert_eq!(out.count(PruneReason::ConfigDependency), 1);
        assert!(out.kept.iter().all(|k| &*k.candidate.var_name != "host"));
    }

    #[test]
    fn cursor_increment_is_pruned() {
        // The final `o++` writes a value never read: a cursor, not a bug.
        let src = "void f(char *o, int n) {\nfor (int i = 0; i < n; i = i + 1) {\n*o++ = '_';\n}\n*o++ = '\\0';\n}\n";
        let (out, _) = run_prune(src);
        assert!(out.count(PruneReason::Cursor) >= 1, "{:?}", out.pruned);
    }

    #[test]
    fn unused_attr_is_pruned_as_hint() {
        let src = "int f(int force [[maybe_unused]]) {\nreturn 0;\n}\n";
        let (out, _) = run_prune(src);
        assert_eq!(out.count(PruneReason::UnusedHint), 1);
    }

    #[test]
    fn unused_keyword_on_line_is_pruned_as_hint() {
        let src = "void f(void) {\nint x_unused = compute();\nx_unused = 0;\nuse(x_unused);\n}\nint compute(void);\n";
        let (out, _) = run_prune(src);
        assert!(out.count(PruneReason::UnusedHint) >= 1, "{:?}", out.pruned);
    }

    #[test]
    fn peer_definition_prunes_commonly_ignored_retval() {
        // 12 call sites ignore log_msg's result; one assigns it but never
        // reads it. All are peers; the unused fraction is > 50%.
        let mut src = String::from("int log_msg(char *m);\n");
        for i in 0..12 {
            src.push_str(&format!("void f{i}(void) {{\nlog_msg(\"x\");\n}}\n"));
        }
        src.push_str("void g(void) {\nint r = log_msg(\"y\");\nr = 0;\nuse(r);\n}\n");
        let (out, prog) = run_prune(&src);
        assert!(
            out.count(PruneReason::PeerDefinition) >= 12,
            "pruned: {:?}",
            out.pruned
                .iter()
                .map(|(a, r)| (a.candidate.var_name.to_string(), *r))
                .collect::<Vec<_>>()
        );
        assert!(!kept(&prog, &out).contains(&"g"));
    }

    #[test]
    fn rarely_ignored_retval_survives_peer_pruning() {
        // Only 3 call sites: below the "≥ 10 occurrences" threshold.
        let mut src = String::from("int read_cfg(void);\n");
        src.push_str("void a(void) {\nint x = read_cfg();\nuse(x);\n}\n");
        src.push_str("void b(void) {\nint y = read_cfg();\nuse(y);\n}\n");
        src.push_str("void g(void) {\nint r = read_cfg();\nr = 0;\nuse(r);\n}\n");
        let (out, prog) = run_prune(&src);
        assert_eq!(out.count(PruneReason::PeerDefinition), 0);
        assert!(kept(&prog, &out).contains(&"g"));
    }

    #[test]
    fn peer_pruning_fires_at_exactly_ten_retval_sites() {
        // 9 call sites ignore the result + 1 assigns-but-never-reads:
        // exactly 10 occurrences, all unused. The paper's "≥ 10 peer call
        // sites" threshold is inclusive, so pruning must fire here.
        let mut src = String::from("int log_ev(char *m);\n");
        for i in 0..9 {
            src.push_str(&format!("void f{i}(void) {{\nlog_ev(\"x\");\n}}\n"));
        }
        src.push_str("void g(void) {\nint r = log_ev(\"y\");\nr = 0;\nuse(r);\n}\n");
        let (out, prog) = run_prune(&src);
        assert!(
            out.count(PruneReason::PeerDefinition) >= 1,
            "threshold is inclusive; pruned: {:?}",
            out.pruned
                .iter()
                .map(|(a, r)| (a.candidate.var_name.to_string(), *r))
                .collect::<Vec<_>>()
        );
        assert!(!kept(&prog, &out).contains(&"g"));
    }

    #[test]
    fn peer_pruning_stays_quiet_at_nine_retval_sites() {
        // One fewer site than the boundary: the candidate must survive.
        let mut src = String::from("int log_ev(char *m);\n");
        for i in 0..8 {
            src.push_str(&format!("void f{i}(void) {{\nlog_ev(\"x\");\n}}\n"));
        }
        src.push_str("void g(void) {\nint r = log_ev(\"y\");\nr = 0;\nuse(r);\n}\n");
        let (out, prog) = run_prune(&src);
        assert!(kept(&prog, &out).contains(&"g"));
    }

    #[test]
    fn peer_pruning_fires_at_exactly_ten_param_peers() {
        // 9 functions with signature (int) never touch the parameter + 1
        // overwrites it before any read: 10 peers, all with a dead entry
        // definition, so the boundary fires for the param scenario too.
        let mut src = String::new();
        for i in 0..9 {
            src.push_str(&format!("void p{i}(int v) {{\n}}\n"));
        }
        src.push_str("void q(int v) {\nv = 5;\nuse(v);\n}\n");
        let (out, prog) = run_prune(&src);
        assert!(
            pruned(&prog, &out).contains(&("q", PruneReason::PeerDefinition)),
            "pruned: {:?}",
            pruned(&prog, &out)
        );
    }

    #[test]
    fn peer_pruning_stays_quiet_at_nine_param_peers() {
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("void p{i}(int v) {{\n}}\n"));
        }
        src.push_str("void q(int v) {\nv = 5;\nuse(v);\n}\n");
        let (out, prog) = run_prune(&src);
        assert!(
            kept(&prog, &out).contains(&"q"),
            "below the boundary the finding survives; pruned: {:?}",
            pruned(&prog, &out)
        );
    }

    #[test]
    fn line_zero_span_is_never_matched_against_line_one() {
        // Regression: a span with no real source line (`line() == 0`) used
        // to saturate to line 1 via `saturating_sub`-style arithmetic and
        // get matched against the file's first line — falsely pruning
        // whenever line 1 happened to contain "unused".
        let src = "int unused_helper(void);\nvoid f(void) {\nint a = 1;\nuse(a);\n}\n";
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        let item = Attributed {
            candidate: crate::candidate::Candidate {
                func: FuncId(0),
                key: VarKey::Local(vc_ir::ir::LocalId(0)),
                var_name: "a".into(),
                span: vc_ir::Span::point(FileId(0), 0, 0),
                scenario: Scenario::Overwritten,
                overwriters: Default::default(),
                info: StoreInfo::Normal,
                synthetic: false,
                unused_attr: false,
                low_confidence: false,
            },
            def_author: None,
            counterpart_authors: Vec::new(),
            cross_scope: true,
            authorship_unknown: false,
        };
        let summaries = Summaries::default();
        let peers = PeerStats::compute(&prog);
        let out = prune(
            &prog,
            &PruneConfig::default(),
            &peers,
            &summaries,
            vec![item],
        );
        assert_eq!(
            out.count(PruneReason::UnusedHint),
            0,
            "a line-0 span must not match line 1's text: {:?}",
            out.pruned
        );
        assert_eq!(out.kept.len(), 1);
    }

    #[test]
    fn pipeline_counts_first_matching_stage() {
        // Guarded use AND unused keyword: config dependency fires first.
        let src =
            "void f(void) {\nint flag_unused = 1;\n#ifdef DBG\ncheck(flag_unused);\n#endif\n}\n";
        let (out, _) = run_prune(src);
        assert_eq!(out.count(PruneReason::ConfigDependency), 1);
        assert_eq!(out.count(PruneReason::UnusedHint), 0);
    }

    #[test]
    fn clean_bug_candidate_is_kept() {
        let src = "int get_permset(void);\nint calc_mask(void);\nvoid f(void) {\nint ret = get_permset();\nret = calc_mask();\nif (ret) { handle(); }\n}\n";
        let (out, _) = run_prune(src);
        assert_eq!(out.total_pruned(), 0, "{:?}", out.pruned);
        assert_eq!(out.kept.len(), 1);
    }
}
