//! Cross-scope unused-definition detection — the algorithm of Fig. 4.
//!
//! The detector consumes the per-function [`FnSummary`] (dead stores with
//! their §4.2 overwriter spans, escape set, call-result map) computed once
//! by `vc_dataflow::summary` and shared with the prune stage, instead of
//! re-solving liveness per consumer. Candidates are the summary's dead
//! stores, classified into the paper's scenarios.
//!
//! Exclusions mirror the paper: address-taken locals (the value may be read
//! through a pointer) are never candidates. The precise aliased-read set of
//! the pointer analysis is a subset of the address-taken set (local objects
//! only enter points-to sets through `&x`), so the escape check subsumes
//! the alias query and no eager whole-program pointer solve is needed.
//! Pointer facts are consulted on demand — per candidate, per
//! pointer-closed component — only to resolve indirect-call callees
//! ([`vc_pointer::demand::DemandPointer`]).

use std::sync::Arc;

use vc_dataflow::summary::{
    build_summary,
    CallTarget,
    FnSummary,
    SigId,
    SigInterner,
    Summaries, //
};
use vc_ir::{
    ir::{
        Inst,
        LocalKind,
        Operand,
        StoreInfo,
        TempOrigin, //
    },
    FuncId,
    Function,
    Program, //
};
use vc_obs::Budget;
use vc_pointer::demand::DemandPointer;

use crate::{
    candidate::{
        Candidate,
        Scenario, //
    },
    harden::{
        self,
        FailStage,
        FailureRecord,
        HardenConfig, //
    },
    sentinel::{
        detect_program_sentinel,
        SentinelConfig, //
    },
};

/// Detector configuration.
#[derive(Clone, Copy, Debug)]
pub struct DetectConfig {
    /// Run the pointer analysis and drop aliased-read candidates (§4.1,
    /// "Pointer and Alias"). Disabling this is the alias-ablation mode.
    pub use_alias_analysis: bool,
    /// Field-sensitive pointer analysis (ablation knob; detection liveness
    /// is always field-sensitive, matching the paper).
    pub field_sensitive_pointers: bool,
}

impl Default for DetectConfig {
    fn default() -> Self {
        Self {
            use_alias_analysis: true,
            field_sensitive_pointers: true,
        }
    }
}

/// One detection unit: build the function's summary under the liveness
/// [`Budget`], then derive its candidates. When the fixpoint is cut short
/// the candidates are still produced — from the partial facts — but marked
/// [`Candidate::low_confidence`] (the degradation ladder's "keep, don't
/// drop" tier).
fn detect_unit(
    prog: &Program,
    fid: FuncId,
    sig: SigId,
    oracle: Option<&DemandPointer>,
    budget: Budget,
) -> (FnSummary, Vec<Candidate>) {
    let f = prog.func(fid);
    let summary = build_summary(f, sig, budget);
    let cands = detect_from_summary(f, fid, &summary, oracle);
    (summary, cands)
}

/// The one detection unit runner, called only from the
/// [`sentinel`](crate::sentinel) executor's worker loop. Sequential
/// detection, serve's unit-cache misses and incremental mode's changed
/// files all run their units there.
///
/// The `unit.<name>` span (on Chrome-trace lane `tid` of the installed
/// session) and the worker allocation scope open *inside* the
/// [`harden::isolated`] boundary: a panicking unit unwinds through their
/// drop glue, so the span still flushes (tagged `panicked`) and the
/// allocation window still closes. Then the `detect` failpoint fires and
/// the unit runs under the liveness budget. `Err` carries the panic
/// message; with isolation off the panic propagates.
pub(crate) fn run_unit(
    prog: &Program,
    fid: FuncId,
    oracle: Option<&DemandPointer>,
    interner: &SigInterner,
    hconf: HardenConfig,
    tid: u32,
) -> Result<(FnSummary, Vec<Candidate>), String> {
    let f = prog.func(fid);
    harden::isolated(hconf.isolate, || {
        let _unit_span = match vc_obs::ObsSession::current() {
            Some(obs) => obs
                .tracer
                .span_on(&["unit.", &f.name].concat(), "detect", tid),
            None => vc_obs::Span::disabled(),
        };
        let _unit_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_WORKER);
        harden::failpoint(FailStage::Detect, &f.name);
        detect_unit(
            prog,
            fid,
            interner.sig_of(fid),
            oracle,
            hconf.liveness_budget,
        )
    })
}

/// Derives candidates from an already-built summary: each dead store
/// becomes one candidate, classified into the paper's scenarios. The
/// summary's dead list is in the detector's historical discovery order
/// (blocks ascending, instructions descending), so the final sort produces
/// byte-identical reports.
fn detect_from_summary(
    f: &Function,
    fid: FuncId,
    summary: &FnSummary,
    oracle: Option<&DemandPointer>,
) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(summary.dead.len());
    for d in &summary.dead {
        // Fetch the store's value operand for classification; a summary is
        // always content-matched to `f`, so the lookup cannot miss (guarded
        // defensively anyway).
        let Some(Inst::Store { value, .. }) = f.block(d.block).insts.get(d.inst_idx) else {
            continue;
        };
        let local = f.local(d.key.local());
        let scenario = classify(f, fid, summary, oracle, value, &d.info);
        out.push(Candidate {
            func: fid,
            func_name: f.name.clone(),
            key: d.key,
            var_name: f.var_key_name(d.key),
            span: d.span,
            scenario,
            overwriters: d.overwriters.clone(),
            info: d.info.clone(),
            synthetic: local.kind == LocalKind::Synthetic,
            unused_attr: local.unused_attr,
            // Degraded facts (budget exhaustion) and degraded source
            // (parse recovery) both keep the candidate at reduced
            // confidence rather than dropping it.
            low_confidence: summary.exhausted || f.recovered,
        });
    }
    // Drop synthetic helper slots that are not call results (e.g. ternary
    // staging slots): they are compiler artifacts, not source definitions.
    out.retain(|c| !c.synthetic || matches!(c.scenario, Scenario::RetVal { .. }));
    out.sort_by(|a, b| (a.span, &a.var_name).cmp(&(b.span, &b.var_name)));
    out
}

/// Classifies a dead store into the paper's scenarios. Indirect call
/// results trigger the only pointer query detection ever makes, resolved
/// on demand from the candidate's pointer-closed component.
fn classify(
    f: &Function,
    fid: FuncId,
    summary: &FnSummary,
    oracle: Option<&DemandPointer>,
    value: &Operand,
    info: &StoreInfo,
) -> Scenario {
    if let StoreInfo::ParamInit { index } = info {
        return Scenario::Param { index: *index };
    }
    if let Operand::Temp(t) = value {
        if let Some(target) = summary.call_dsts.get(t) {
            let callees = match target {
                CallTarget::Direct(n) => vec![n.clone()],
                CallTarget::Indirect(ct) => match oracle {
                    Some(o) => o.resolve_fn_ptr(fid, *ct),
                    None => Vec::new(),
                },
            };
            return Scenario::RetVal { callees };
        }
        if matches!(
            f.temp_origins.get(t.0 as usize),
            Some(TempOrigin::Call(_)) | Some(TempOrigin::IndirectCall)
        ) {
            // A call result reaching the store through the origin table even
            // if the call-site map missed it (defensive).
            if let Some(TempOrigin::Call(name)) = f.temp_origins.get(t.0 as usize) {
                return Scenario::RetVal {
                    callees: vec![name.clone()],
                };
            }
            return Scenario::RetVal { callees: vec![] };
        }
    }
    Scenario::Overwritten
}

/// The result of a hardened whole-program detection pass.
#[derive(Debug, Default)]
pub struct DetectOutcome {
    /// Candidates from every function that completed.
    pub candidates: Vec<Candidate>,
    /// The per-function summaries built during detection, handed to the
    /// prune stage so it never re-solves liveness.
    pub summaries: Summaries,
    /// The program's interned signatures, built once per scan and handed
    /// to the prune stage with the summaries minted from it.
    pub sigs: SigInterner,
    /// One record per poisoned function (panic inside the isolation
    /// boundary) or poisoned pointer solve.
    pub failures: Vec<FailureRecord>,
    /// Whether any demand pointer solve degraded (budget exhaustion or
    /// panic); indirect callees from that component resolve to the empty
    /// set, which only widens suppression.
    pub pointer_degraded: bool,
    /// Functions whose liveness budget ran out (their candidates are
    /// marked low-confidence).
    pub liveness_degraded: usize,
    /// Whether the scan deadline ([`SentinelConfig::deadline`]) passed
    /// before every unit started: the outcome is partial and every
    /// candidate is marked low-confidence.
    pub deadline_exceeded: bool,
}

/// One detection unit's result, as [`DetectOutcome::fold`] consumes it.
#[derive(Debug)]
pub(crate) enum UnitOutcome {
    /// The unit completed, possibly on a cut-short liveness fixpoint.
    Done {
        /// Whether the liveness budget ran out.
        exhausted: bool,
        /// The unit's summary, handed to the prune stage (and, in serve,
        /// shared with the unit cache). `None` for journal-replayed units:
        /// summaries are not journaled, and the prune stage rebuilds them
        /// on demand.
        summary: Option<Arc<FnSummary>>,
        /// The unit's candidates.
        candidates: Vec<Candidate>,
    },
    /// The unit was poisoned; the message says why (the panic payload, or
    /// the executor's reason for giving up on it).
    Poisoned(String),
}

impl From<Result<(FnSummary, Vec<Candidate>), String>> for UnitOutcome {
    fn from(result: Result<(FnSummary, Vec<Candidate>), String>) -> UnitOutcome {
        match result {
            Ok((summary, candidates)) => UnitOutcome::Done {
                exhausted: summary.exhausted,
                summary: Some(Arc::new(summary)),
                candidates,
            },
            Err(message) => UnitOutcome::Poisoned(message),
        }
    }
}

impl DetectOutcome {
    /// Folds one unit's result into the outcome. Every detection path
    /// records its units here, and nowhere else: a completed unit counts
    /// `harden.degraded.liveness` when its fixpoint was cut short and
    /// contributes its summary and candidates; a poisoned unit counts
    /// `harden.poisoned.detect` and contributes its [`detect_failure`].
    pub(crate) fn fold(&mut self, prog: &Program, fid: FuncId, unit: UnitOutcome) {
        match unit {
            UnitOutcome::Done {
                exhausted,
                summary,
                candidates,
            } => {
                if exhausted {
                    self.liveness_degraded += 1;
                    vc_obs::counter_inc(vc_obs::names::HARDEN_DEGRADED_LIVENESS);
                }
                if let Some(summary) = summary {
                    self.summaries.insert(fid, summary);
                }
                self.candidates.extend(candidates);
            }
            UnitOutcome::Poisoned(message) => {
                vc_obs::counter_inc(vc_obs::names::HARDEN_POISONED_DETECT);
                self.failures.push(detect_failure(prog, fid, message));
            }
        }
    }
}

/// The detect-stage failure record of a poisoned unit (also what the scan
/// journal stores for it).
pub(crate) fn detect_failure(prog: &Program, fid: FuncId, message: String) -> FailureRecord {
    let f = prog.func(fid);
    FailureRecord {
        stage: FailStage::Detect,
        file: prog.source.name(f.file).to_string(),
        function: Some(f.name.clone()),
        message,
    }
}

/// Detects candidates across the whole program.
///
/// Builds the demand pointer oracle once (when enabled) and shares it
/// across functions; components solve lazily, only when a candidate's
/// classification needs indirect-call callees. Runs with default hardening
/// (fault isolation on, no budgets); use [`detect_program_hardened`] for
/// explicit control.
pub fn detect_program(prog: &Program, config: DetectConfig) -> Vec<Candidate> {
    detect_program_hardened(prog, config, HardenConfig::default()).candidates
}

/// [`detect_program`] under a [`HardenConfig`]: pointer components and each
/// function's detection run inside unwind boundaries with their stage
/// budgets, implementing the degradation ladder:
///
/// - pointer budget exhausted (or a component solve panicked) → that
///   component's indirect callees resolve to the conservative empty set,
///   counted as `harden.degraded.pointer`;
/// - liveness budget exhausted → candidates kept, marked low-confidence,
///   counted as `harden.degraded.liveness`;
/// - panic inside one function's detection → that function is poisoned
///   (`harden.poisoned.detect`), everything else proceeds.
///
/// This is the [`sentinel`](crate::sentinel) executor at one job and one
/// attempt per unit: there is no separate sequential loop, so the two
/// can never disagree.
pub fn detect_program_hardened(
    prog: &Program,
    config: DetectConfig,
    hconf: HardenConfig,
) -> DetectOutcome {
    detect_program_sentinel(prog, config, hconf, &SentinelConfig::sequential())
}

/// Builds the demand pointer oracle (component partition only — no
/// solving) that the [`sentinel`](crate::sentinel) executor's units share;
/// the executor builds it once per scan, before any unit.
pub(crate) fn demand_oracle(
    prog: &Program,
    config: DetectConfig,
    hconf: HardenConfig,
) -> Option<DemandPointer<'_>> {
    if !config.use_alias_analysis {
        return None;
    }
    let pointer_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_POINTER);
    let oracle = DemandPointer::new(
        prog,
        vc_pointer::Config {
            field_sensitive: config.field_sensitive_pointers,
            budget: hconf.pointer_budget,
        },
        hconf.isolate,
    );
    pointer_mem.finish();
    Some(oracle)
}

/// Folds the oracle's accumulated degradations into the outcome after all
/// detection units ran: a poisoned component solve becomes a pointer-stage
/// failure record; budget exhaustion becomes the `harden.degraded.pointer`
/// tier (the partial relation was discarded — an under-approximation must
/// not feed indirect-call resolution).
pub(crate) fn finalize_pointer_stage(oracle: Option<&DemandPointer>, out: &mut DetectOutcome) {
    let Some(o) = oracle else { return };
    if let Some(message) = o.panic_message() {
        out.pointer_degraded = true;
        vc_obs::counter_inc(vc_obs::names::HARDEN_DEGRADED_POINTER);
        vc_obs::counter_inc(vc_obs::names::HARDEN_POISONED_POINTER);
        out.failures.insert(
            0,
            FailureRecord {
                stage: FailStage::Pointer,
                file: "<program>".to_string(),
                function: None,
                message,
            },
        );
    } else if o.degraded() {
        out.pointer_degraded = true;
        vc_obs::counter_inc(vc_obs::names::HARDEN_DEGRADED_POINTER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(src: &str) -> Vec<Candidate> {
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        detect_program(&prog, DetectConfig::default())
    }

    fn names(cands: &[Candidate]) -> Vec<String> {
        cands.iter().map(|c| c.var_name.clone()).collect()
    }

    #[test]
    fn detects_overwritten_definition_with_overwriter_span() {
        let c = candidates("void f(void) { int x = 1; x = 2; use(x); }");
        assert_eq!(names(&c), vec!["x"]);
        assert_eq!(c[0].scenario, Scenario::Overwritten);
        assert_eq!(c[0].overwriters.len(), 1);
        assert_eq!(c[0].overwriters[0].line(), 1);
    }

    #[test]
    fn detects_unused_retval_scenario() {
        let c = candidates(
            "int get_permset(void);\n\
             int calc_mask(void);\n\
             void f(void) {\n\
               int ret = get_permset();\n\
               ret = calc_mask();\n\
               if (ret) { handle(); }\n\
             }",
        );
        assert_eq!(c.len(), 1);
        match &c[0].scenario {
            Scenario::RetVal { callees } => assert_eq!(callees, &vec!["get_permset".to_string()]),
            other => panic!("unexpected scenario {other:?}"),
        }
    }

    #[test]
    fn detects_overwritten_param_scenario() {
        let c = candidates(
            "int open_log(char *path, size_t bufsz) { bufsz = 1400; if (bufsz > 0) { go(path, \
             bufsz); } return 0; }",
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].scenario, Scenario::Param { index: 1 });
        assert_eq!(c[0].var_name, "bufsz");
        // The overwriter is the `bufsz = 1400` line.
        assert_eq!(c[0].overwriters.len(), 1);
    }

    #[test]
    fn detects_ignored_call_result_as_synthetic_retval() {
        let c = candidates("int log_write(char *msg);\nvoid f(void) { log_write(\"hi\"); }");
        assert_eq!(c.len(), 1);
        assert!(c[0].synthetic);
        assert!(
            matches!(&c[0].scenario, Scenario::RetVal { callees } if callees == &vec!["log_write".to_string()])
        );
    }

    #[test]
    fn branch_overwriters_are_all_collected() {
        let c = candidates(
            "void f(int cond) { int x = 1; if (cond) { x = 2; } else { x = 3; } use(x); }",
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].overwriters.len(), 2, "{:?}", c[0].overwriters);
    }

    #[test]
    fn aliased_locals_are_excluded() {
        let c = candidates(
            "int deref(int *p) { return *p; }\n\
             void f(void) { int x = 1; int r = deref(&x); x = 2; use(r); }",
        );
        // `x = 2` is dead but x is aliased (address taken): no candidates
        // for x. (r is used.)
        assert!(names(&c).iter().all(|n| n != "x"), "{c:?}");
    }

    #[test]
    fn indirect_call_retval_resolves_callees() {
        let c = candidates(
            "int ha(void) { return 1; }\n\
             int hb(void) { return 2; }\n\
             void f(int w) {\n\
               int *fp = ha;\n\
               if (w) { fp = hb; }\n\
               int r = fp();\n\
               r = 5;\n\
               use(r);\n\
             }",
        );
        let r = c.iter().find(|c| c.var_name == "r").expect("r candidate");
        match &r.scenario {
            Scenario::RetVal { callees } => {
                let mut cs = callees.clone();
                cs.sort();
                assert_eq!(cs, vec!["ha".to_string(), "hb".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_staging_slots_are_not_reported() {
        let c = candidates("void f(int x) { int y = x ? 1 : 2; use(y); }");
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn field_candidate_includes_whole_store_overwriter() {
        let c = candidates(
            "struct s { int a; int b; };\n\
             struct s mk(void);\n\
             void f(void) { struct s v; v.a = 1; v = mk(); use_s(v); }",
        );
        let fa = c
            .iter()
            .find(|c| c.var_name == "v#0")
            .expect("field candidate");
        assert_eq!(fa.overwriters.len(), 1);
    }

    #[test]
    fn poisoned_function_is_recorded_and_others_survive() {
        let prog = Program::build(
            &[(
                "a.c",
                "void poison_me(void) { int a = 1; a = 2; use(a); }\n\
                 void healthy(void) { int b = 1; b = 2; use(b); }",
            )],
            &[],
        )
        .unwrap();
        let _fp = harden::arm_failpoint(FailStage::Detect, "poison_me");
        let out = detect_program_hardened(&prog, DetectConfig::default(), HardenConfig::default());
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].stage, FailStage::Detect);
        assert_eq!(out.failures[0].function.as_deref(), Some("poison_me"));
        assert_eq!(out.failures[0].file, "a.c");
        // The healthy function's candidate is still found.
        assert_eq!(out.candidates.len(), 1);
        assert_eq!(out.candidates[0].func_name, "healthy");
    }

    #[test]
    fn liveness_budget_exhaustion_keeps_low_confidence_candidates() {
        let prog = Program::build(
            &[(
                "a.c",
                "void f(int n) { int x = 1; x = 2; while (n) { n = n - 1; use(x); } }",
            )],
            &[],
        )
        .unwrap();
        let hconf = HardenConfig {
            liveness_budget: Budget::steps(1),
            ..HardenConfig::default()
        };
        let obs = vc_obs::ObsSession::new();
        let out = {
            let _g = obs.install();
            detect_program_hardened(&prog, DetectConfig::default(), hconf)
        };
        assert_eq!(out.liveness_degraded, 1);
        assert!(out.candidates.iter().all(|c| c.low_confidence));
        assert_eq!(
            obs.registry
                .counter(vc_obs::names::HARDEN_DEGRADED_LIVENESS),
            1
        );
        assert!(out.failures.is_empty());
    }

    #[test]
    fn pointer_budget_exhaustion_falls_back_to_conservative_oracle() {
        // Exhausting the Andersen budget must not kill the run or drop
        // alias-free findings: the exhausted component's partial relation is
        // discarded (indirect callees resolve to the conservative empty set,
        // which only widens suppression) and the degradation is flagged. `z`
        // has no pointer involvement and must survive; `y` is address-taken
        // and stays suppressed under both oracles. The indirect call gives
        // the demand oracle a component to actually solve (and exhaust).
        let src = "void write_it(int *p) { *p = 3; }\n\
                   int ha(void) { return 1; }\n\
                   void f(void) {\n\
                     int y = 1; y = 2; write_it(&y);\n\
                     int *fp = ha;\n\
                     int r = fp();\n\
                     r = 7;\n\
                     use(r);\n\
                     int z = 1; z = 2; use(z);\n\
                   }";
        let prog = Program::build(&[("a.c", src)], &[]).unwrap();
        let precise =
            detect_program_hardened(&prog, DetectConfig::default(), HardenConfig::default());
        assert!(!precise.pointer_degraded);
        let obs = vc_obs::ObsSession::new();
        let degraded = {
            let _g = obs.install();
            detect_program_hardened(
                &prog,
                DetectConfig::default(),
                HardenConfig {
                    pointer_budget: Budget::steps(0),
                    ..HardenConfig::default()
                },
            )
        };
        assert!(degraded.pointer_degraded);
        assert_eq!(
            obs.registry.counter(vc_obs::names::HARDEN_DEGRADED_POINTER),
            1
        );
        let names = |o: &DetectOutcome| {
            o.candidates
                .iter()
                .map(|c| c.var_name.clone())
                .collect::<Vec<_>>()
        };
        assert!(names(&degraded).contains(&"z".to_string()));
        assert!(!names(&degraded).contains(&"y".to_string()));
        // Degradation must never report MORE than the precise run.
        assert!(degraded.candidates.len() <= precise.candidates.len());
        assert!(degraded.failures.is_empty());
    }

    #[test]
    fn no_candidates_in_clean_code() {
        let c = candidates(
            "int sum(int *a, int n) {\n\
               int s = 0;\n\
               for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }\n\
               return s;\n\
             }",
        );
        assert!(c.is_empty(), "{c:?}");
    }
}
