//! Fault isolation, per-stage budgets, and the graceful-degradation ladder.
//!
//! ValueCheck's value comes from scanning huge, messy codebases where one
//! malformed function or pathological CFG must never take down the whole
//! run. This module is the discipline layer that makes every pipeline run
//! survivable and bounded:
//!
//! - **Per-function fault isolation.** Each function's detect/liveness/alias
//!   work runs under [`std::panic::catch_unwind`]; a panic poisons that one
//!   function, producing a [`FailureRecord`] in the [`Report`](crate::report::Report)
//!   instead of aborting the run.
//! - **Per-stage budgets.** [`HardenConfig`] carries step caps and
//!   wall-clock deadlines for the Andersen solver and the liveness
//!   fixpoints, enforced inside the solver loops via
//!   [`vc_obs::BudgetMeter`].
//! - **Degradation ladder.** On pointer budget exhaustion the pipeline
//!   discards the partial solve and resolves that component's indirect
//!   callees to the conservative empty set; on liveness budget exhaustion the
//!   function's candidates are kept but marked low-confidence. Every
//!   downgrade is counted under `harden.*` in the ambient
//!   [`ObsSession`](vc_obs::ObsSession) and surfaced by `vcheck --stats`.
//!
//! For deterministic fault-injection testing, [`arm_failpoint`] plants a
//! thread-local trigger that panics inside a chosen stage for functions
//! whose name contains a needle — the in-tree equivalent of a failpoint
//! library, compiled in release builds too (the check is one thread-local
//! borrow per function, negligible next to a fixpoint solve).

use std::{
    cell::RefCell,
    panic::{
        catch_unwind,
        AssertUnwindSafe, //
    },
    sync::{
        Arc,
        Mutex, //
    },
};

pub use vc_obs::{
    Budget,
    BudgetMeter, //
};

/// Robustness knobs threaded through the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct HardenConfig {
    /// Run each function's detection (and each candidate's authorship
    /// lookup) under an unwind boundary, converting panics into
    /// [`FailureRecord`]s. On by default; disable to let panics escape
    /// (`vcheck --fail-fast`).
    pub isolate: bool,
    /// Budget for each function's liveness/define-set fixpoint.
    pub liveness_budget: Budget,
    /// Budget for the whole-program Andersen solve.
    pub pointer_budget: Budget,
}

impl Default for HardenConfig {
    fn default() -> Self {
        Self {
            isolate: true,
            liveness_budget: Budget::UNLIMITED,
            pointer_budget: Budget::UNLIMITED,
        }
    }
}

impl HardenConfig {
    /// Applies one step cap to both the liveness and pointer budgets.
    pub fn with_step_budget(mut self, steps: u64) -> HardenConfig {
        self.liveness_budget = self.liveness_budget.with_steps(steps);
        self.pointer_budget = self.pointer_budget.with_steps(steps);
        self
    }

    /// Applies one wall-clock cap to both budgets.
    pub fn with_time_budget_ms(mut self, ms: u64) -> HardenConfig {
        self.liveness_budget = self.liveness_budget.with_millis(ms);
        self.pointer_budget = self.pointer_budget.with_millis(ms);
        self
    }
}

/// The pipeline stage a failure was isolated in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailStage {
    /// Source-level parse or lowering failure (lenient build).
    Parse,
    /// Per-function detection (liveness, define sets, classification).
    Detect,
    /// The whole-program pointer/alias solve.
    Pointer,
    /// Per-candidate authorship lookup.
    Authorship,
    /// The pruning stage.
    Prune,
    /// The ranking stage.
    Rank,
    /// The sentinel executor's worker loop itself, *outside* the per-unit
    /// isolation boundary — a hit here simulates a poisoned worker thread
    /// rather than a poisoned unit.
    Worker,
}

impl FailStage {
    /// Stable lowercase label, used in counters and report output.
    pub fn label(&self) -> &'static str {
        match self {
            FailStage::Parse => "parse",
            FailStage::Detect => "detect",
            FailStage::Pointer => "pointer",
            FailStage::Authorship => "authorship",
            FailStage::Prune => "prune",
            FailStage::Rank => "rank",
            FailStage::Worker => "worker",
        }
    }

    /// The inverse of [`FailStage::label`], for journal replay.
    pub fn from_label(label: &str) -> Option<FailStage> {
        Some(match label {
            "parse" => FailStage::Parse,
            "detect" => FailStage::Detect,
            "pointer" => FailStage::Pointer,
            "authorship" => FailStage::Authorship,
            "prune" => FailStage::Prune,
            "rank" => FailStage::Rank,
            "worker" => FailStage::Worker,
            _ => return None,
        })
    }
}

/// One poisoned unit of work: the stage, where it happened, and why. A run
/// that hits failures still completes; its [`Report`](crate::report::Report)
/// carries these records alongside the surviving findings.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureRecord {
    /// The stage the failure was contained in.
    pub stage: FailStage,
    /// File of the poisoned unit (the function's file, or the unparseable
    /// source file).
    pub file: String,
    /// The poisoned function, when the unit is function- or
    /// candidate-grained.
    pub function: Option<String>,
    /// Human-readable cause (panic payload or build error).
    pub message: String,
}

impl std::fmt::Display for FailureRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.function {
            Some(func) => write!(
                f,
                "[{}] {} in {}: {}",
                self.stage.label(),
                func,
                self.file,
                self.message
            ),
            None => write!(
                f,
                "[{}] {}: {}",
                self.stage.label(),
                self.file,
                self.message
            ),
        }
    }
}

/// Extracts a printable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `work` under an unwind boundary when `isolate` is set, translating
/// a panic into `Err(message)`. With `isolate` off the panic propagates —
/// the fail-fast debugging mode.
///
/// The ambient [`ObsSession`](vc_obs::ObsSession) is per-thread and the
/// closure runs on the calling thread, so counters recorded inside the
/// boundary land in the same session.
pub fn isolated<T>(isolate: bool, work: impl FnOnce() -> T) -> Result<T, String> {
    if !isolate {
        return Ok(work());
    }
    catch_unwind(AssertUnwindSafe(work)).map_err(panic_message)
}

/// A shareable set of armed failpoints.
///
/// Failpoints used to be a plain thread-local `Vec`, which broke under the
/// `sentinel` executor: a failpoint armed on the test thread was invisible
/// to the worker threads actually running detection. A `FailpointPlan` is
/// the same set behind an `Arc<Mutex<..>>`: each thread still has its *own*
/// plan by default (parallel tests stay isolated from each other), but the
/// executor captures [`FailpointPlan::current`] at spawn time and installs
/// it on every worker, so arming — and disarming, including guard drops
/// after spawn — propagates to all workers sharing the plan.
#[derive(Clone, Debug, Default)]
pub struct FailpointPlan {
    points: Arc<Mutex<Vec<(FailStage, String)>>>,
}

impl FailpointPlan {
    /// The plan installed on the current thread (every thread lazily gets
    /// an empty one). Cloning shares the underlying set.
    pub fn current() -> FailpointPlan {
        FAILPOINTS.with(|p| p.borrow().clone())
    }

    /// Installs this plan on the current thread until the returned guard
    /// drops; the previous plan is restored afterwards. Worker threads call
    /// this with the spawning thread's plan so injection is deterministic
    /// under `--jobs > 1`.
    pub fn install(&self) -> FailpointPlanGuard {
        let prev = FAILPOINTS.with(|p| p.replace(self.clone()));
        FailpointPlanGuard { prev }
    }

    /// Whether a failpoint matching `(stage, function)` is armed.
    fn hit(&self, stage: FailStage, function: &(impl AsRef<str> + ?Sized)) -> bool {
        self.points
            .lock()
            .unwrap()
            .iter()
            .any(|(s, n)| *s == stage && function.as_ref().contains(n.as_str()))
    }

    fn arm(&self, stage: FailStage, needle: &str) {
        self.points
            .lock()
            .unwrap()
            .push((stage, needle.to_string()));
    }

    fn disarm(&self, stage: FailStage, needle: &str) {
        let mut pts = self.points.lock().unwrap();
        if let Some(i) = pts.iter().position(|(s, n)| *s == stage && *n == needle) {
            pts.remove(i);
        }
    }
}

/// Restores the previously installed [`FailpointPlan`] when dropped.
#[must_use = "dropping the guard immediately restores the previous plan"]
pub struct FailpointPlanGuard {
    prev: FailpointPlan,
}

impl Drop for FailpointPlanGuard {
    fn drop(&mut self) {
        FAILPOINTS.with(|p| p.replace(self.prev.clone()));
    }
}

thread_local! {
    /// The thread's armed failpoint plan (shareable across worker threads).
    static FAILPOINTS: RefCell<FailpointPlan> = RefCell::new(FailpointPlan::default());
}

/// Disarms the failpoint it was returned for when dropped.
pub struct FailPointGuard {
    plan: FailpointPlan,
    stage: FailStage,
    needle: String,
}

impl Drop for FailPointGuard {
    fn drop(&mut self) {
        self.plan.disarm(self.stage, &self.needle);
    }
}

/// Arms a deterministic failpoint on the current thread's plan: any unit of
/// work in `stage` whose function name contains `needle` will panic when it
/// hits [`failpoint`] — on this thread, or on any executor worker the plan
/// was installed on. Used by the fault-injection harness to prove panics
/// stay inside the isolation boundary. Disarmed when the guard drops.
pub fn arm_failpoint(stage: FailStage, needle: &str) -> FailPointGuard {
    let plan = FailpointPlan::current();
    plan.arm(stage, needle);
    FailPointGuard {
        plan,
        stage,
        needle: needle.to_string(),
    }
}

/// The trigger side of [`arm_failpoint`]: panics iff a matching failpoint
/// is armed on this thread's plan. A no-op otherwise (one thread-local
/// borrow and one uncontended lock; `function` is then never read).
pub fn failpoint(stage: FailStage, function: &(impl AsRef<str> + ?Sized)) {
    let hit = FAILPOINTS.with(|p| p.borrow().hit(stage, function));
    if hit {
        panic!("injected fault: {} in {}", stage.label(), function.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_catches_panics_with_message() {
        let r: Result<(), String> = isolated(true, || panic!("boom {}", 42));
        assert_eq!(r.unwrap_err(), "boom 42");
        let ok = isolated(true, || 7);
        assert_eq!(ok.unwrap(), 7);
    }

    #[test]
    fn failpoint_hits_only_matching_stage_and_name() {
        let _g = arm_failpoint(FailStage::Detect, "bad_fn");
        // Non-matching stage and name pass through.
        failpoint(FailStage::Authorship, "bad_fn");
        failpoint(FailStage::Detect, "fine_fn");
        let r = isolated(true, || failpoint(FailStage::Detect, "some_bad_fn_here"));
        assert!(r.unwrap_err().contains("injected fault"));
    }

    #[test]
    fn failpoint_disarms_on_guard_drop() {
        {
            let _g = arm_failpoint(FailStage::Detect, "poof");
        }
        failpoint(FailStage::Detect, "poof_target"); // must not panic
    }

    #[test]
    fn failure_record_display_names_stage_and_function() {
        let r = FailureRecord {
            stage: FailStage::Detect,
            file: "a.c".into(),
            function: Some("f".into()),
            message: "boom".into(),
        };
        assert_eq!(r.to_string(), "[detect] f in a.c: boom");
    }

    #[test]
    fn failpoint_plan_propagates_to_spawned_threads() {
        let _g = arm_failpoint(FailStage::Detect, "worker_bad");
        let plan = FailpointPlan::current();
        let caught = std::thread::spawn(move || {
            let _p = plan.install();
            isolated(true, || failpoint(FailStage::Detect, "worker_bad_fn")).is_err()
        })
        .join()
        .unwrap();
        assert!(caught, "armed failpoint must fire on the worker thread");
    }

    #[test]
    fn failpoint_disarm_propagates_to_shared_plan() {
        let plan = {
            let _g = arm_failpoint(FailStage::Detect, "gone");
            FailpointPlan::current()
        };
        // The guard dropped: the shared plan must no longer fire anywhere.
        let fired = std::thread::spawn(move || {
            let _p = plan.install();
            isolated(true, || failpoint(FailStage::Detect, "gone_fn")).is_err()
        })
        .join()
        .unwrap();
        assert!(!fired);
    }

    #[test]
    fn fail_stage_label_roundtrips() {
        for stage in [
            FailStage::Parse,
            FailStage::Detect,
            FailStage::Pointer,
            FailStage::Authorship,
            FailStage::Prune,
            FailStage::Rank,
            FailStage::Worker,
        ] {
            assert_eq!(FailStage::from_label(stage.label()), Some(stage));
        }
        assert_eq!(FailStage::from_label("bogus"), None);
    }

    #[test]
    fn harden_config_budget_builders() {
        let h = HardenConfig::default().with_step_budget(9);
        assert_eq!(h.liveness_budget.max_steps, Some(9));
        assert_eq!(h.pointer_budget.max_steps, Some(9));
        assert!(h.isolate);
    }
}
