//! # valuecheck — cross-scope unused-definition bug detection
//!
//! A from-scratch reproduction of **ValueCheck** (*Effective Bug Detection
//! with Unused Definitions*, EuroSys '24). The pipeline (Fig. 2 of the
//! paper):
//!
//! 1. [`detect`] — flow-sensitive, field-sensitive liveness with the
//!    define-set extension of Fig. 4, over the `vc-ir` load/store IR, with
//!    alias suppression from `vc-pointer`;
//! 2. [`authorship`] — per-scenario cross-scope determination against a
//!    `vc-vcs` history (§4.2);
//! 3. [`prune`] — the four false-positive patterns of §5, pipelined;
//! 4. [`rank`] — degree-of-knowledge familiarity ranking (§6).
//!
//! [`pipeline::run`] ties the stages together; [`harden`] supplies the fault-isolation,
//! budget, and graceful-degradation layer that keeps a run alive on
//! malformed or pathological input; [`sentinel`] runs detection on a
//! parallel executor, each unit once, with crash-safe journaled checkpoints
//! ([`pipeline::run_sentinel`], `vcheck --jobs/--journal/--resume`);
//! [`delta`] scans a revision, or only the files one commit wrote (the
//! per-commit mode of §8.6, [`delta::scan_commit`]), and classifies every
//! finding of two revisions as new/fixed/persisting/churned using
//! drift-stable fingerprints (`vcheck delta --from REV --to REV`);
//! [`history`] replays every commit
//! and drives each fingerprint through the born → persisting → churned →
//! fixed | suppressed lifecycle, persisting the event stream in a
//! [`lifedb::LifeDb`] with suppression from [`suppress`]
//! (`vcheck history`); [`store`] is the one checksummed, atomically saved
//! file format those stores and the [`store::SnapshotStore`] share.
//!
//! # One scan path
//!
//! Every scan (`vcheck <dir>`, `delta`, `history`, a commit scan, each
//! `serve` request) runs one crate-private pipeline function: one
//! [`sentinel`] executor pass, the only place that partitions the pointer
//! oracle and interns signatures, then authorship, pruning and ranking,
//! then the build's parse failures spliced ahead. [`pipeline::run_sentinel`],
//! [`delta::scan_revision`], [`delta::scan_commit`],
//! [`history::history_scan`] and [`serve::ServeEngine`] are views of it; a
//! revision scan and a commit scan differ only in the units their
//! executor plan leaves out. A single `Scan` builder in their place waits for a change to the
//! repository benchmark, which calls these names: beside them it would be
//! a second path, not one.
//!
//! # Examples
//!
//! ```
//! use valuecheck::pipeline::{run, Options};
//! use vc_ir::Program;
//! use vc_vcs::{FileWrite, Repository};
//!
//! let src = "void f(void) {\nint x = 1;\nx = 2;\nuse(x);\n}\n";
//! let prog = Program::build(&[("a.c", src)], &[]).unwrap();
//! let mut repo = Repository::new();
//! let alice = repo.add_author("alice");
//! let bob = repo.add_author("bob");
//! repo.commit(alice, 1, "init", vec![FileWrite { path: "a.c".into(), content: src.into() }]);
//! // bob rewrites the overwriting line.
//! let patched = src.replace("x = 2;", "x = 2; ");
//! repo.commit(bob, 2, "rework", vec![FileWrite { path: "a.c".into(), content: patched }]);
//!
//! let analysis = run(&prog, &repo, &Options::paper());
//! assert_eq!(analysis.detected(), 1);
//! ```

pub mod authorship;
pub mod candidate;
pub mod delta;
pub mod detect;
pub mod eventlog;
pub mod harden;
pub mod history;
pub mod lifedb;
pub mod pipeline;
pub mod project;
pub mod prune;
pub mod rank;
pub mod report;
pub mod sentinel;
pub mod serve;
pub mod store;
pub mod suppress;

/// Adds per-unit counters tallied over a loop, once each. A zero tally is
/// skipped, so a counter no unit touched stays absent from the snapshot
/// exactly as with per-unit increments.
pub(crate) fn counters_add(tallies: &[(&str, u64)]) {
    for &(name, n) in tallies {
        if n > 0 {
            vc_obs::counter_add(name, n);
        }
    }
}

pub use authorship::{
    Attributed,
    AuthorshipCtx, //
};
pub use candidate::{
    Candidate,
    Scenario, //
};
pub use delta::{
    DeltaReport,
    DeltaStatus,
    Fingerprint, //
};
pub use detect::{
    detect_program,
    DetectConfig, //
};
pub use harden::{
    FailStage,
    FailureRecord,
    HardenConfig, //
};
pub use history::{
    history_scan,
    HistoryOutcome, //
};
pub use lifedb::{
    Funnel,
    LifeDb,
    LifeEvent,
    LifeEventKind, //
};
pub use pipeline::{
    run,
    run_sentinel,
    Analysis,
    Options, //
};
pub use prune::{
    PruneConfig,
    PruneReason, //
};
pub use rank::{
    RankConfig,
    Ranked, //
};
pub use report::Report;
pub use sentinel::{
    CrashPlan,
    SentinelConfig, //
};
pub use suppress::{
    InlineSuppressions,
    SuppressStore, //
};
