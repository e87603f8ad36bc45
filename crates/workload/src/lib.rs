//! # vc-workload — synthetic applications with ground truth
//!
//! The evaluation substrate: since the paper's subjects (Linux, MySQL,
//! OpenSSL, NFS-ganesha) cannot be shipped, each [`profile::AppProfile`]
//! encodes that application's *published statistics* and [`generate()`](generate::generate)
//! materializes a MiniC project plus a full VCS history whose analysis
//! reproduces them:
//!
//! - cross-scope candidate counts and the Table 4 prune breakdown, planted
//!   by construction (one candidate per uniquely-named function);
//! - the Table 2 confirmed/false-positive split, with Fig. 7 component /
//!   severity / age metadata on every confirmed bug;
//! - a same-author candidate pool for the w/o-Authorship ablation (§8.5.1);
//! - the §3.1 preliminary history: unused definitions present in the 2019
//!   tree and removed by bug-fix or cleanup commits before 2021.
//!
//! [`delta`] generates two-revision workloads with a known new / fixed /
//! persisting split — the ground truth behind `vcheck delta` and the
//! `tools/ci.sh delta` step.
//!
//! [`life`] generates N-commit workloads where every planted bug has a
//! scripted fate (live / fixed / suppressed / churned) — the ground truth
//! behind `vcheck history` and the `tools/ci.sh history` step.
//!
//! [`corrupt()`] plants a committed file of known-good planted bugs and
//! corrupts exactly one function per [`corrupt::CorruptKind`] (truncation,
//! deleted brace, lexer garbage, unterminated string, mangled signature),
//! stating the fate of every planted bug — the ground truth behind
//! `tools/ci.sh recovery`.
//!
//! [`faults`] mutates a generated application with seeded pathologies
//! (truncated files, degenerate CFGs, absurd arity, missing blame, injected
//! panics) and states the evidence a robust pipeline run must produce for
//! each — the adversarial workload behind `tools/ci.sh faults`.
//!
//! [`chaos`] scripts seeded request streams against the `vcheck serve`
//! daemon — on-disk corruption, malformed lines, oversized bursts against
//! a wedged worker, injected panics, mid-stream kill+restart — and states
//! the recovery contract (zero daemon exits, warm replies byte-identical
//! to cold scans, balanced counters) behind `tools/ci.sh serve`.

pub mod chaos;
pub mod codegen;
pub mod corrupt;
pub mod delta;
pub mod faults;
pub mod generate;
pub mod life;
pub mod profile;
pub mod truth;

pub use chaos::{
    generate_chaos,
    ChaosPlan,
    ChaosSegment,
    ChaosStep, //
};
pub use corrupt::{
    corrupt,
    corrupted_history,
    plant_fault_file,
    truncated_history,
    BugFate,
    CorruptKind,
    Corruption,
    FaultFile, //
};
pub use delta::{
    generate_delta,
    DeltaProfile,
    DeltaWorkload, //
};
pub use faults::{
    inject_faults,
    CrashPoint,
    Evidence,
    FaultKind,
    InjectedFault, //
};
pub use generate::{
    generate,
    GeneratedApp, //
};
pub use life::{
    generate_life,
    LifeProfile,
    LifeWorkload, //
};
pub use profile::AppProfile;
pub use truth::{
    BugCategory,
    GroundTruth,
    IntentionalPattern,
    PlantKind,
    Planted,
    Severity, //
};
