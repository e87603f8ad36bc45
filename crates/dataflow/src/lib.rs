//! # vc-dataflow — worklist dataflow analyses over the MiniC IR
//!
//! The dataflow substrate of the ValueCheck reproduction:
//!
//! - a generic worklist [`framework`] (forward/backward, fixed-point),
//! - field-sensitive [`liveness`] with a flow-sensitive dead-store finder —
//!   the raw unused-definition detector of the paper's §4.1,
//! - [`dense`], the bitset-backed liveness the summary builder runs (same
//!   lattice as [`liveness`], facts as `u64` words over a per-function key
//!   index),
//! - forward [`reaching`] definitions and def-use chains,
//! - [`varset::VarKeySet`], the variable-key set with field-covering
//!   semantics shared by every client.

pub mod dense;
pub mod framework;
pub mod liveness;
pub mod reaching;
pub mod summary;
pub mod varset;

pub use framework::{
    solve,
    solve_budgeted,
    BlockFacts,
    DataflowAnalysis,
    Direction, //
};
pub use liveness::{
    dead_stores,
    escaped_locals,
    live_variables,
    DeadStore, //
};
pub use summary::{
    build_summary,
    CallTarget,
    FnSummary,
    SelfDelta,
    SigId,
    SigInterner,
    Summaries,
    SummaryDead, //
};
pub use varset::VarKeySet;
