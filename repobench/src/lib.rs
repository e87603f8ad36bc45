//! # repobench — the repository's benchmark
//!
//! Three closed-loop workloads, each with one caller and at most two
//! detection threads, run the paper configuration (`Options::paper()`)
//! end to end and check every operation's output against the generator's
//! ground truth:
//!
//! - [`scan_cold`] — what `vcheck <dir>` runs, from disk, over the four
//!   paper apps with their histories;
//! - [`serve_edit`] — a warm `vcheck serve` engine answering scans after
//!   single-file edits;
//! - [`history_replay`] — `vcheck history` over a scripted 30-commit
//!   history.
//!
//! An untraced run prints the end-to-end metrics ([`run::END_TO_END`]),
//! each time scaled to a reference host speed by [`calib`]. A traced run
//! makes the same calls, wraps each public call in a [`ledger`] span, adopts
//! the spans the program records itself under it, then runs probes that
//! split layers further, and prints the per-layer metrics
//! ([`run::PER_LAYER`]). On each workload the layers of
//! [`run::Workload::ledger`] plus `unattributed_ms` add up to
//! `traced_op_ms`. See `README.md` for the workload and metric notes.

pub mod alloc;
pub mod calib;
pub mod history_replay;
pub mod layers;
pub mod ledger;
pub mod oracle;
pub mod run;
pub mod scan_cold;
pub mod serve_edit;
pub mod stats;
