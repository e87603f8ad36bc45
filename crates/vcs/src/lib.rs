//! # vc-vcs — in-memory version-control substrate
//!
//! The git/GitPython substitute of the ValueCheck reproduction. Provides a
//! linear-history repository with commits, full-content file writes, a
//! line-oriented [`diff`], incremental per-line [`repo::Repository::blame`],
//! per-file logs, and history snapshots (used by the §3.1 preliminary
//! experiment to compare 2019 vs 2021 trees).
//!
//! Loading a history is built to cost little more than reading it:
//!
//! - [`HistorySpec::from_json`] reads `history.json` in one pass through
//!   [`vc_obs::json::Cursor`], straight into commits and writes, with no
//!   JSON tree in between; every path, message and content is copied once,
//!   at its exact length.
//! - The repository keeps no text per line. A file's blame is one
//!   [`BlameEntry`] per line, and its content is the write that last wrote
//!   it. A new write is compared with that content byte-wise: the common
//!   prefix and suffix, backed off to line boundaries, keep their blame in
//!   place, and only the changed middle is split into lines and diffed.
//!   The blame equals that of a line diff over the whole files.

pub mod diff;
pub mod repo;
pub mod spec;

pub use spec::HistorySpec;

pub use repo::{
    Author,
    AuthorId,
    BlameEntry,
    Commit,
    CommitId,
    FileWrite,
    Repository, //
};
