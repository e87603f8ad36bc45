//! The `vcheck <dir>` oracle for per-revision scans of
//! [`vc_workload::corrupted_history`].

use valuecheck::{
    harden::FailureRecord,
    pipeline::{
        run_sentinel,
        Options, //
    },
    sentinel::SentinelConfig,
};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_vcs::Repository;

/// The `recover.*` and `harden.parse_failures` counters recorded in `obs`.
pub fn front_end_counters(obs: &ObsSession) -> Vec<(String, u64)> {
    let counters = obs.registry.snapshot().counters.into_iter();
    counters
        .filter(|(n, _)| n.starts_with("recover.") || n == vc_obs::names::HARDEN_PARSE_FAILURES)
        .collect()
}

/// A `vcheck <dir>` scan of the head tree: its failure records and
/// front-end counters.
pub fn head_scan(repo: &Repository) -> (Vec<FailureRecord>, Vec<(String, u64)>) {
    let head = repo.snapshot_at(repo.head().expect("non-empty history"));
    let mut tree: Vec<(&str, &str)> = head.iter().map(|(p, c)| (p.as_str(), c.as_str())).collect();
    tree.sort();
    let (prog, errors, stats) = Program::build_recovering(&tree, &[]);
    let obs = ObsSession::new();
    let sconf = SentinelConfig::default();
    let mut analysis = run_sentinel(&prog, repo, &Options::paper(), &sconf, obs.clone());
    analysis
        .report
        .splice_parse_failures(&obs.registry, &errors, &stats);
    (analysis.report.failures, front_end_counters(&obs))
}
