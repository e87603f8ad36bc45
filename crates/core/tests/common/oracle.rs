//! The cold batch scan every clean warm serve reply must match byte for
//! byte.

use std::path::Path;

use valuecheck::{
    pipeline::{
        run_sentinel,
        Options, //
    },
    project::load_dir_or_empty,
    sentinel::SentinelConfig,
};
use vc_ir::Program;
use vc_obs::ObsSession;

/// A cold batch scan of `dir` as `vcheck <dir>` runs it, at one job: the
/// report's canonical bytes. Built from the batch entry points, not
/// `valuecheck::serve`, so that warm == cold is a meaningful invariant.
pub fn cold_canonical(dir: &Path, opts: &Options) -> Vec<u8> {
    let project = load_dir_or_empty(dir).expect("the oracle loads the tree");
    let (prog, errors, stats) = Program::build_recovering(&project.source_refs(), &[]);
    let obs = ObsSession::new();
    let sconf = SentinelConfig::sequential();
    let mut analysis = run_sentinel(&prog, &project.repo, opts, &sconf, obs.clone());
    (analysis.report).splice_parse_failures(&obs.registry, &errors, &stats);
    analysis.report.canonical_bytes()
}
