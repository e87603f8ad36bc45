//! What the warm-serve tests share: a source tree on disk, and the cold
//! batch scan every clean warm reply must match byte for byte.

use std::{
    fs,
    path::{
        Path,
        PathBuf, //
    },
};

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

/// Writes `files` (relative path, content) into a fresh temporary
/// directory named after `tag` and the process.
pub fn write_tree<P: AsRef<Path>, C: AsRef<[u8]>>(tag: &str, files: &[(P, C)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for (path, content) in files {
        let full = dir.join(path);
        fs::create_dir_all(full.parent().unwrap()).unwrap();
        fs::write(full, content).unwrap();
    }
    dir
}

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
