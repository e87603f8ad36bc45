//! A source tree on disk, for tests that run `vcheck` or load a project.

use std::{
    fs,
    path::{
        Path,
        PathBuf, //
    },
};

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
