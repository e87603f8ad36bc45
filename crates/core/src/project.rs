//! Project loading for the `vcheck` command-line tool: a directory of MiniC
//! sources plus an optional `history.json` ([`vc_vcs::HistorySpec`]).

use std::{fs, io, path::Path};

use vc_vcs::{
    HistorySpec,
    Repository, //
};

/// A loaded project ready for analysis.
#[derive(Debug)]
pub struct Project {
    /// `(relative path, content)` pairs, sorted by path.
    pub sources: Vec<(String, String)>,
    /// The version-control history (synthesized single-author history when
    /// the project ships no `history.json`).
    pub repo: Repository,
    /// Whether a real history was found.
    pub has_history: bool,
}

impl Project {
    /// Sources as `(&str, &str)` pairs for `Program::build`.
    pub fn source_refs(&self) -> Vec<(&str, &str)> {
        self.sources
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
            .collect()
    }

    /// Loads `dir` again into this project, an earlier load of the same
    /// directory. A `history.json` is parsed afresh; without one, the
    /// single-author history re-imports only the files whose bytes
    /// changed, each as commit 0's write of that file, and a changed file
    /// set imports the tree afresh.
    ///
    /// The result equals what [`load_dir_or_empty`] returns for `dir`. On
    /// error the project is unchanged.
    pub fn reload(&mut self, dir: &Path) -> io::Result<()> {
        *self = load(dir, Some(self))?;
        Ok(())
    }
}

/// Loads a project directory: every `*.c` file under `dir` (recursively,
/// relative paths as file names) plus `dir/history.json` when present.
///
/// With a history, analysis uses its blame; without one, a synthetic
/// single-author history is built from the working tree — cross-scope
/// findings are then limited to library-return-value cases, and `vcheck`
/// warns accordingly.
pub fn load_dir(dir: &Path) -> io::Result<Project> {
    let project = load_dir_or_empty(dir)?;
    if project.sources.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no .c files under {}", dir.display()),
        ));
    }
    Ok(project)
}

/// [`load_dir`] that accepts a directory with zero `.c` files, returning an
/// empty project instead of `NotFound`. This is the contract `vcheck scan`
/// exposes (empty report, exit 0): a repository that happens to contain no
/// C sources is clean, not broken. The directory itself must still exist.
pub fn load_dir_or_empty(dir: &Path) -> io::Result<Project> {
    load(dir, None)
}

/// Loads `dir`, reusing the single-author history of `prev` (see
/// [`Project::reload`]). Every step that can fail runs before anything is
/// taken from `prev`.
fn load(dir: &Path, prev: Option<&mut Project>) -> io::Result<Project> {
    let mut sources: Vec<(String, String)> = Vec::new();
    collect_c_files(dir, dir, &mut sources)?;
    sources.sort_by(|a, b| a.0.cmp(&b.0));

    let history_path = dir.join("history.json");
    if history_path.exists() {
        let text = fs::read_to_string(&history_path)?;
        let spec = HistorySpec::from_json(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("history.json: {e}"))
        })?;
        let repo = spec.into_repository();
        // The working tree must match the history head, or blame lines
        // would not line up with the parsed sources.
        for (path, content) in &sources {
            if !repo.head_matches(path, content) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("history.json head does not match working tree for {path}"),
                ));
            }
        }
        Ok(Project {
            sources,
            repo,
            has_history: true,
        })
    } else {
        let same_files = |p: &&mut Project| {
            !p.has_history
                && p.sources.len() == sources.len()
                && p.sources.iter().zip(&sources).all(|(a, b)| a.0 == b.0)
        };
        let repo = match prev.filter(same_files) {
            Some(p) => {
                let mut repo = std::mem::take(&mut p.repo);
                for ((path, content), (_, old)) in sources.iter().zip(&p.sources) {
                    if content != old {
                        repo.amend_head_write(path, content.clone());
                    }
                }
                repo
            }
            None => HistorySpec::single_author(&sources).into_repository(),
        };
        Ok(Project {
            sources,
            repo,
            has_history: false,
        })
    }
}

fn collect_c_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_c_files(root, &path, out)?;
        } else if path.extension().map(|e| e == "c").unwrap_or(false) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vcheck_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("src")).unwrap();
        dir
    }

    #[test]
    fn loads_tree_without_history() {
        let dir = tmpdir("nohist");
        fs::write(dir.join("src/a.c"), "int f(void) { return 1; }\n").unwrap();
        let p = load_dir(&dir).unwrap();
        assert!(!p.has_history);
        assert_eq!(p.sources.len(), 1);
        assert_eq!(p.sources[0].0, "src/a.c");
        assert_eq!(p.repo.author_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A one-commit history by alice writing `content` to `src/a.c`.
    fn alice_writes(content: &str) -> vc_vcs::HistorySpec {
        vc_vcs::HistorySpec {
            commits: vec![vc_vcs::spec::CommitSpec {
                author: "alice".into(),
                timestamp: 5,
                message: "init".into(),
                writes: vec![vc_vcs::spec::WriteSpec {
                    path: "src/a.c".into(),
                    content: content.into(),
                }],
            }],
        }
    }

    #[test]
    fn loads_tree_with_matching_history() {
        let dir = tmpdir("hist");
        let content = "int f(void) { return 1; }\n";
        fs::write(dir.join("src/a.c"), content).unwrap();
        fs::write(
            dir.join("history.json"),
            alice_writes(content).to_json_pretty(),
        )
        .unwrap();
        let p = load_dir(&dir).unwrap();
        assert!(p.has_history);
        assert_eq!(
            p.repo
                .blame_author("src/a.c", 1)
                .map(|a| p.repo.author(a).name.clone()),
            Some("alice".to_string())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn head_check_accepts_one_optional_trailing_newline() {
        let dir = tmpdir("eol");
        let body = "int f(void) { return 1; }";
        for (history, tree, ok) in [
            (body.to_string(), body.to_string(), true),
            (body.to_string(), format!("{body}\n"), true),
            (format!("{body}\n"), body.to_string(), true),
            (format!("{body}\n"), format!("{body}\n\n"), false),
            (format!("{body}\n\n"), format!("{body}\n\n"), true),
            (format!("{body}\n\n"), format!("{body}\n"), false),
        ] {
            fs::write(dir.join("src/a.c"), &tree).unwrap();
            fs::write(dir.join("history.json"), alice_writes(&history).to_json()).unwrap();
            assert_eq!(
                load_dir(&dir).is_ok(),
                ok,
                "history {history:?} vs working tree {tree:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_loads_as_empty_project() {
        let dir = tmpdir("empty");
        // `tmpdir` creates `src/` but writes no files: zero `.c` sources.
        assert!(load_dir(&dir).is_err(), "strict load still rejects");
        let p = load_dir_or_empty(&dir).unwrap();
        assert!(p.sources.is_empty());
        assert!(!p.has_history);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_still_an_error() {
        let dir = std::env::temp_dir().join(format!("vc-no-such-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(load_dir_or_empty(&dir).is_err());
    }

    #[test]
    fn reload_follows_history_edits_and_keeps_the_project_on_error() {
        let dir = tmpdir("reload");
        let content = "int f(void) { return 1; }\n";
        fs::write(dir.join("src/a.c"), content).unwrap();
        fs::write(dir.join("history.json"), alice_writes(content).to_json()).unwrap();
        let mut p = load_dir(&dir).unwrap();
        let author = |p: &Project| {
            p.repo
                .author(p.repo.blame_author("src/a.c", 1).unwrap())
                .name
                .clone()
        };
        assert_eq!(author(&p), "alice");

        // An edit the history does not know fails the head check; the
        // project stays as it was.
        fs::write(dir.join("src/a.c"), "int f(void) { return 2; }\n").unwrap();
        assert!(p.reload(&dir).is_err());
        assert_eq!(p.sources[0].1, content);

        // A new history.json is parsed again.
        let mut spec = alice_writes("int f(void) { return 2; }\n");
        spec.commits[0].author = "bob".into();
        fs::write(dir.join("history.json"), spec.to_json()).unwrap();
        p.reload(&dir).unwrap();
        assert_eq!(author(&p), "bob");
        assert!(p.has_history);

        // Without it, the tree is imported under a single author.
        fs::remove_file(dir.join("history.json")).unwrap();
        p.reload(&dir).unwrap();
        assert!(!p.has_history);
        assert_eq!(author(&p), "unknown");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_mismatched_history() {
        let dir = tmpdir("mismatch");
        fs::write(dir.join("src/a.c"), "int f(void) { return 2; }\n").unwrap();
        let spec = alice_writes("int f(void) { return 1; }\n");
        fs::write(dir.join("history.json"), spec.to_json()).unwrap();
        assert!(load_dir(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
