//! A serializable history format (`history.json`) for moving repositories
//! in and out of the process — the interchange format of the `vcheck` and
//! `genapp` command-line tools.

use vc_obs::{
    json::{
        self,
        ParseError, //
    },
    Json, //
};

use crate::repo::{
    FileWrite,
    Repository, //
};

/// One file write inside a commit spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteSpec {
    /// Repository-relative path.
    pub path: String,
    /// Full new content.
    pub content: String,
}

/// One commit in the history spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitSpec {
    /// Author name; registered on first use.
    pub author: String,
    /// Unix timestamp (seconds).
    pub timestamp: i64,
    /// Commit message.
    pub message: String,
    /// Files written.
    pub writes: Vec<WriteSpec>,
}

/// A whole linear history.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistorySpec {
    /// Commits, oldest first.
    pub commits: Vec<CommitSpec>,
}

impl HistorySpec {
    /// Materializes the spec as a repository. Clones the spec; a caller
    /// that owns it should use [`HistorySpec::into_repository`].
    pub fn build(&self) -> Repository {
        self.clone().into_repository()
    }

    /// Materializes the spec as a repository, moving every path, message
    /// and content into its commit instead of copying it.
    pub fn into_repository(self) -> Repository {
        let mut repo = Repository::new();
        let mut ids = std::collections::HashMap::new();
        for c in self.commits {
            let author = *ids
                .entry(c.author)
                .or_insert_with_key(|name| repo.add_author(name.clone()));
            repo.commit(
                author,
                c.timestamp,
                c.message,
                c.writes
                    .into_iter()
                    .map(|w| FileWrite {
                        path: w.path,
                        content: w.content,
                    })
                    .collect(),
            );
        }
        repo
    }

    /// Extracts a spec from a repository (inverse of [`HistorySpec::build`]).
    pub fn from_repo(repo: &Repository) -> HistorySpec {
        HistorySpec {
            commits: repo
                .commits()
                .iter()
                .map(|c| CommitSpec {
                    author: repo.author(c.author).name.clone(),
                    timestamp: c.timestamp,
                    message: c.message.clone(),
                    writes: c
                        .writes
                        .iter()
                        .map(|w| WriteSpec {
                            path: w.path.clone(),
                            content: w.content.clone(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// A single-commit history covering `files`, for projects without
    /// version-control data: everything belongs to one unknown author.
    pub fn single_author(files: &[(String, String)]) -> HistorySpec {
        HistorySpec {
            commits: vec![CommitSpec {
                author: "unknown".into(),
                timestamp: 0,
                message: "imported working tree".into(),
                writes: files
                    .iter()
                    .map(|(path, content)| WriteSpec {
                        path: path.clone(),
                        content: content.clone(),
                    })
                    .collect(),
            }],
        }
    }

    /// The spec as a JSON value.
    fn json_value(&self) -> Json {
        let commits = self
            .commits
            .iter()
            .map(|c| {
                let writes = c
                    .writes
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("path".into(), Json::Str(w.path.clone())),
                            ("content".into(), Json::Str(w.content.clone())),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("author".into(), Json::Str(c.author.clone())),
                    ("timestamp".into(), Json::Int(c.timestamp)),
                    ("message".into(), Json::Str(c.message.clone())),
                    ("writes".into(), Json::Arr(writes)),
                ])
            })
            .collect();
        Json::Obj(vec![("commits".into(), Json::Arr(commits))])
    }

    /// Compact `history.json` text.
    pub fn to_json(&self) -> String {
        self.json_value().to_string()
    }

    /// Pretty-printed `history.json` text.
    pub fn to_json_pretty(&self) -> String {
        self.json_value().to_string_pretty()
    }

    /// Parses `history.json` text in one pass: commits and writes are read
    /// straight from the bytes through a [`json::Cursor`], with no [`Json`]
    /// tree in between, and each path, message and content is copied once.
    ///
    /// The outcome is that of parsing the whole document and then checking
    /// its shape: a JSON syntax error anywhere wins over a shape error
    /// (after a shape error the rest is only syntax-checked), a duplicated
    /// member counts by its first occurrence, and of several shape errors
    /// the one reported is the first in check order: the `"commits"` array,
    /// then per commit its `"writes"` (each write's `"path"`, then its
    /// `"content"`), `"author"`, `"timestamp"` and `"message"`.
    pub fn from_json(text: &str) -> Result<HistorySpec, String> {
        let mut cur = json::Cursor::new(text);
        let mut read = Reader::default();
        read.document(&mut cur).map_err(|e| e.to_string())?;
        match (read.commits, read.shape) {
            (None, _) => Err("history spec: missing \"commits\" array".to_string()),
            (Some(_), Some(shape)) => Err(shape),
            (Some(commits), None) => Ok(HistorySpec { commits }),
        }
    }
}

/// The state of one [`HistorySpec::from_json`] pass.
#[derive(Default)]
struct Reader {
    /// The commits read so far, once the first `"commits"` member has
    /// turned out to be an array.
    commits: Option<Vec<CommitSpec>>,
    /// The first shape error in check order. From then on, the reader only
    /// checks syntax.
    shape: Option<String>,
}

impl Reader {
    /// The document: an object whose first `"commits"` member is read as
    /// commits; everything else only has to be JSON.
    fn document(&mut self, cur: &mut json::Cursor) -> Result<(), ParseError> {
        cur.skip_ws();
        if cur.peek() != Some(b'{') {
            cur.value(0)?;
            return cur.finish();
        }
        let mut seen = false;
        cur.members(|cur, key| {
            if key == "commits" && !std::mem::replace(&mut seen, true) && cur.peek() == Some(b'[') {
                self.commits = Some(Vec::new());
                let mut i = 0;
                cur.items(|cur| {
                    i += 1;
                    self.commit(cur, i - 1)
                })
            } else {
                cur.value(1).map(drop)
            }
        })?;
        cur.finish()
    }

    /// Commit `#i`, depth 2 of the document.
    fn commit(&mut self, cur: &mut json::Cursor, i: usize) -> Result<(), ParseError> {
        if self.shape.is_some() || cur.peek() != Some(b'{') {
            cur.value(2)?;
            self.shape.get_or_insert_with(|| missing(i, "writes"));
            return Ok(());
        }
        let (mut writes, mut author, mut timestamp, mut message) = (None, None, None, None);
        cur.members(|cur, key| {
            match &*key {
                "writes" if writes.is_none() => writes = Some(read_writes(cur, i)?),
                "author" if author.is_none() => author = Some(string(cur, 3)?),
                "timestamp" if timestamp.is_none() => timestamp = Some(cur.value(3)?.as_i64()),
                "message" if message.is_none() => message = Some(string(cur, 3)?),
                _ => drop(cur.value(3)?),
            }
            Ok(())
        })?;
        // Fields are evaluated in the order written: the check order.
        let commit = (|| {
            Ok(CommitSpec {
                writes: writes.ok_or_else(|| missing(i, "writes"))??,
                author: required(author, i, "author", "a string")?,
                timestamp: required(timestamp, i, "timestamp", "an integer")?,
                message: required(message, i, "message", "a string")?,
            })
        })();
        match commit {
            Ok(c) => self.commits.as_mut().expect("inside the commits").push(c),
            Err(e) => self.shape = Some(e),
        }
        Ok(())
    }
}

/// Commit `#i`'s `"writes"` member, depth 3: the writes, or the first
/// shape error among them (after it, the rest is only syntax-checked).
fn read_writes(
    cur: &mut json::Cursor,
    i: usize,
) -> Result<Result<Vec<WriteSpec>, String>, ParseError> {
    if cur.peek() != Some(b'[') {
        cur.value(3)?;
        return Ok(Err(format!("commit #{i}: \"writes\" must be an array")));
    }
    let mut out = Ok(Vec::new());
    cur.items(|cur| {
        let Ok(writes) = &mut out else {
            return cur.value(4).map(drop);
        };
        let (mut path, mut content) = (None, None);
        if cur.peek() == Some(b'{') {
            cur.members(|cur, key| {
                let slot = match &*key {
                    "path" if path.is_none() => &mut path,
                    "content" if content.is_none() => &mut content,
                    _ => return cur.value(5).map(drop),
                };
                *slot = Some(string(cur, 5)?);
                Ok(())
            })?;
        } else {
            cur.value(4)?;
        }
        let j = writes.len();
        match (path.flatten(), content.flatten()) {
            (Some(path), Some(content)) => writes.push(WriteSpec { path, content }),
            (None, _) => out = Err(format!("commit #{i} write #{j}: bad \"path\"")),
            (Some(_), None) => out = Err(format!("commit #{i} write #{j}: bad \"content\"")),
        }
        Ok(())
    })?;
    Ok(out)
}

/// A string member's value at `depth`, or `None` (after checking its
/// syntax) when the value is not a string.
fn string(cur: &mut json::Cursor, depth: usize) -> Result<Option<String>, ParseError> {
    if cur.peek() == Some(b'"') {
        return Ok(Some(cur.string()?.into_owned()));
    }
    cur.value(depth)?;
    Ok(None)
}

/// The message for commit `#i` without member `name`.
fn missing(i: usize, name: &str) -> String {
    format!("commit #{i}: missing \"{name}\"")
}

/// Commit `#i`'s member `name` as read: absent, not `ty`, or its value.
fn required<T>(member: Option<Option<T>>, i: usize, name: &str, ty: &str) -> Result<T, String> {
    member
        .ok_or_else(|| missing(i, name))?
        .ok_or_else(|| format!("commit #{i}: \"{name}\" must be {ty}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_repository() {
        let spec = HistorySpec {
            commits: vec![
                CommitSpec {
                    author: "alice".into(),
                    timestamp: 100,
                    message: "init".into(),
                    writes: vec![WriteSpec {
                        path: "a.c".into(),
                        content: "int x;\n".into(),
                    }],
                },
                CommitSpec {
                    author: "bob".into(),
                    timestamp: 200,
                    message: "edit".into(),
                    writes: vec![WriteSpec {
                        path: "a.c".into(),
                        content: "int x;\nint y;\n".into(),
                    }],
                },
            ],
        };
        let repo = spec.build();
        assert_eq!(repo.author_count(), 2);
        assert_eq!(
            repo.blame_author("a.c", 2)
                .map(|a| repo.author(a).name.clone()),
            Some("bob".to_string())
        );
        let back = HistorySpec::from_repo(&repo);
        assert_eq!(spec, back);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = HistorySpec {
            commits: vec![CommitSpec {
                author: "alice \"quoted\"".into(),
                timestamp: -3,
                message: "line1\nline2\t🎉".into(),
                writes: vec![WriteSpec {
                    path: "dir/a.c".into(),
                    content: "int x;\n".into(),
                }],
            }],
        };
        let compact = spec.to_json();
        let pretty = spec.to_json_pretty();
        assert_eq!(HistorySpec::from_json(&compact).unwrap(), spec);
        assert_eq!(HistorySpec::from_json(&pretty).unwrap(), spec);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn from_json_reports_shape_errors() {
        assert!(HistorySpec::from_json("{}").is_err());
        assert!(HistorySpec::from_json("{\"commits\":[{}]}").is_err());
        assert!(HistorySpec::from_json("not json").is_err());
    }

    #[test]
    fn single_author_covers_all_files() {
        let files = vec![
            ("a.c".to_string(), "int a;\n".to_string()),
            ("b.c".to_string(), "int b;\n".to_string()),
        ];
        let repo = HistorySpec::single_author(&files).build();
        assert_eq!(repo.paths().len(), 2);
        assert!(repo.blame_author("b.c", 1).is_some());
    }
}
