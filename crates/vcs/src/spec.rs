//! A serializable history format (`history.json`) for moving repositories
//! in and out of the process — the interchange format of the `vcheck` and
//! `genapp` command-line tools.

use vc_obs::{
    json,
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

    /// Parses `history.json` text. Every string is moved out of the parsed
    /// tree, so each byte of content is copied once, by the parser.
    pub fn from_json(text: &str) -> Result<HistorySpec, String> {
        let mut doc = json::parse(text).map_err(|e| e.to_string())?;
        let Some(Json::Arr(commits)) = take(&mut doc, "commits") else {
            return Err("history spec: missing \"commits\" array".to_string());
        };
        let mut out = HistorySpec {
            commits: Vec::with_capacity(commits.len()),
        };
        for (i, mut c) in commits.into_iter().enumerate() {
            let Json::Arr(ws) = field(&mut c, i, "writes")? else {
                return Err(format!("commit #{i}: \"writes\" must be an array"));
            };
            let mut writes = Vec::with_capacity(ws.len());
            for (j, mut w) in ws.into_iter().enumerate() {
                let mut wstr = |name: &str| match take(&mut w, name) {
                    Some(Json::Str(s)) => Ok(s),
                    _ => Err(format!("commit #{i} write #{j}: bad \"{name}\"")),
                };
                writes.push(WriteSpec {
                    path: wstr("path")?,
                    content: wstr("content")?,
                });
            }
            out.commits.push(CommitSpec {
                author: str_field(&mut c, i, "author")?,
                timestamp: field(&mut c, i, "timestamp")?
                    .as_i64()
                    .ok_or_else(|| format!("commit #{i}: \"timestamp\" must be an integer"))?,
                message: str_field(&mut c, i, "message")?,
                writes,
            });
        }
        Ok(out)
    }
}

/// Moves the member `key` out of an object (the first match, as
/// [`Json::get`] finds it), leaving `null` in its place.
fn take(obj: &mut Json, key: &str) -> Option<Json> {
    match obj {
        Json::Obj(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Json::Null)),
        _ => None,
    }
}

/// Member `name` of commit `#i`.
fn field(c: &mut Json, i: usize, name: &str) -> Result<Json, String> {
    take(c, name).ok_or_else(|| format!("commit #{i}: missing \"{name}\""))
}

/// String member `name` of commit `#i`.
fn str_field(c: &mut Json, i: usize, name: &str) -> Result<String, String> {
    match field(c, i, name)? {
        Json::Str(s) => Ok(s),
        _ => Err(format!("commit #{i}: \"{name}\" must be a string")),
    }
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
