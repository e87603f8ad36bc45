//! Property tests for the VCS substrate: the diff/patch inverse law, blame
//! coverage, checkout consistency, the forward replay, line maps, and the
//! `history.json` loader.
//!
//! Each property runs as a deterministic loop over cases drawn from a
//! seeded [`SplitMix64`]; a failing case prints its case number so it can
//! be replayed exactly.

use std::collections::BTreeMap;

use vc_obs::{
    json,
    Json,
    SplitMix64, //
};
use vc_vcs::{
    diff::{
        churn,
        diff_lines,
        patch,
        Edit,
        LineMap, //
    },
    spec::{
        CommitSpec,
        WriteSpec, //
    },
    BlameEntry, Commit, CommitId, FileWrite, HistorySpec, Repository,
};

/// A random file as a vector of short lines over a tiny alphabet, so that
/// diffs see plenty of genuine matches and moves.
fn random_lines(rng: &mut SplitMix64, max_lines: usize) -> Vec<String> {
    const POOL: &[char] = &['a', 'b', 'c', 'd', 'x', 'y', 'z'];
    let n = rng.range_usize(0, max_lines);
    (0..n)
        .map(|_| {
            let len = rng.range_inclusive_usize(0, 3);
            (0..len).map(|_| *rng.choice(POOL)).collect()
        })
        .collect()
}

/// A random history: each revision is a full rewrite of the file.
fn random_history(rng: &mut SplitMix64, min_revs: usize, max_revs: usize) -> Vec<Vec<String>> {
    let n = rng.range_usize(min_revs, max_revs);
    (0..n).map(|_| random_lines(rng, 40)).collect()
}

/// patch(old, diff(old, new)) == new, always.
#[test]
fn patch_of_diff_is_identity() {
    let mut rng = SplitMix64::new(0xC1);
    for case in 0..200 {
        let old = random_lines(&mut rng, 40);
        let new = random_lines(&mut rng, 40);
        let script = diff_lines(&old, &new);
        assert_eq!(patch(&old, &script), new, "case {case}: {old:?} -> {new:?}");
    }
}

/// A diff never claims more churn than a full rewrite.
#[test]
fn churn_is_bounded() {
    let mut rng = SplitMix64::new(0xC2);
    for case in 0..200 {
        let old = random_lines(&mut rng, 40);
        let new = random_lines(&mut rng, 40);
        let script = diff_lines(&old, &new);
        assert!(churn(&script) <= old.len() + new.len(), "case {case}");
    }
}

/// Diffing a file against itself is pure Keep.
#[test]
fn self_diff_is_empty() {
    let mut rng = SplitMix64::new(0xC3);
    for case in 0..200 {
        let old = random_lines(&mut rng, 40);
        let script = diff_lines(&old, &old);
        assert_eq!(churn(&script), 0, "case {case}: {old:?}");
    }
}

/// After any sequence of commits, blame covers exactly the file's lines,
/// and every blame entry names a registered author and commit.
#[test]
fn blame_covers_exactly_the_file() {
    let mut rng = SplitMix64::new(0xC4);
    for case in 0..60 {
        let contents = random_history(&mut rng, 1, 6);
        let mut repo = Repository::new();
        let authors = [repo.add_author("a"), repo.add_author("b")];
        for (i, lines) in contents.iter().enumerate() {
            repo.commit(
                authors[i % 2],
                1_000 + i as i64,
                format!("rev {i}"),
                vec![FileWrite {
                    path: "f".into(),
                    content: lines.join("\n") + "\n",
                }],
            );
        }
        let last = contents.last().unwrap();
        // Writing an empty line list still produces "\n": one empty line,
        // matching git's accounting of a file containing a single newline.
        let expect = last.len().max(1);
        assert_eq!(repo.line_count("f"), expect, "case {case}");
        for line in 1..=expect as u32 {
            let b = repo.blame("f", line).expect("line has blame");
            assert!(authors.contains(&b.author), "case {case}");
            assert!((b.commit.0 as usize) < contents.len(), "case {case}");
        }
        assert!(repo.blame("f", expect as u32 + 1).is_none(), "case {case}");
    }
}

/// `checkout(c)` reproduces the blame the repository had at commit `c`.
#[test]
fn checkout_blame_matches_incremental_blame() {
    let mut rng = SplitMix64::new(0xC5);
    for case in 0..60 {
        let contents = random_history(&mut rng, 2, 6);
        // Build incrementally, capturing blame after the first commit.
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        let mut first_commit = None;
        let mut first_blames = Vec::new();
        for (i, lines) in contents.iter().enumerate() {
            let id = repo.commit(
                if i % 2 == 0 { a } else { b },
                1_000 + i as i64,
                format!("rev {i}"),
                vec![FileWrite {
                    path: "f".into(),
                    content: lines.join("\n") + "\n",
                }],
            );
            if i == 0 {
                first_commit = Some(id);
                for line in 1..=repo.line_count("f") as u32 {
                    first_blames.push(repo.blame("f", line).unwrap());
                }
            }
        }
        let old = repo.checkout(first_commit.unwrap());
        assert_eq!(old.line_count("f"), first_blames.len(), "case {case}");
        for (i, expect) in first_blames.iter().enumerate() {
            assert_eq!(old.blame("f", i as u32 + 1), Some(*expect), "case {case}");
        }
    }
}

/// Snapshot trees agree with replayed file contents.
#[test]
fn snapshot_matches_final_content() {
    let mut rng = SplitMix64::new(0xC6);
    for case in 0..60 {
        let contents = random_history(&mut rng, 1, 5);
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let mut last = None;
        for (i, lines) in contents.iter().enumerate() {
            last = Some(repo.commit(
                a,
                i as i64,
                "c",
                vec![FileWrite {
                    path: "f".into(),
                    content: lines.join("\n") + "\n",
                }],
            ));
        }
        let snap = repo.snapshot_at(last.unwrap());
        let expected = contents.last().unwrap().join("\n") + "\n";
        assert_eq!(snap.get("f"), Some(&expected), "case {case}");
    }
}

/// The textbook line diff the shared count-based core replaced: prefix and
/// suffix trimming, an exact LCS table on the middle, and a final pass that
/// merges adjacent same-kind hunks. Kept as the reference `diff_lines` must
/// agree with.
fn reference_diff(old: &[String], new: &[String]) -> Vec<Edit> {
    let mut prefix = 0;
    while prefix < old.len() && prefix < new.len() && old[prefix] == new[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < old.len() - prefix
        && suffix < new.len() - prefix
        && old[old.len() - 1 - suffix] == new[new.len() - 1 - suffix]
    {
        suffix += 1;
    }
    let (o, n) = (
        &old[prefix..old.len() - suffix],
        &new[prefix..new.len() - suffix],
    );
    let mut edits = vec![Edit::Keep(prefix)];
    let mut lcs = vec![vec![0u32; n.len() + 1]; o.len() + 1];
    for i in (0..o.len()).rev() {
        for j in (0..n.len()).rev() {
            lcs[i][j] = if o[i] == n[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let (mut i, mut j) = (0, 0);
    while i < o.len() && j < n.len() {
        if o[i] == n[j] {
            edits.push(Edit::Keep(1));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            edits.push(Edit::Delete(1));
            i += 1;
        } else {
            edits.push(Edit::Insert(vec![n[j].clone()]));
            j += 1;
        }
    }
    edits.push(Edit::Delete(o.len() - i));
    edits.push(Edit::Insert(n[j..].to_vec()));
    edits.push(Edit::Keep(suffix));

    let mut out: Vec<Edit> = Vec::new();
    for e in edits {
        match (out.last_mut(), e) {
            (_, Edit::Keep(0) | Edit::Delete(0)) => {}
            (_, Edit::Insert(lines)) if lines.is_empty() => {}
            (Some(Edit::Keep(a)), Edit::Keep(b)) => *a += b,
            (Some(Edit::Delete(a)), Edit::Delete(b)) => *a += b,
            (Some(Edit::Insert(a)), Edit::Insert(b)) => a.extend(b),
            (_, e) => out.push(e),
        }
    }
    out
}

/// `diff_lines` patches `old` into `new` and returns the reference
/// algorithm's script, hunk for hunk, along a seeded random history.
#[test]
fn diff_matches_reference_along_histories() {
    let mut rng = SplitMix64::new(0xC7);
    for case in 0..80 {
        let revs = random_history(&mut rng, 2, 8);
        for (k, pair) in revs.windows(2).enumerate() {
            let (old, new) = (&pair[0], &pair[1]);
            let script = diff_lines(old, new);
            assert_eq!(patch(old, &script), *new, "case {case} rev {k}");
            let reference = reference_diff(old, new);
            assert_eq!(script.len(), reference.len(), "case {case} rev {k}");
            assert_eq!(script, reference, "case {case} rev {k}");
        }
    }
}

/// A random multi-file, multi-author history spec. Contents end with or
/// without a newline; messages and authors carry characters JSON escapes.
fn random_spec(rng: &mut SplitMix64) -> HistorySpec {
    const AUTHORS: &[&str] = &["alice", "bob \"b\"", "żółć 💡"];
    const PATHS: &[&str] = &["a.c", "dir/b.c", "c.c"];
    let commits = (0..rng.range_usize(1, 10))
        .map(|i| CommitSpec {
            author: rng.choice(AUTHORS).to_string(),
            // Some timestamps go backwards: the repository clamps them.
            timestamp: 1_000 + rng.range_usize(0, 50) as i64 * 10 - 200,
            message: format!("rev {i}\n\tbody \\ {}", rng.choice(AUTHORS)),
            writes: (0..rng.range_inclusive_usize(1, 3))
                .map(|_| {
                    let lines = random_lines(rng, 30);
                    let eol = if rng.range_usize(0, 2) == 0 { "" } else { "\n" };
                    WriteSpec {
                        path: rng.choice(PATHS).to_string(),
                        content: lines.join("\n") + eol,
                    }
                })
                .collect(),
        })
        .collect();
    HistorySpec { commits }
}

/// Loading a spec from its JSON by value gives the repository `build`
/// gives by reference: same authors, commits, logs, contents and blame.
#[test]
fn json_load_by_value_matches_build() {
    let mut rng = SplitMix64::new(0xC8);
    for case in 0..60 {
        let spec = random_spec(&mut rng);
        let want = spec.build();
        for text in [spec.to_json(), spec.to_json_pretty()] {
            let got = HistorySpec::from_json(&text)
                .unwrap_or_else(|e| panic!("case {case}: {e}"))
                .into_repository();
            assert_eq!(
                HistorySpec::from_repo(&got),
                HistorySpec::from_repo(&want),
                "case {case}"
            );
            assert_eq!(got.author_count(), want.author_count(), "case {case}");
            assert_eq!(got.paths(), want.paths(), "case {case}");
            for path in want.paths() {
                assert_eq!(got.log(path), want.log(path), "case {case} {path}");
                assert_eq!(
                    got.file_content(path),
                    want.file_content(path),
                    "case {case} {path}"
                );
                let lines = want.line_count(path) as u32;
                assert_eq!(got.line_count(path), lines as usize, "case {case}");
                for line in 0..=lines + 1 {
                    assert_eq!(
                        got.blame(path, line),
                        want.blame(path, line),
                        "case {case} {path}:{line}"
                    );
                }
            }
        }
    }
}

/// Every shape error of `from_json` keeps its exact message.
#[test]
fn from_json_shape_errors_keep_their_messages() {
    let w = r#"{"path":"a.c","content":"x"}"#;
    let commit = |fields: &str| format!(r#"{{"commits":[{fields}]}}"#);
    for (text, want) in [
        ("{}".to_string(), r#"history spec: missing "commits" array"#),
        (
            r#"{"commits":{}}"#.to_string(),
            r#"history spec: missing "commits" array"#,
        ),
        ("[]".to_string(), r#"history spec: missing "commits" array"#),
        (commit("{}"), r#"commit #0: missing "writes""#),
        (commit("1"), r#"commit #0: missing "writes""#),
        (
            commit(r#"{"writes":{}}"#),
            r#"commit #0: "writes" must be an array"#,
        ),
        (
            commit(r#"{"writes":[{"content":"x"}]}"#),
            r#"commit #0 write #0: bad "path""#,
        ),
        (
            commit(&format!(
                r#"{{"writes":[{w},{{"path":"b.c","content":7}}]}}"#
            )),
            r#"commit #0 write #1: bad "content""#,
        ),
        (
            commit(r#"{"writes":["a.c"]}"#),
            r#"commit #0 write #0: bad "path""#,
        ),
        (
            commit(&format!(r#"{{"writes":[{w}]}}"#)),
            r#"commit #0: missing "author""#,
        ),
        (
            commit(&format!(r#"{{"writes":[{w}],"author":1}}"#)),
            r#"commit #0: "author" must be a string"#,
        ),
        (
            commit(&format!(r#"{{"writes":[{w}],"author":"a"}}"#)),
            r#"commit #0: missing "timestamp""#,
        ),
        (
            commit(&format!(
                r#"{{"writes":[{w}],"author":"a","timestamp":1.5}}"#
            )),
            r#"commit #0: "timestamp" must be an integer"#,
        ),
        (
            commit(&format!(r#"{{"writes":[{w}],"author":"a","timestamp":1}}"#)),
            r#"commit #0: missing "message""#,
        ),
        (
            commit(concat!(
                r#"{"writes":[],"author":"a","timestamp":1,"message":"m"},"#,
                r#"{"writes":[],"author":"a","timestamp":1,"message":null}"#
            )),
            r#"commit #1: "message" must be a string"#,
        ),
        (
            "not json".to_string(),
            "JSON error at byte 0: expected `null`",
        ),
        (
            r#"{"commits":["#.to_string(),
            "JSON error at byte 12: expected a JSON value",
        ),
    ] {
        assert_eq!(
            HistorySpec::from_json(&text),
            Err(want.to_string()),
            "{text}"
        );
    }
}

/// A commit's fields, for comparing two repositories' `commit_info`.
fn commit_fields(c: &Commit) -> (u32, u32, i64, &str, Vec<(&str, &str)>) {
    let writes = c
        .writes
        .iter()
        .map(|w| (w.path.as_str(), w.content.as_str()))
        .collect();
    (c.id.0, c.author.0, c.timestamp, &c.message, writes)
}

/// Growing one authors-only repository by `replay`, commit by commit, gives
/// at every commit the repository `checkout` materialises there, and the
/// one `commit` had built by then: same blame of every line, `log` of every
/// path, `commit_info` of every commit, contents and borrowed tree.
#[test]
fn forward_replay_matches_checkout_at_every_commit() {
    let mut rng = SplitMix64::new(0xC9);
    for case in 0..60 {
        let repo = random_spec(&mut rng).build();
        let mut running = repo.authors_only();
        let mut grown = repo.authors_only();
        assert_eq!(running.head(), None, "case {case}");
        for c in repo.commits() {
            running.replay(c);
            grown.commit(c.author, c.timestamp, c.message.clone(), c.writes.clone());
            let at = format!("case {case} commit {}", c.id.0);
            for want in [repo.checkout(c.id), grown.clone()] {
                assert_eq!(running.head(), want.head(), "{at}");
                assert_eq!(running.author_count(), want.author_count(), "{at}");
                assert_eq!(running.paths(), want.paths(), "{at}");
                for id in want.commits().iter().map(|c| c.id) {
                    assert_eq!(
                        commit_fields(running.commit_info(id)),
                        commit_fields(want.commit_info(id)),
                        "{at}"
                    );
                }
                for path in want.paths() {
                    assert_eq!(running.log(path), want.log(path), "{at} {path}");
                    assert_eq!(
                        running.file_content(path),
                        want.file_content(path),
                        "{at} {path}"
                    );
                    let lines = want.line_count(path) as u32;
                    assert_eq!(running.line_count(path), lines as usize, "{at} {path}");
                    for line in 0..=lines + 1 {
                        assert_eq!(
                            running.blame(path, line),
                            want.blame(path, line),
                            "{at} {path}:{line}"
                        );
                    }
                }
            }
            let mut snapshot: Vec<(String, String)> = repo.snapshot_at(c.id).into_iter().collect();
            snapshot.sort();
            let tree: Vec<(String, String)> = repo
                .tree_at(c.id)
                .into_iter()
                .map(|(p, t)| (p.to_string(), t.to_string()))
                .collect();
            assert_eq!(tree, snapshot, "{at}");
        }
    }
}

/// `LineMap::between` over borrowed `&str` lines, built from the count-only
/// script, equals the map built from `diff_lines`' copying script, on
/// random edits of random files, empty ones included.
#[test]
fn line_map_between_borrowed_lines_matches_diff_lines() {
    let mut rng = SplitMix64::new(0xCA);
    for case in 0..300 {
        let old = if case % 10 == 0 {
            Vec::new()
        } else {
            random_lines(&mut rng, 40)
        };
        let new = match case % 4 {
            // An unrelated file.
            0 => random_lines(&mut rng, 40),
            // Everything deleted.
            1 if case % 20 == 1 => Vec::new(),
            // A few line edits, insertions and deletions.
            _ => {
                let mut new = old.clone();
                for _ in 0..rng.range_inclusive_usize(1, 4) {
                    let at = rng.range_usize(0, new.len() + 1);
                    match rng.range_usize(0, 3) {
                        0 => new.insert(at, random_lines(&mut rng, 2).concat()),
                        1 if at < new.len() => {
                            new.remove(at);
                        }
                        _ if at < new.len() => new[at].push('!'),
                        _ => new.push("tail".into()),
                    }
                }
                new
            }
        };
        let old_refs: Vec<&str> = old.iter().map(String::as_str).collect();
        let new_refs: Vec<&str> = new.iter().map(String::as_str).collect();
        let borrowed = LineMap::between(&old_refs, &new_refs);
        let copied = LineMap::new(&diff_lines(&old, &new));
        assert_eq!(borrowed, copied, "case {case}: {old:?} -> {new:?}");
        assert_eq!(borrowed.old_len(), old.len(), "case {case}");
        assert_eq!(borrowed.new_len(), new.len(), "case {case}");
    }
}

/// One path's state in [`LineReplay`].
#[derive(Default)]
struct ReferenceFile {
    lines: Vec<String>,
    blame: Vec<BlameEntry>,
    log: Vec<CommitId>,
}

/// The line-level blame replay the byte-trimmed one must agree with: every
/// write splits both contents into owned lines and applies the full
/// [`diff_lines`] script.
#[derive(Default)]
struct LineReplay {
    files: BTreeMap<String, ReferenceFile>,
}

impl LineReplay {
    fn write(&mut self, path: &str, content: &str, entry: BlameEntry) {
        let file = self.files.entry(path.to_string()).or_default();
        let new: Vec<String> = content.split_terminator('\n').map(String::from).collect();
        let mut old = file.blame.iter().copied();
        let mut blame = Vec::new();
        for edit in diff_lines(&file.lines, &new) {
            match edit {
                Edit::Keep(n) => blame.extend(old.by_ref().take(n)),
                Edit::Delete(n) => old.by_ref().take(n).for_each(drop),
                Edit::Insert(lines) => blame.extend(std::iter::repeat_n(entry, lines.len())),
            }
        }
        file.lines = new;
        file.blame = blame;
        file.log.push(entry.commit);
    }

    /// `repo` has this replay's paths, and per path its log, line count,
    /// blame of every line (and of the lines just outside), content and
    /// head check.
    fn assert_matches(&self, repo: &Repository, at: &str) {
        let paths: Vec<&str> = self.files.keys().map(String::as_str).collect();
        assert_eq!(repo.paths(), paths, "{at}");
        for (path, file) in &self.files {
            assert_eq!(repo.log(path), &file.log[..], "{at} {path}");
            let n = file.lines.len() as u32;
            assert_eq!(repo.line_count(path), n as usize, "{at} {path}");
            for line in 0..=n + 1 {
                let want = line
                    .checked_sub(1)
                    .and_then(|i| file.blame.get(i as usize).copied());
                assert_eq!(repo.blame(path, line), want, "{at} {path}:{line}");
            }
            let text = file.lines.join("\n");
            assert_eq!(repo.file_content(path), Some(text.clone()), "{at} {path}");
            for probe in [
                text.clone(),
                format!("{text}\n"),
                format!("{text}\n\n"),
                format!("{text}x"),
                String::new(),
                "\n".to_string(),
            ] {
                let same = probe
                    .split_terminator('\n')
                    .eq(file.lines.iter().map(String::as_str));
                assert_eq!(
                    repo.head_matches(path, &probe),
                    same,
                    "{at} {path} {probe:?}"
                );
            }
        }
    }
}

/// Lines over characters whose UTF-8 encodings share leading bytes (`é` and
/// `è`, `€` and `₤`), so that a byte mismatch can fall inside a character.
const LINE_POOL: &[&str] = &["", "a", "ab", "abc", "é", "è", "a€b", "a₤b", "💡", "x é"];

/// One random edit of a file's content, at line or byte level.
fn edit_content(rng: &mut SplitMix64, content: &str) -> String {
    let mut lines: Vec<String> = content.split_terminator('\n').map(String::from).collect();
    let mut eol = content.ends_with('\n') || content.is_empty();
    let at = rng.range_usize(0, lines.len() + 1);
    let block = at..(at + rng.range_inclusive_usize(1, 3)).min(lines.len());
    match rng.range_usize(0, 14) {
        // A block of lines repeated, or removed: the shared prefix and
        // suffix then overlap in the longer side.
        12 if !block.is_empty() => {
            let copy = lines[block.clone()].to_vec();
            lines.splice(block.end..block.end, copy);
        }
        13 if !block.is_empty() => {
            lines.drain(block);
        }
        0 if at < lines.len() => lines[at] = rng.choice(LINE_POOL).to_string(),
        1 => lines.insert(at, rng.choice(LINE_POOL).to_string()),
        2 if at < lines.len() => {
            lines.remove(at);
        }
        // A mismatch in the middle of a line (`ab` -> `abc`).
        3 if at < lines.len() => lines[at].push_str(rng.choice::<&str>(&["c", "é", "€"])),
        // The last character swapped for one sharing its leading bytes.
        4 if at < lines.len() => {
            if let Some(c) = lines[at].pop() {
                let swapped = match c {
                    'é' => 'è',
                    'è' => 'é',
                    '€' => '₤',
                    '₤' => '€',
                    'b' => 'c',
                    _ => 'b',
                };
                lines[at].push(swapped);
            }
        }
        5 => eol = !eol,
        // An extra blank last line.
        6 => {
            lines.push(String::new());
            eol = true;
        }
        // An identical rewrite.
        7 => {}
        8 => lines.clear(),
        9 => {
            lines = (0..rng.range_usize(0, 12))
                .map(|_| rng.choice(LINE_POOL).to_string())
                .collect()
        }
        10 if !lines.is_empty() => lines[0].push('a'),
        _ if !lines.is_empty() => lines.last_mut().unwrap().insert(0, 'é'),
        _ => lines.push("a".into()),
    }
    let mut out = lines.join("\n");
    if eol && !lines.is_empty() {
        out.push('\n');
    }
    out
}

/// Over seeded random histories of byte- and line-level edits, the
/// repository's replay (byte-trimmed, only the changed middle split into
/// lines) gives the blame, log, content and head check that a line-level
/// replay over the whole files gives, after every commit, for every line
/// and path.
#[test]
fn byte_trimmed_replay_matches_line_replay() {
    let mut rng = SplitMix64::new(0xCB);
    for case in 0..150 {
        let mut repo = Repository::new();
        let authors = [repo.add_author("a"), repo.add_author("b")];
        let mut reference = LineReplay::default();
        let mut contents: BTreeMap<&str, String> = BTreeMap::new();
        for i in 0..rng.range_inclusive_usize(1, 12) {
            let mut writes = Vec::new();
            for _ in 0..rng.range_inclusive_usize(1, 3) {
                let path = *rng.choice(&["a.c", "b.c"]);
                let mut content = contents.get(path).cloned().unwrap_or_default();
                for _ in 0..rng.range_inclusive_usize(1, 3) {
                    content = edit_content(&mut rng, &content);
                }
                contents.insert(path, content.clone());
                writes.push(FileWrite {
                    path: path.into(),
                    content,
                });
            }
            let entry = BlameEntry {
                author: authors[i % 2],
                commit: CommitId(i as u32),
                timestamp: i as i64,
            };
            for w in &writes {
                reference.write(&w.path, &w.content, entry);
            }
            repo.commit(entry.author, entry.timestamp, "c", writes);
            reference.assert_matches(&repo, &format!("case {case} commit {i}"));
        }
    }
}

/// The replay's edge cases one by one, each as a two-commit history against
/// the line-level replay.
#[test]
fn byte_trimmed_replay_edge_cases() {
    // 4001 x 4001 changed lines, distinct but for line 2001: above the
    // 16M-cell LCS cutoff, so the middle is replaced whole, even the line
    // both sides share.
    let big = |tag: &str| -> String {
        (0..4001)
            .map(|i| match i {
                2000 => "shared\n".to_string(),
                _ => format!("{tag}{i}\n"),
            })
            .collect()
    };
    let (big_old, big_new) = (big("o"), big("n"));
    let small: &[(&str, &str, &str)] = &[
        ("trailing newline added", "a\nb", "a\nb\n"),
        ("trailing newline dropped", "a\nb\n", "a\nb"),
        ("extra blank last line", "a\nb\n", "a\nb\n\n"),
        ("blank last line dropped", "a\nb\n\n", "a\nb\n"),
        ("mid-line mismatch", "x\nab\ny\n", "x\nabc\ny\n"),
        ("mid-line mismatch, last line", "x\nab", "x\nabc"),
        ("multibyte at the mismatch", "x\né\ny\n", "x\nè\ny\n"),
        ("multibyte mid-line", "a€b\nz\n", "a₤b\nz\n"),
        ("first line edited", "a\nb\nc\n", "A\nb\nc\n"),
        ("last line edited", "a\nb\nc\n", "a\nb\nC\n"),
        ("identical rewrite", "a\nb\n", "a\nb\n"),
        ("emptied", "a\nb\n", ""),
        ("refilled", "", "a\n"),
        ("one empty line", "", "\n"),
        ("shared line moved", "k\na\nb\nk\n", "k\nb\na\nk\n"),
        // The shared prefix and suffix overlap in the longer side.
        ("repeated block removed", "a\nb\nc\nb\nc\n", "a\nb\nc\n"),
        ("repeated block added", "a\nb\nc\n", "a\nb\nc\nb\nc\n"),
        ("repeated line removed", "x\nx\nx\n", "x\nx\n"),
    ];
    let mut cases: Vec<(&str, String, String)> = small
        .iter()
        .map(|&(name, old, new)| (name, old.to_string(), new.to_string()))
        .collect();
    cases.push(("above the LCS cutoff", big_old, big_new));
    for (name, old, new) in cases {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        let mut reference = LineReplay::default();
        for (i, (author, content)) in [(a, &old), (b, &new)].into_iter().enumerate() {
            let entry = BlameEntry {
                author,
                commit: CommitId(i as u32),
                timestamp: i as i64,
            };
            reference.write("f", content, entry);
            repo.commit(
                author,
                entry.timestamp,
                "c",
                vec![FileWrite {
                    path: "f".into(),
                    content: content.clone(),
                }],
            );
            reference.assert_matches(&repo, &format!("{name}, commit {i}"));
        }
        if name == "above the LCS cutoff" {
            let shared = 2001;
            assert_eq!(repo.blame_author("f", shared), Some(b), "{name}");
        }
    }
}

/// The `history.json` walk `from_json` replaced: parse the whole document
/// into a [`Json`] tree, then move each member out of it.
fn reference_from_json(text: &str) -> Result<HistorySpec, String> {
    fn take(obj: &mut Json, key: &str) -> Option<Json> {
        match obj {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }
    fn field(c: &mut Json, i: usize, name: &str) -> Result<Json, String> {
        take(c, name).ok_or_else(|| format!("commit #{i}: missing \"{name}\""))
    }
    fn str_field(c: &mut Json, i: usize, name: &str) -> Result<String, String> {
        match field(c, i, name)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("commit #{i}: \"{name}\" must be a string")),
        }
    }
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

/// Members a mutation inserts at the start of an object: duplicates of the
/// members the reader wants (well- and ill-typed), unknown ones, `\u`
/// escapes with good and broken surrogates, a timestamp beyond `i64`.
const MEMBERS: &[&str] = &[
    r#""author":"dup","#,
    r#""author":7,"#,
    r#""message":"é\n","#,
    r#""timestamp":99999999999999999999,"#,
    r#""timestamp":-9223372036854775808,"#,
    r#""timestamp":1e3,"#,
    r#""timestamp":-,"#,
    r#""writes":{},"#,
    r#""writes":[],"#,
    r#""writes":[{"path":"x.c","content":"1\n"}],"#,
    r#""path":"p.c","#,
    r#""content":null,"#,
    r#""commits":[],"#,
    r#""unknown":[1,{"a":null},true,false,-2.5e-3],"#,
    r#""s":"😀\ud83d\ude00","#,
    r#""s":"\ud83d","#,
    r#""s":"\udc00","#,
    r#""s":"\ud83dA","#,
    r#""s":"\ud83d\u0041","#,
    r#""auth\u006fr":"escaped key","#,
    r#""p\u0061th":"escaped.c","#,
    r#""s":"\x","#,
];

/// One mutation of `text` at a character boundary.
fn mutate(rng: &mut SplitMix64, text: &mut String) {
    const CHARS: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', '0', '-', 'e', '.', ' ', 'n', 'x', '\u{1}', 'é',
    ];
    let boundaries: Vec<usize> = (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect();
    let at = *rng.choice(&boundaries);
    match rng.range_usize(0, 12) {
        // Flip one character.
        0 if at < text.len() => {
            let len = text[at..].chars().next().unwrap().len_utf8();
            text.replace_range(at..at + len, &rng.choice(CHARS).to_string());
        }
        1 => text.truncate(at),
        // A member at the start of some object.
        2..=6 => {
            let opens: Vec<usize> = text.match_indices('{').map(|(i, _)| i + 1).collect();
            if let Some(&open) = opens.get(rng.range_usize(0, opens.len().max(1))) {
                text.insert_str(open, rng.choice::<&str>(MEMBERS));
            }
        }
        // A nested member around the depth limit.
        7 => {
            let opens: Vec<usize> = text.match_indices('{').map(|(i, _)| i + 1).collect();
            if let Some(&open) = opens.get(rng.range_usize(0, opens.len().max(1))) {
                let depth = rng.range_inclusive_usize(120, 130);
                let nested = format!(r#""deep":{}{}, "#, "[".repeat(depth), "]".repeat(depth));
                text.insert_str(open, &nested);
            }
        }
        // A member renamed away.
        8 | 9 => {
            let keys: Vec<usize> = text.match_indices("\":").map(|(i, _)| i).collect();
            if let Some(&end) = keys.get(rng.range_usize(0, keys.len().max(1))) {
                let start = text[..end].rfind('"').unwrap();
                text.replace_range(start + 1..end, "other");
            }
        }
        // Something after the document.
        10 => text.push_str(rng.choice::<&str>(&[" ", "\n", "x", "}", "[]", "{}"])),
        _ => text.insert(at, *rng.choice(CHARS)),
    }
}

/// `from_json` against the tree walk it replaced, over seeded random specs
/// serialized compact and pretty and then mutated: the same spec or the
/// same error string in every case.
#[test]
fn from_json_matches_the_tree_walk() {
    let mut rng = SplitMix64::new(0xCC);
    let (mut oks, mut shape, mut syntax) = (0, 0, 0);
    for case in 0..1500 {
        let spec = random_spec(&mut rng);
        let mut text = if case % 2 == 0 {
            spec.to_json()
        } else {
            spec.to_json_pretty()
        };
        if case % 10 != 0 {
            for _ in 0..rng.range_inclusive_usize(1, 2) {
                mutate(&mut rng, &mut text);
            }
        }
        let want = reference_from_json(&text);
        assert_eq!(HistorySpec::from_json(&text), want, "case {case}: {text}");
        match want {
            Ok(_) => oks += 1,
            Err(e) if e.starts_with("JSON error") => syntax += 1,
            Err(_) => shape += 1,
        }
    }
    // Specs, shape errors and syntax errors are all well represented.
    eprintln!("{oks} specs, {shape} shape errors, {syntax} syntax errors");
    assert!(
        oks > 150 && shape > 150 && syntax > 150,
        "{oks} specs, {shape} shape errors, {syntax} syntax errors"
    );
}
