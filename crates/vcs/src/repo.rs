//! An in-memory version-control repository with per-line blame.
//!
//! The GitPython substitute: ValueCheck's authorship lookup needs
//! `blame(file, line) → author` and `log(file) → commits`, and its
//! familiarity model needs per-author delivery counts. The repository keeps a
//! linear history (like `git log --first-parent`) where each commit writes
//! full file contents; blame is maintained incrementally by diffing each
//! write against the previous content.

use std::collections::{
    BTreeMap,
    HashMap, //
};

use crate::diff::{
    diff_hunks,
    Hunk, //
};

/// Identifier of an author.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AuthorId(pub u32);

/// Identifier of a commit; ids increase in history order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommitId(pub u32);

/// An author identity.
#[derive(Clone, Debug)]
pub struct Author {
    /// Display name.
    pub name: String,
}

/// One file modification inside a commit (full new content).
#[derive(Clone, Debug)]
pub struct FileWrite {
    /// Repository-relative path.
    pub path: String,
    /// Complete new content.
    pub content: String,
}

/// A commit: author, timestamp, message, and file writes.
#[derive(Clone, Debug)]
pub struct Commit {
    /// The commit id.
    pub id: CommitId,
    /// Who authored it.
    pub author: AuthorId,
    /// Unix timestamp (seconds).
    pub timestamp: i64,
    /// Commit message.
    pub message: String,
    /// Files written by this commit.
    pub writes: Vec<FileWrite>,
}

/// Blame information for one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlameEntry {
    /// The author of the line's last modification.
    pub author: AuthorId,
    /// The commit that introduced the line.
    pub commit: CommitId,
    /// Timestamp of that commit.
    pub timestamp: i64,
}

/// One file's blame, and the write that gave the file its current content.
#[derive(Clone, Debug, Default)]
struct FileState {
    /// Blame of each current line.
    blame: Vec<BlameEntry>,
    /// `(commit, index into its writes)` of the last write of the file.
    last: Option<(CommitId, usize)>,
}

impl FileState {
    /// The file's current content, borrowed from the write that last
    /// wrote it.
    fn content<'c>(&self, commits: &'c [Commit]) -> &'c str {
        self.last
            .map_or("", |(c, k)| &commits[c.0 as usize].writes[k].content)
    }
}

/// `map[key]`, inserted as the default first when absent: the key is
/// cloned only for a new entry, not on every lookup as `entry` would.
fn entry_mut<'m, V: Default>(map: &'m mut HashMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above when absent")
}

/// An in-memory repository with a linear history.
#[derive(Clone, Debug, Default)]
pub struct Repository {
    authors: Vec<Author>,
    commits: Vec<Commit>,
    files: HashMap<String, FileState>,
    /// Per-file list of commit ids that touched the file, oldest first.
    file_log: HashMap<String, Vec<CommitId>>,
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new author.
    pub fn add_author(&mut self, name: impl Into<String>) -> AuthorId {
        let id = AuthorId(self.authors.len() as u32);
        self.authors.push(Author { name: name.into() });
        id
    }

    /// The author with the given id.
    pub fn author(&self, id: AuthorId) -> &Author {
        &self.authors[id.0 as usize]
    }

    /// Number of registered authors.
    pub fn author_count(&self) -> usize {
        self.authors.len()
    }

    /// Records a commit writing the given files, returning its id.
    ///
    /// Timestamps must be non-decreasing across commits; out-of-order
    /// timestamps are clamped to the previous commit's to keep the history
    /// linear, matching how a rebase-based workflow behaves.
    pub fn commit(
        &mut self,
        author: AuthorId,
        timestamp: i64,
        message: impl Into<String>,
        writes: Vec<FileWrite>,
    ) -> CommitId {
        let timestamp = match self.commits.last() {
            Some(prev) if timestamp < prev.timestamp => prev.timestamp,
            _ => timestamp,
        };
        let id = CommitId(self.commits.len() as u32);
        self.record(Commit {
            id,
            author,
            timestamp,
            message: message.into(),
            writes,
        });
        id
    }

    /// A repository with this one's authors and no commits: the start of
    /// a replay that [`replay`](Repository::replay) extends one commit at a
    /// time.
    pub fn authors_only(&self) -> Repository {
        Repository {
            authors: self.authors.clone(),
            ..Repository::default()
        }
    }

    /// Appends `commit`, the next commit of a repository this one was
    /// started from with [`authors_only`](Repository::authors_only), and
    /// replays its writes into blame and the per-file logs. After replaying
    /// every commit up to `c`, this repository equals `checkout(c)` of the
    /// one it replays.
    ///
    /// # Panics
    ///
    /// Panics if `commit` is not the next commit in this history.
    pub fn replay(&mut self, commit: &Commit) {
        assert_eq!(
            commit.id,
            CommitId(self.commits.len() as u32),
            "replay must follow the history in order"
        );
        self.record(commit.clone());
    }

    /// Appends a commit to the history, then replays its writes into blame
    /// and the per-file logs. Each write diffs against the content its
    /// file had before, which some earlier write (possibly of this same
    /// commit) holds.
    fn record(&mut self, commit: Commit) {
        let id = commit.id;
        self.commits.push(commit);
        let commit = &self.commits[id.0 as usize];
        let blame = BlameEntry {
            author: commit.author,
            commit: id,
            timestamp: commit.timestamp,
        };
        for (k, w) in commit.writes.iter().enumerate() {
            let state = entry_mut(&mut self.files, &w.path);
            let old = state.content(&self.commits);
            replay_write(&mut state.blame, old, &w.content, blame);
            state.last = Some((id, k));
            entry_mut(&mut self.file_log, &w.path).push(id);
        }
    }

    /// Replaces what the head commit wrote to `path` with `content`, as if
    /// the commit had written it: that write and the file's blame change,
    /// nothing else. Since the head commit is the only one that wrote
    /// `path`, the result equals the repository the amended history
    /// builds. Re-importing one edited file of a one-commit import costs
    /// that file's lines, not the whole tree's.
    ///
    /// # Panics
    ///
    /// Panics unless `path`'s log is exactly the head commit.
    pub fn amend_head_write(&mut self, path: &str, content: String) {
        let head = self
            .commits
            .last_mut()
            .expect("amending needs a head commit");
        assert_eq!(
            self.file_log.get(path).map(Vec::as_slice),
            Some(&[head.id][..]),
            "only the head commit may have written {path}"
        );
        let blame = BlameEntry {
            author: head.author,
            commit: head.id,
            timestamp: head.timestamp,
        };
        let k = head.writes.iter().position(|w| w.path == path);
        let k = k.expect("the head commit wrote the file");
        let state = self.files.get_mut(path).expect("a logged file has blame");
        state.blame.clear();
        state.blame.resize(count_lines(&content), blame);
        // `state.last` already names this write, the only one of `path`.
        head.writes[k].content = content;
    }

    /// Current content of a file, if it exists, without its one optional
    /// trailing newline.
    pub fn file_content(&self, path: &str) -> Option<String> {
        let state = self.files.get(path)?;
        Some(strip_eol(state.content(&self.commits)).to_string())
    }

    /// Whether `content` is the current content of `path`, line by line.
    /// One trailing newline is optional; an extra trailing blank line is a
    /// difference. Compares in place, without building the file's text.
    pub fn head_matches(&self, path: &str, content: &str) -> bool {
        self.files.get(path).is_some_and(|s| {
            let head = s.content(&self.commits);
            // An empty file has no lines; `"\n"` has one empty line.
            head.is_empty() == content.is_empty() && strip_eol(head) == strip_eol(content)
        })
    }

    /// All tracked file paths, sorted.
    pub fn paths(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.files.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Blame for one line (1-based), if the file and line exist.
    pub fn blame(&self, path: &str, line: u32) -> Option<BlameEntry> {
        let state = self.files.get(path)?;
        if line == 0 {
            return None;
        }
        state.blame.get((line - 1) as usize).copied()
    }

    /// The author of one line, if known.
    pub fn blame_author(&self, path: &str, line: u32) -> Option<AuthorId> {
        self.blame(path, line).map(|b| b.author)
    }

    /// Number of lines currently in a file.
    pub fn line_count(&self, path: &str) -> usize {
        self.files.get(path).map_or(0, |s| s.blame.len())
    }

    /// Commits that touched `path`, oldest first.
    pub fn log(&self, path: &str) -> &[CommitId] {
        self.file_log.get(path).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The commit with the given id.
    pub fn commit_info(&self, id: CommitId) -> &Commit {
        &self.commits[id.0 as usize]
    }

    /// All commits, oldest first.
    pub fn commits(&self) -> &[Commit] {
        &self.commits
    }

    /// Reconstructs the full tree as of (and including) `at`, by replay.
    pub fn snapshot_at(&self, at: CommitId) -> HashMap<String, String> {
        self.tree_at(at)
            .into_iter()
            .map(|(path, content)| (path.to_string(), content.to_string()))
            .collect()
    }

    /// The tree as of (and including) `at`, borrowed from the commits that
    /// last wrote each file: `(path, content)` pairs sorted by path.
    pub fn tree_at(&self, at: CommitId) -> Vec<(&str, &str)> {
        let mut tree: BTreeMap<&str, &str> = BTreeMap::new();
        for c in self.commits.iter().take_while(|c| c.id <= at) {
            for w in &c.writes {
                tree.insert(&w.path, &w.content);
            }
        }
        tree.into_iter().collect()
    }

    /// The latest commit id, if any commit exists.
    pub fn head(&self) -> Option<CommitId> {
        self.commits.last().map(|c| c.id)
    }

    /// Materializes the repository as of (and including) `at`: same authors,
    /// truncated history, blame and logs reflecting that point in time.
    ///
    /// This is the `git checkout <old>` equivalent the §3.1 preliminary
    /// experiment needs to analyse a 2019 snapshot with 2019 blame. It
    /// replays every commit up to `at`, so a caller visiting many commits
    /// in order should instead grow one [`authors_only`] repository with
    /// [`replay`], one commit per step, as `vcheck history` does.
    ///
    /// [`authors_only`]: Repository::authors_only
    /// [`replay`]: Repository::replay
    pub fn checkout(&self, at: CommitId) -> Repository {
        let mut out = self.authors_only();
        for c in self.commits.iter().take_while(|c| c.id <= at) {
            out.replay(c);
        }
        out
    }

    /// The last commit at or before `timestamp`, if any.
    pub fn commit_at_time(&self, timestamp: i64) -> Option<CommitId> {
        self.commits
            .iter()
            .take_while(|c| c.timestamp <= timestamp)
            .last()
            .map(|c| c.id)
    }
}

/// Splits file content into lines; a trailing newline does not create an
/// empty final line (matching `git`'s line accounting).
fn split_lines(content: &str) -> std::str::SplitTerminator<'_, char> {
    content.split_terminator('\n')
}

/// `split_lines(content).count()`, without splitting.
fn count_lines(content: &str) -> usize {
    let newlines = content.bytes().filter(|&c| c == b'\n').count();
    newlines + usize::from(!content.is_empty() && !content.ends_with('\n'))
}

/// `content` without its one optional trailing newline: the lines of a
/// non-empty content joined by newlines.
fn strip_eol(content: &str) -> &str {
    content.strip_suffix('\n').unwrap_or(content)
}

/// Replays one write of `new` over a file whose content was `old` and
/// whose lines `blame` describes; inserted lines get `entry`.
///
/// Only the changed middle is split into lines. The common byte prefix,
/// backed off to just past its last newline, and the common byte suffix
/// after it, backed off to just past its first newline, are whole lines
/// both sides share, so their blame stays in place. The line diff of the
/// middle then gives the same script [`diff_hunks`] gives for the whole
/// files: the whole-file diff trims every shared line at the ends anyway,
/// and no line the middle's own trim leaves lies in the trimmed bytes.
fn replay_write(blame: &mut Vec<BlameEntry>, old: &str, new: &str, entry: BlameEntry) {
    let (o, n) = (old.as_bytes(), new.as_bytes());
    let head = o[..common_prefix(o, n)]
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |i| i + 1);
    let s = common_suffix(&o[head..], &n[head..]);
    let tail = o[o.len() - s..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(0, |i| s - i - 1);
    let (old_mid, new_mid) = (&old[head..old.len() - tail], &new[head..new.len() - tail]);
    if old_mid == new_mid {
        return;
    }
    let old_lines: Vec<&str> = split_lines(old_mid).collect();
    // Line number of the middle's first line: count whichever shared end
    // is shorter.
    let first = if head <= tail {
        count_lines(&old[..head])
    } else {
        blame.len() - old_lines.len() - count_lines(&old[old.len() - tail..])
    };
    let range = first..first + old_lines.len();
    if old_lines.is_empty() {
        blame.splice(range, std::iter::repeat_n(entry, count_lines(new_mid)));
        return;
    }
    let new_lines: Vec<&str> = split_lines(new_mid).collect();
    let mut kept = blame[range.clone()].iter().copied();
    let mut mid = Vec::with_capacity(new_lines.len());
    for hunk in diff_hunks(&old_lines, &new_lines) {
        match hunk {
            Hunk::Keep(k) => mid.extend(kept.by_ref().take(k)),
            Hunk::Delete(k) => kept.by_ref().take(k).for_each(drop),
            Hunk::Insert(k) => mid.extend(std::iter::repeat_n(entry, k)),
        }
    }
    blame.splice(range, mid);
}

/// Length of the longest common prefix of `a` and `b`, compared eight
/// bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let words = a.chunks_exact(8).zip(b.chunks_exact(8));
    let at = 8 * words.take_while(|(x, y)| x == y).count();
    at + a[at..]
        .iter()
        .zip(&b[at..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Length of the longest common suffix of `a` and `b`, compared eight
/// bytes at a time.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let words = a.rchunks_exact(8).zip(b.rchunks_exact(8));
    let at = 8 * words.take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[..a.len() - at], &b[..b.len() - at]);
    at + a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(path: &str, content: &str) -> FileWrite {
        FileWrite {
            path: path.into(),
            content: content.into(),
        }
    }

    #[test]
    fn initial_commit_blames_every_line_to_author() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let c = repo.commit(alice, 1000, "init", vec![write("a.c", "l1\nl2\nl3\n")]);
        for line in 1..=3 {
            let b = repo.blame("a.c", line).unwrap();
            assert_eq!(b.author, alice);
            assert_eq!(b.commit, c);
        }
        assert_eq!(repo.blame("a.c", 4), None);
    }

    #[test]
    fn edit_reassigns_only_touched_lines() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(alice, 1000, "init", vec![write("a.c", "l1\nl2\nl3\n")]);
        repo.commit(
            bob,
            2000,
            "edit line 2",
            vec![write("a.c", "l1\nl2-changed\nl3\n")],
        );
        assert_eq!(repo.blame_author("a.c", 1), Some(alice));
        assert_eq!(repo.blame_author("a.c", 2), Some(bob));
        assert_eq!(repo.blame_author("a.c", 3), Some(alice));
    }

    #[test]
    fn insertion_shifts_blame_correctly() {
        let mut repo = Repository::new();
        let alice = repo.add_author("alice");
        let bob = repo.add_author("bob");
        repo.commit(alice, 1000, "init", vec![write("a.c", "l1\nl3\n")]);
        repo.commit(bob, 2000, "insert", vec![write("a.c", "l1\nl2\nl3\n")]);
        assert_eq!(repo.blame_author("a.c", 1), Some(alice));
        assert_eq!(repo.blame_author("a.c", 2), Some(bob));
        assert_eq!(repo.blame_author("a.c", 3), Some(alice));
    }

    #[test]
    fn blame_covers_exactly_the_file() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        repo.commit(a, 1, "c", vec![write("f", "x\ny\n")]);
        assert_eq!(repo.line_count("f"), 2);
        assert!(repo.blame("f", 0).is_none());
        assert!(repo.blame("f", 2).is_some());
        assert!(repo.blame("f", 3).is_none());
        assert_eq!(repo.file_content("f").unwrap(), "x\ny");
    }

    #[test]
    fn log_lists_touching_commits_in_order() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(a, 1, "one", vec![write("f", "1\n")]);
        let _c2 = repo.commit(a, 2, "other file", vec![write("g", "1\n")]);
        let c3 = repo.commit(a, 3, "two", vec![write("f", "1\n2\n")]);
        assert_eq!(repo.log("f"), &[c1, c3]);
    }

    #[test]
    fn snapshot_replays_history() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(a, 1, "v1", vec![write("f", "v1\n")]);
        let c2 = repo.commit(a, 2, "v2", vec![write("f", "v2\n")]);
        assert_eq!(repo.snapshot_at(c1).get("f").unwrap(), "v1\n");
        assert_eq!(repo.snapshot_at(c2).get("f").unwrap(), "v2\n");
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        repo.commit(a, 100, "one", vec![write("f", "1\n")]);
        let c2 = repo.commit(a, 50, "backdated", vec![write("f", "2\n")]);
        assert_eq!(repo.commit_info(c2).timestamp, 100);
    }

    #[test]
    fn checkout_restores_historical_blame_and_logs() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        let c1 = repo.commit(
            a,
            10,
            "init",
            vec![write(
                "f", "one
two
",
            )],
        );
        let _c2 = repo.commit(
            b,
            20,
            "edit",
            vec![write(
                "f",
                "one
two-x
",
            )],
        );
        let old = repo.checkout(c1);
        assert_eq!(old.blame_author("f", 2), Some(a));
        assert_eq!(repo.blame_author("f", 2), Some(b));
        assert_eq!(old.log("f").len(), 1);
        assert_eq!(old.head(), Some(c1));
    }

    #[test]
    fn commit_at_time_picks_latest_at_or_before() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let c1 = repo.commit(a, 10, "one", vec![write("f", "1\n")]);
        let c2 = repo.commit(a, 20, "two", vec![write("f", "2\n")]);
        assert_eq!(repo.commit_at_time(5), None);
        assert_eq!(repo.commit_at_time(10), Some(c1));
        assert_eq!(repo.commit_at_time(15), Some(c1));
        assert_eq!(repo.commit_at_time(99), Some(c2));
    }

    #[test]
    fn rewrite_attributes_rewritten_region() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        let b = repo.add_author("b");
        repo.commit(a, 1, "init", vec![write("f", "keep\nold1\nold2\nkeep2\n")]);
        repo.commit(
            b,
            2,
            "rewrite middle",
            vec![write("f", "keep\nnew1\nnew2\nnew3\nkeep2\n")],
        );
        assert_eq!(repo.blame_author("f", 1), Some(a));
        assert_eq!(repo.blame_author("f", 2), Some(b));
        assert_eq!(repo.blame_author("f", 3), Some(b));
        assert_eq!(repo.blame_author("f", 4), Some(b));
        assert_eq!(repo.blame_author("f", 5), Some(a));
    }

    #[test]
    fn amended_head_write_equals_the_amended_history() {
        let import = |b: &str| {
            let mut repo = Repository::new();
            let a = repo.add_author("a");
            repo.commit(a, 7, "import", vec![write("f", "1\n2\n"), write("g", b)]);
            repo
        };
        let mut amended = import("x\ny\n");
        amended.amend_head_write("g", "x\nz\nw".to_string());
        let fresh = import("x\nz\nw");
        for repo in [&amended, &fresh] {
            assert_eq!(repo.file_content("g").as_deref(), Some("x\nz\nw"));
            assert_eq!(repo.log("g"), &[CommitId(0)]);
            assert_eq!(repo.commits()[0].writes[1].content, "x\nz\nw");
        }
        for line in 0..=4 {
            assert_eq!(
                amended.blame("g", line),
                fresh.blame("g", line),
                "line {line}"
            );
        }
        assert_eq!(amended.blame("f", 2), fresh.blame("f", 2));
    }

    #[test]
    #[should_panic(expected = "only the head commit may have written f")]
    fn amending_a_file_an_earlier_commit_wrote_panics() {
        let mut repo = Repository::new();
        let a = repo.add_author("a");
        repo.commit(a, 1, "one", vec![write("f", "1\n")]);
        repo.commit(a, 2, "two", vec![write("f", "2\n")]);
        repo.amend_head_write("f", "3\n".to_string());
    }
}
