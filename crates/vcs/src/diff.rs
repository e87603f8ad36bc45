//! Line-oriented diff used for blame attribution.
//!
//! The VCS substrate assigns blame by diffing each commit's new file content
//! against the previous content: kept lines retain their blame, inserted
//! lines are attributed to the committing author — the same attribution rule
//! `git blame` implements.
//!
//! The algorithm trims the common prefix and suffix (commits usually touch a
//! small contiguous region) and runs an exact LCS on the remaining middle.
//! If the middle is pathologically large the diff degrades to
//! delete-all/insert-all for the middle — still a correct patch, just not
//! minimal, mirroring the heuristic cutoffs of production diff tools.

/// One hunk of an edit script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// The next `n` lines are unchanged.
    Keep(usize),
    /// The next `n` old lines are removed.
    Delete(usize),
    /// These new lines are inserted.
    Insert(Vec<String>),
}

/// Middle sizes whose product exceeds this fall back to full replacement.
const LCS_CELL_LIMIT: usize = 16_000_000;

/// One hunk of a count-only edit script: the shared diff core behind
/// [`diff_lines`], [`LineMap::between`] and the repository's blame replay,
/// which runs it on the changed middle of a write only.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Hunk {
    /// The next `n` lines are unchanged.
    Keep(usize),
    /// The next `n` old lines are removed.
    Delete(usize),
    /// The next `n` new lines are inserted.
    Insert(usize),
}

/// Computes a line edit script transforming `old` into `new`.
///
/// The script is minimal whenever the changed region is below the DP cutoff
/// (16M cells, ~4000×4000 changed lines), which covers every realistic
/// commit; `patch(old, &diff_lines(old, new)) == new` holds unconditionally.
///
/// # Examples
///
/// ```
/// use vc_vcs::diff::{diff_lines, patch};
/// let old = ["a", "b", "c"].map(String::from).to_vec();
/// let new = ["a", "x", "c"].map(String::from).to_vec();
/// let script = diff_lines(&old, &new);
/// assert_eq!(patch(&old, &script), new);
/// ```
pub fn diff_lines(old: &[String], new: &[String]) -> Vec<Edit> {
    let mut j = 0;
    diff_hunks(old, new)
        .into_iter()
        .map(|hunk| match hunk {
            Hunk::Keep(n) => {
                j += n;
                Edit::Keep(n)
            }
            Hunk::Delete(n) => Edit::Delete(n),
            Hunk::Insert(n) => {
                j += n;
                Edit::Insert(new[j - n..j].to_vec())
            }
        })
        .collect()
}

/// The count-only edit script transforming `old` into `new`: common prefix
/// and suffix trimmed, an exact LCS on the middle, adjacent same-kind hunks
/// merged.
pub(crate) fn diff_hunks<A: AsRef<str>, B: AsRef<str>>(old: &[A], new: &[B]) -> Vec<Hunk> {
    let same = |i: usize, j: usize| old[i].as_ref() == new[j].as_ref();
    let (n, m) = (old.len(), new.len());
    // Trim common prefix.
    let mut prefix = 0;
    while prefix < n && prefix < m && same(prefix, prefix) {
        prefix += 1;
    }
    // Trim common suffix (not overlapping the prefix).
    let mut suffix = 0;
    while suffix < n - prefix && suffix < m - prefix && same(n - 1 - suffix, m - 1 - suffix) {
        suffix += 1;
    }

    let mut hunks = Vec::new();
    push(&mut hunks, Hunk::Keep(prefix));
    append_middle(
        &old[prefix..n - suffix],
        &new[prefix..m - suffix],
        &mut hunks,
    );
    push(&mut hunks, Hunk::Keep(suffix));
    hunks
}

/// Diffs the changed middle region via LCS, appending hunks to `hunks`.
fn append_middle<A: AsRef<str>, B: AsRef<str>>(old: &[A], new: &[B], hunks: &mut Vec<Hunk>) {
    let (n, m) = (old.len(), new.len());
    if n == 0 || m == 0 || n.saturating_mul(m) > LCS_CELL_LIMIT {
        push(hunks, Hunk::Delete(n));
        push(hunks, Hunk::Insert(m));
        return;
    }

    let same = |i: usize, j: usize| old[i].as_ref() == new[j].as_ref();
    // LCS length table; lcs[i][j] = LCS of old[i..], new[j..].
    let mut lcs = vec![0u32; (n + 1) * (m + 1)];
    let at = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[at(i, j)] = if same(i, j) {
                lcs[at(i + 1, j + 1)] + 1
            } else {
                lcs[at(i + 1, j)].max(lcs[at(i, j + 1)])
            };
        }
    }
    // Walk the table emitting hunks.
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if same(i, j) {
            push(hunks, Hunk::Keep(1));
            i += 1;
            j += 1;
        } else if lcs[at(i + 1, j)] >= lcs[at(i, j + 1)] {
            push(hunks, Hunk::Delete(1));
            i += 1;
        } else {
            push(hunks, Hunk::Insert(1));
            j += 1;
        }
    }
    push(hunks, Hunk::Delete(n - i));
    push(hunks, Hunk::Insert(m - j));
}

/// Appends `hunk`, merging it into a same-kind predecessor; empty hunks are
/// dropped.
fn push(hunks: &mut Vec<Hunk>, hunk: Hunk) {
    match (hunks.last_mut(), hunk) {
        (_, Hunk::Keep(0) | Hunk::Delete(0) | Hunk::Insert(0)) => {}
        (Some(Hunk::Keep(k)), Hunk::Keep(n))
        | (Some(Hunk::Delete(k)), Hunk::Delete(n))
        | (Some(Hunk::Insert(k)), Hunk::Insert(n)) => *k += n,
        (_, hunk) => hunks.push(hunk),
    }
}

/// Applies an edit script to `old`, producing the new line vector.
///
/// # Panics
///
/// Panics if the script does not match `old` (wrong hunk lengths).
pub fn patch(old: &[String], script: &[Edit]) -> Vec<String> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    for edit in script {
        match edit {
            Edit::Keep(n) => {
                out.extend_from_slice(&old[pos..pos + n]);
                pos += n;
            }
            Edit::Delete(n) => {
                pos += n;
            }
            Edit::Insert(lines) => {
                out.extend_from_slice(lines);
            }
        }
    }
    assert_eq!(pos, old.len(), "edit script does not cover the old file");
    out
}

/// A bidirectional 1-based line-number mapping across an edit script.
///
/// Built once from a [`diff_lines`] script, it answers "where did old line
/// *n* land in the new file?" (and the inverse) in O(1). Lines inside
/// `Delete`/`Insert` hunks have no counterpart and map to `None` — only
/// `Keep` hunks carry a line across revisions. This is what makes warning
/// identities drift-stable: a finding's line can be followed through a
/// commit's edit script instead of being compared numerically.
///
/// # Examples
///
/// ```
/// use vc_vcs::diff::{diff_lines, LineMap};
/// let old = ["a", "b", "c"].map(String::from).to_vec();
/// let new = ["x", "a", "b", "c"].map(String::from).to_vec();
/// let map = LineMap::new(&diff_lines(&old, &new));
/// assert_eq!(map.old_to_new(1), Some(2)); // "a" shifted down by the insert
/// assert_eq!(map.new_to_old(1), None); // "x" is new
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineMap {
    /// `old_to_new[i]` is the new 1-based line of old line `i + 1`.
    old_to_new: Vec<Option<u32>>,
    /// `new_to_old[j]` is the old 1-based line of new line `j + 1`.
    new_to_old: Vec<Option<u32>>,
}

impl LineMap {
    /// Builds the mapping from an edit script.
    pub fn new(script: &[Edit]) -> LineMap {
        LineMap::from_hunks(script.iter().map(|edit| match edit {
            Edit::Keep(n) => Hunk::Keep(*n),
            Edit::Delete(n) => Hunk::Delete(*n),
            Edit::Insert(lines) => Hunk::Insert(lines.len()),
        }))
    }

    /// Builds the mapping by diffing two file contents directly, through
    /// the count-only script: no line is copied.
    pub fn between(old: &[impl AsRef<str>], new: &[impl AsRef<str>]) -> LineMap {
        LineMap::from_hunks(diff_hunks(old, new))
    }

    /// [`between`](Self::between) two whole texts, split into lines.
    pub fn between_texts(old: &str, new: &str) -> LineMap {
        let old: Vec<&str> = old.lines().collect();
        let new: Vec<&str> = new.lines().collect();
        LineMap::between(&old, &new)
    }

    fn from_hunks(script: impl IntoIterator<Item = Hunk>) -> LineMap {
        let mut old_to_new = Vec::new();
        let mut new_to_old = Vec::new();
        for hunk in script {
            match hunk {
                Hunk::Keep(n) => {
                    for _ in 0..n {
                        let old_line = old_to_new.len() as u32 + 1;
                        let new_line = new_to_old.len() as u32 + 1;
                        old_to_new.push(Some(new_line));
                        new_to_old.push(Some(old_line));
                    }
                }
                Hunk::Delete(n) => old_to_new.extend(std::iter::repeat_n(None, n)),
                Hunk::Insert(n) => new_to_old.extend(std::iter::repeat_n(None, n)),
            }
        }
        LineMap {
            old_to_new,
            new_to_old,
        }
    }

    /// The new-revision line of old-revision line `line` (1-based), if the
    /// line survived the edit.
    pub fn old_to_new(&self, line: u32) -> Option<u32> {
        *self
            .old_to_new
            .get((line as usize).checked_sub(1)?)
            .unwrap_or(&None)
    }

    /// The old-revision line of new-revision line `line` (1-based), if the
    /// line existed before the edit.
    /// Like [`old_to_new`](LineMap::old_to_new), but a rewritten line (no
    /// exact image) is projected through its nearest *kept* neighbour: the
    /// closest preceding mapped line anchors the offset, falling back to the
    /// closest following one. `None` when the whole file was replaced — or
    /// when the projection falls outside the new file entirely (a deleted
    /// tail has no plausible image; inventing a line number past EOF would
    /// make downstream matchers chase lines that do not exist).
    ///
    /// This is the estimate a reviewer makes reading a diff — "that edited
    /// line is still *here*" — and is what lets a finding whose definition
    /// line was itself edited match across revisions.
    pub fn old_to_new_nearby(&self, line: u32) -> Option<u32> {
        if let Some(mapped) = self.old_to_new(line) {
            return Some(mapped);
        }
        let idx = (line as usize).checked_sub(1)?;
        if idx >= self.old_to_new.len() {
            return None;
        }
        let before = self.old_to_new[..idx]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, m)| m.map(|mapped| (i, mapped)));
        if let Some((anchor, mapped)) = before {
            let projected = mapped + (idx - anchor) as u32;
            if projected as usize <= self.new_len() {
                return Some(projected);
            }
            // Projected past the new EOF: fall through to the following
            // anchor, if one exists (it never does for a pure tail
            // deletion, which is the point).
        }
        let after = self.old_to_new[idx + 1..]
            .iter()
            .enumerate()
            .find_map(|(i, m)| m.map(|mapped| (idx + 1 + i, mapped)));
        if let Some((anchor, mapped)) = after {
            let back = (anchor - idx) as u32;
            return mapped.checked_sub(back).filter(|&l| l >= 1);
        }
        None
    }

    pub fn new_to_old(&self, line: u32) -> Option<u32> {
        *self
            .new_to_old
            .get((line as usize).checked_sub(1)?)
            .unwrap_or(&None)
    }

    /// Number of lines in the old revision.
    pub fn old_len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Number of lines in the new revision.
    pub fn new_len(&self) -> usize {
        self.new_to_old.len()
    }
}

/// The number of inserted plus deleted lines in a script (the "churn").
pub fn churn(script: &[Edit]) -> usize {
    script
        .iter()
        .map(|e| match e {
            Edit::Keep(_) => 0,
            Edit::Delete(n) => *n,
            Edit::Insert(lines) => lines.len(),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn check(old: &[&str], new: &[&str]) -> Vec<Edit> {
        let (o, n) = (lines(old), lines(new));
        let script = diff_lines(&o, &n);
        assert_eq!(
            patch(&o, &script),
            n,
            "patch(diff) != new for {o:?} -> {n:?}"
        );
        script
    }

    #[test]
    fn identical_files_are_one_keep() {
        let s = check(&["a", "b"], &["a", "b"]);
        assert_eq!(s, vec![Edit::Keep(2)]);
    }

    #[test]
    fn pure_insertion() {
        let s = check(&["a", "c"], &["a", "b", "c"]);
        assert_eq!(churn(&s), 1);
    }

    #[test]
    fn pure_deletion() {
        let s = check(&["a", "b", "c"], &["a", "c"]);
        assert_eq!(churn(&s), 1);
    }

    #[test]
    fn replacement_in_middle() {
        let s = check(&["a", "b", "c"], &["a", "x", "c"]);
        assert_eq!(churn(&s), 2);
    }

    #[test]
    fn empty_to_full_and_back() {
        check(&[], &["a", "b"]);
        check(&["a", "b"], &[]);
        check(&[], &[]);
    }

    #[test]
    fn completely_different() {
        let s = check(&["a", "b"], &["x", "y", "z"]);
        assert_eq!(churn(&s), 5);
    }

    #[test]
    fn repeated_lines() {
        check(&["a", "a", "a"], &["a", "a"]);
        check(&["x", "a", "x", "a"], &["a", "x", "a", "x"]);
    }

    #[test]
    fn diff_is_minimal_for_single_edit() {
        let s = check(&["1", "2", "3", "4", "5"], &["1", "2", "changed", "4", "5"]);
        assert_eq!(churn(&s), 2, "expected one delete + one insert: {s:?}");
    }

    #[test]
    fn two_separate_edits() {
        let s = check(
            &["a", "b", "c", "d", "e", "f"],
            &["a", "B", "c", "d", "E", "f"],
        );
        assert_eq!(churn(&s), 4);
    }

    #[test]
    fn line_map_identity_on_unchanged_file() {
        let l = lines(&["a", "b", "c"]);
        let map = LineMap::between(&l, &l);
        for i in 1..=3 {
            assert_eq!(map.old_to_new(i), Some(i));
            assert_eq!(map.new_to_old(i), Some(i));
        }
        assert_eq!(map.old_to_new(0), None);
        assert_eq!(map.old_to_new(4), None);
    }

    #[test]
    fn line_map_tracks_insertions_above() {
        let old = lines(&["f1", "f2", "f3"]);
        let new = lines(&["pad1", "pad2", "f1", "f2", "f3"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(1), Some(3));
        assert_eq!(map.old_to_new(3), Some(5));
        assert_eq!(map.new_to_old(1), None);
        assert_eq!(map.new_to_old(2), None);
        assert_eq!(map.new_to_old(3), Some(1));
        assert_eq!(map.old_len(), 3);
        assert_eq!(map.new_len(), 5);
    }

    #[test]
    fn line_map_drops_deleted_and_replaced_lines() {
        let old = lines(&["keep", "gone", "edited", "tail"]);
        let new = lines(&["keep", "edited differently", "tail"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(1), Some(1));
        assert_eq!(map.old_to_new(2), None, "deleted line has no image");
        assert_eq!(map.old_to_new(3), None, "rewritten line has no image");
        assert_eq!(map.old_to_new(4), Some(3));
        assert_eq!(map.new_to_old(2), None);
    }

    #[test]
    fn line_map_nearby_projects_rewritten_lines() {
        let old = lines(&["head", "edited", "tail"]);
        let new = lines(&["pad", "head", "edited differently", "tail"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(2), None, "no exact image");
        assert_eq!(
            map.old_to_new_nearby(2),
            Some(3),
            "anchored one past the kept `head` line"
        );
        // Exact mappings pass through unchanged.
        assert_eq!(map.old_to_new_nearby(1), Some(2));
        assert_eq!(map.old_to_new_nearby(0), None);
        assert_eq!(map.old_to_new_nearby(4), None, "past end of file");
        // A fully replaced file has no anchors at all.
        let replaced = LineMap::between(&lines(&["a", "b"]), &lines(&["x", "y"]));
        assert_eq!(replaced.old_to_new_nearby(1), None);
        assert_eq!(replaced.old_to_new_nearby(2), None);
    }

    #[test]
    fn line_map_nearby_anchors_on_following_line_at_file_start() {
        // The first line is rewritten; the only anchor is below it.
        let old = lines(&["edited", "kept"]);
        let new = lines(&["edited differently", "kept", "extra"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new(1), None);
        assert_eq!(map.old_to_new_nearby(1), Some(1));
    }

    #[test]
    fn line_map_nearby_deletion_at_end_of_file() {
        // The tail of the file is deleted: the deleted lines project past
        // the new EOF and must report no image, not a phantom line number.
        let old = lines(&["a", "b", "c", "d", "e"]);
        let new = lines(&["a", "b"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new_nearby(2), Some(2), "kept line still maps");
        for gone in 3..=5 {
            assert_eq!(
                map.old_to_new_nearby(gone),
                None,
                "deleted tail line {gone} has no plausible image in a 2-line file"
            );
        }
        // A tail line *replaced* in place (projection still in range) keeps
        // its nearby image.
        let replaced = LineMap::between(&lines(&["a", "b", "c"]), &lines(&["a", "b", "x"]));
        assert_eq!(replaced.old_to_new_nearby(3), Some(3));
    }

    #[test]
    fn line_map_nearby_adjacent_hunks_project_through_their_own_anchor() {
        // Two edit hunks separated by a single kept line: each rewritten
        // line must anchor on its own side, not bleed into the other hunk.
        let old = lines(&["k1", "e1", "e2", "k2", "e3", "k3"]);
        let new = lines(&["k1", "n1", "n2", "n3", "k2", "n4", "k3"]);
        let map = LineMap::between(&old, &new);
        assert_eq!(map.old_to_new_nearby(2), Some(2), "first hunk, first line");
        assert_eq!(map.old_to_new_nearby(3), Some(3), "first hunk, second line");
        assert_eq!(
            map.old_to_new_nearby(5),
            Some(6),
            "second hunk anchors on k2, not on the first hunk's lines"
        );
        assert_eq!(map.old_to_new(4), Some(5), "the separator line is kept");
    }

    #[test]
    fn line_map_nearby_zero_length_new_file() {
        // Everything deleted: no anchors exist in either direction.
        let old = lines(&["a", "b", "c"]);
        let map = LineMap::between(&old, &lines(&[]));
        assert_eq!(map.new_len(), 0);
        for line in 1..=3 {
            assert_eq!(map.old_to_new(line), None);
            assert_eq!(map.old_to_new_nearby(line), None);
        }
        // And the mirror degenerate case: an empty old file has no lines to
        // project at all.
        let grown = LineMap::between(&lines(&[]), &lines(&["x"]));
        assert_eq!(grown.old_to_new_nearby(1), None);
        assert_eq!(grown.old_len(), 0);
    }

    #[test]
    fn line_map_roundtrips_kept_lines() {
        let old = lines(&["a", "b", "c", "d", "e"]);
        let new = lines(&["x", "a", "c", "y", "e"]);
        let map = LineMap::between(&old, &new);
        for i in 1..=old.len() as u32 {
            if let Some(j) = map.old_to_new(i) {
                assert_eq!(map.new_to_old(j), Some(i), "kept lines invert");
                assert_eq!(old[(i - 1) as usize], new[(j - 1) as usize]);
            }
        }
    }

    #[test]
    fn interleaved_shared_lines_use_lcs() {
        // LCS of abcab / acba is "acb" (3) -> churn = 2 + 1 = 3.
        let s = check(&["a", "b", "c", "a", "b"], &["a", "c", "b", "a"]);
        assert_eq!(churn(&s), 3, "{s:?}");
    }
}
