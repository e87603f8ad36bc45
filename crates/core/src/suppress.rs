//! Suppression: inline annotations and the persisted suppression store.
//!
//! A team adopting a scanner inherits its backlog; the way out is to mark
//! the findings they have triaged as *suppressed* so the CI gate only
//! fires on new ones. Two mechanisms cooperate here:
//!
//! - **Inline annotations** — a `// vcheck:allow(<scenario>)` comment in
//!   the source itself, either trailing the flagged definition line or on
//!   a line of its own directly above it. `all` (or a bare
//!   `vcheck:allow`) matches any scenario. The MiniC lexer strips
//!   comments, so annotations never change parsing, fingerprints, or
//!   line numbers.
//! - **The [`SuppressStore`]** — an on-disk list of suppressed findings
//!   keyed by drift-stable fingerprint, in the one store format of
//!   [`crate::store`]; its load defects count under
//!   `suppress.store_corrupt` / `suppress.store_recovered`.
//!
//! Fingerprints survive pure drift but not an edit to the definition line
//! itself, and a wholesale refactor moves code beyond what any fingerprint
//! tracks. The store therefore carries each entry's *current* coordinates
//! and [`SuppressStore::advance`] pushes them through the
//! [`vc_vcs::diff::LineMap`] at every revision step; when a
//! finding's fingerprint no longer matches any entry,
//! [`SuppressStore::match_and_heal`] falls back to file + scenario +
//! nearby line (within [`CHURN_NEARBY_LINES`]) and re-keys the entry to
//! the finding's new fingerprint — a suppression survives the refactor
//! that invalidated its hash (`suppress.line_mapped`).

use std::{
    collections::HashMap,
    path::Path, //
};

use vc_obs::names;
use vc_vcs::diff::LineMap;

use crate::{
    delta::{
        Finding,
        CHURN_NEARBY_LINES, //
    },
    store, //
};

/// The annotation marker scanned for in source comments.
pub const ALLOW_MARKER: &str = "vcheck:allow";

/// Scenario wildcard: matches every scenario.
const ANY_SCENARIO: &str = "all";

/// Inline `// vcheck:allow(...)` annotations indexed from one revision's
/// sources: `file → line → scenario` (with `"all"` as the
/// wildcard), so a lookup borrows its file name. Lines are the *covered*
/// lines, not the annotation lines — a standalone annotation covers the
/// line below it, a trailing one covers its own.
#[derive(Clone, Debug, Default)]
pub struct InlineSuppressions {
    allows: HashMap<String, HashMap<u32, String>>,
}

impl InlineSuppressions {
    /// Scans every file of a snapshot for annotations.
    pub fn from_sources(sources: &HashMap<String, String>) -> InlineSuppressions {
        let mut allows = HashMap::new();
        for (file, content) in sources {
            let mut covers = HashMap::new();
            for (i, line) in content.lines().enumerate() {
                let Some(comment_at) = line.find("//") else {
                    continue;
                };
                let comment = &line[comment_at..];
                let Some(marker_at) = comment.find(ALLOW_MARKER) else {
                    continue;
                };
                let scenario = parse_scenario(&comment[marker_at + ALLOW_MARKER.len()..]);
                let standalone = line[..comment_at].trim().is_empty();
                // 1-based: a standalone annotation on line i+1 covers line
                // i+2; a trailing one covers its own line i+1.
                let covered = if standalone {
                    i as u32 + 2
                } else {
                    i as u32 + 1
                };
                covers.insert(covered, scenario);
            }
            if !covers.is_empty() {
                allows.insert(file.clone(), covers);
            }
        }
        InlineSuppressions { allows }
    }

    /// Whether an annotation covers `(file, line)` for `scenario`.
    pub fn allows(&self, file: &str, line: u32, scenario: &str) -> bool {
        match self.allows.get(file).and_then(|covers| covers.get(&line)) {
            Some(s) => s == ANY_SCENARIO || s == scenario,
            None => false,
        }
    }

    /// Number of annotations found.
    pub fn len(&self) -> usize {
        self.allows.values().map(HashMap::len).sum()
    }

    /// Whether no annotations were found.
    pub fn is_empty(&self) -> bool {
        self.allows.is_empty()
    }
}

/// Extracts the scenario from the text after the marker: `(retval)` →
/// `retval`; a bare marker, empty parens, or `(all)` → the wildcard.
fn parse_scenario(rest: &str) -> String {
    let rest = rest.trim_start();
    let Some(open) = rest.strip_prefix('(') else {
        return ANY_SCENARIO.to_string();
    };
    let Some(close) = open.find(')') else {
        return ANY_SCENARIO.to_string();
    };
    let scenario = open[..close].trim();
    if scenario.is_empty() {
        ANY_SCENARIO.to_string()
    } else {
        scenario.to_string()
    }
}

/// On-disk format version of [`SuppressStore`].
pub const SUPPRESS_FILE_VERSION: u32 = 1;

const SUPPRESS_MAGIC: &str = "vcheck-suppress";

/// One suppressed finding: its drift-stable fingerprint plus the current
/// coordinates the nearby-line fallback needs when the fingerprint stops
/// matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuppressEntry {
    /// Fingerprint of the suppressed finding (healed on line-map matches).
    pub fingerprint: u64,
    /// File of the suppressed definition.
    pub file: String,
    /// 1-based line in the *most recently advanced* revision.
    pub line: u32,
    /// Scenario label, or `all` for any.
    pub scenario: String,
    /// Free-form triage note (no tabs or newlines survive the round trip).
    pub reason: String,
}

/// How an entry matched a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuppressMatch {
    /// Exact fingerprint equality (`suppress.store`).
    Fingerprint,
    /// File + scenario + nearby-line fallback after the fingerprint moved
    /// (`suppress.line_mapped`); the entry was re-keyed to the new
    /// fingerprint.
    NearbyLine,
}

/// The persisted suppression list. Its records, in the store format of
/// [`crate::store`]:
///
/// ```text
/// vcheck-suppress v1
/// allow <fp-hex16>\t<file>\t<line>\t<scenario>\t<reason>
/// checksum <hex16>
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuppressStore {
    /// The suppressed findings, in file order.
    pub entries: Vec<SuppressEntry>,
}

impl SuppressStore {
    /// Loads a store from disk. **Never fails**: a missing file is an
    /// empty store; a checksum mismatch degrades to empty under
    /// `suppress.store_corrupt`, any other defect under
    /// `suppress.store_recovered`.
    pub fn load(path: &Path) -> SuppressStore {
        store::load(
            path,
            SUPPRESS_MAGIC,
            SUPPRESS_FILE_VERSION,
            (
                names::SUPPRESS_STORE_CORRUPT,
                names::SUPPRESS_STORE_RECOVERED,
            ),
            |store: &mut SuppressStore, rec| {
                let [fingerprint, file, line, scenario, reason] =
                    store::fields(rec.strip_prefix("allow ")?)?;
                store.entries.push(SuppressEntry {
                    fingerprint: u64::from_str_radix(fingerprint, 16).ok()?,
                    file: file.to_string(),
                    line: line.parse().ok()?,
                    scenario: scenario.to_string(),
                    reason: reason.to_string(),
                });
                Some(())
            },
        )
    }

    /// Serialises the store (including its checksum line).
    pub fn to_text(&self) -> String {
        store::encode(SUPPRESS_MAGIC, SUPPRESS_FILE_VERSION, |out| {
            for e in &self.entries {
                out.push_str(&format!(
                    "allow {:016x}\t{}\t{}\t{}\t{}\n",
                    e.fingerprint,
                    e.file,
                    e.line,
                    e.scenario,
                    e.reason.replace(['\t', '\n'], " ")
                ));
            }
        })
    }

    /// Writes the store atomically, as every store in [`crate::store`] is
    /// written.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        store::save(path, &self.to_text())
    }

    /// Pushes every entry's line through the edit script from
    /// `old_sources` to `new_sources`, keeping the store's coordinates in
    /// the current revision. Entries in deleted files (or whose
    /// neighbourhood vanished) keep their stale line — the fingerprint key
    /// still works, only the nearby-line fallback degrades.
    pub fn advance(
        &mut self,
        old_sources: &HashMap<String, String>,
        new_sources: &HashMap<String, String>,
    ) {
        let mut maps: HashMap<String, Option<LineMap>> = HashMap::new();
        for e in &mut self.entries {
            let map = maps.entry(e.file.clone()).or_insert_with(|| {
                let (old, new) = (old_sources.get(&e.file)?, new_sources.get(&e.file)?);
                Some(LineMap::between_texts(old, new))
            });
            if let Some(mapped) = map.as_ref().and_then(|m| m.old_to_new_nearby(e.line)) {
                e.line = mapped;
            }
        }
    }

    /// Matches `finding` against the store: fingerprint equality first;
    /// otherwise the same file + scenario within [`CHURN_NEARBY_LINES`] of
    /// an entry's (advanced) line, in which case the entry is *healed* —
    /// re-keyed to the finding's fingerprint and line — so the next
    /// revision matches cheaply again. Records `suppress.store` /
    /// `suppress.line_mapped` into the installed session.
    pub fn match_and_heal(&mut self, finding: &Finding) -> Option<SuppressMatch> {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == finding.fingerprint.0)
        {
            e.file = finding.file.clone();
            e.line = finding.line;
            vc_obs::counter_inc(names::SUPPRESS_STORE);
            return Some(SuppressMatch::Fingerprint);
        }
        let e = self.entries.iter_mut().find(|e| {
            e.file == finding.file
                && (e.scenario == ANY_SCENARIO || e.scenario == finding.scenario)
                && e.line.abs_diff(finding.line) <= CHURN_NEARBY_LINES
        })?;
        e.fingerprint = finding.fingerprint.0;
        e.line = finding.line;
        vc_obs::counter_inc(names::SUPPRESS_LINE_MAPPED);
        Some(SuppressMatch::NearbyLine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Fingerprint;

    fn sources(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect()
    }

    fn finding(file: &str, line: u32, scenario: &str, fp: u64) -> Finding {
        Finding {
            fingerprint: Fingerprint(fp),
            file: file.into(),
            line,
            function: "f".into(),
            variable: "ret".into(),
            scenario: scenario.into(),
        }
    }

    #[test]
    fn standalone_annotation_covers_the_next_line() {
        let src = sources(&[(
            "a.c",
            "int f(void) {\n// vcheck:allow(retval)\nint ret = g();\nreturn 0;\n}\n",
        )]);
        let inline = InlineSuppressions::from_sources(&src);
        assert_eq!(inline.len(), 1);
        assert!(inline.allows("a.c", 3, "retval"));
        assert!(!inline.allows("a.c", 2, "retval"), "not the comment line");
        assert!(!inline.allows("a.c", 3, "param"), "scenario-scoped");
        assert!(!inline.allows("b.c", 3, "retval"));
    }

    #[test]
    fn trailing_annotation_covers_its_own_line() {
        let src = sources(&[(
            "a.c",
            "int f(void) {\nint ret = g(); // vcheck:allow(retval)\nreturn 0;\n}\n",
        )]);
        let inline = InlineSuppressions::from_sources(&src);
        assert!(inline.allows("a.c", 2, "retval"));
        assert!(!inline.allows("a.c", 3, "retval"));
    }

    #[test]
    fn bare_and_all_annotations_match_any_scenario() {
        let src = sources(&[(
            "a.c",
            "int x = g(); // vcheck:allow\nint y = h(); // vcheck:allow(all)\n",
        )]);
        let inline = InlineSuppressions::from_sources(&src);
        assert!(inline.allows("a.c", 1, "retval"));
        assert!(inline.allows("a.c", 1, "overwritten"));
        assert!(inline.allows("a.c", 2, "param"));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vc-suppress-{}-{}", std::process::id(), name))
    }

    #[test]
    fn store_roundtrips_atomically() {
        let path = temp_path("roundtrip");
        let store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 0xABCD,
                file: "a.c".into(),
                line: 7,
                scenario: "retval".into(),
                reason: "vetted 2026-08".into(),
            }],
        };
        store.save(&path).unwrap();
        assert_eq!(SuppressStore::load(&path), store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_match_wins_and_refreshes_coordinates() {
        let mut store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 42,
                file: "a.c".into(),
                line: 3,
                scenario: "retval".into(),
                reason: String::new(),
            }],
        };
        let obs = vc_obs::ObsSession::new();
        let m = {
            let _g = obs.install();
            store.match_and_heal(&finding("a.c", 30, "retval", 42))
        };
        assert_eq!(m, Some(SuppressMatch::Fingerprint));
        assert_eq!(store.entries[0].line, 30, "coordinates refreshed");
        assert_eq!(obs.registry.counter(names::SUPPRESS_STORE), 1);
    }

    #[test]
    fn nearby_line_fallback_heals_the_fingerprint() {
        let mut store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 42,
                file: "a.c".into(),
                line: 10,
                scenario: "retval".into(),
                reason: String::new(),
            }],
        };
        let obs = vc_obs::ObsSession::new();
        // Fingerprint moved (definition line edited), but the finding sits
        // within CHURN_NEARBY_LINES of the entry's advanced line.
        let m = {
            let _g = obs.install();
            store.match_and_heal(&finding("a.c", 12, "retval", 99))
        };
        assert_eq!(m, Some(SuppressMatch::NearbyLine));
        assert_eq!(store.entries[0].fingerprint, 99, "healed");
        assert_eq!(obs.registry.counter(names::SUPPRESS_LINE_MAPPED), 1);
        // Far away, or a different scenario: no match.
        assert_eq!(store.match_and_heal(&finding("a.c", 40, "retval", 7)), None);
        assert_eq!(store.match_and_heal(&finding("a.c", 12, "param", 7)), None);
    }

    #[test]
    fn advance_tracks_drift_through_the_line_map() {
        let mut store = SuppressStore {
            entries: vec![SuppressEntry {
                fingerprint: 1,
                file: "a.c".into(),
                line: 2,
                scenario: "all".into(),
                reason: String::new(),
            }],
        };
        let old = sources(&[("a.c", "one\ntwo\nthree\n")]);
        let new = sources(&[("a.c", "pad\npad\none\ntwo\nthree\n")]);
        store.advance(&old, &new);
        assert_eq!(store.entries[0].line, 4, "two pad lines above");
        // A deleted file leaves the entry untouched.
        let gone = sources(&[]);
        store.advance(&new, &gone);
        assert_eq!(store.entries[0].line, 4);
    }
}
