//! Final bug reports: serializable rows plus CSV and JSON rendering,
//! matching the artifact's `detected.csv` output.
//!
//! A row is one [`Finding`] (its drift-stable fingerprint and its file,
//! line, function, variable and scenario) plus rank, author, familiarity
//! and flags. [`Report::from_ranked`] fingerprints each finding as it
//! builds the row, and delta, history, the lifecycle database and serve
//! read the rows' findings; no other place computes a fingerprint.

use std::ops::Deref;

use vc_ir::program::{
    BuildError,
    RecoverStats, //
};
use vc_obs::{
    Json,
    Registry, //
};
use vc_vcs::Repository;

use crate::{
    delta::{
        fingerprint_of,
        normalize_context,
        Finding,
        Fingerprint, //
    },
    harden::{
        FailStage,
        FailureRecord, //
    },
    rank::Ranked, //
};

/// One row of the final report.
#[derive(Clone, Debug)]
pub struct ReportRow {
    /// Rank position (1-based; 1 = least familiar author).
    pub rank: usize,
    /// The fingerprinted finding: what every later stage tracks.
    pub finding: Finding,
    /// Resolved author name of the definition line, if known.
    pub author: Option<String>,
    /// Familiarity (DOK) score; lower = higher priority.
    pub familiarity: Option<f64>,
    /// Whether the finding crossed author scopes.
    pub cross_scope: bool,
    /// Whether the backing analysis was degraded (liveness budget cut the
    /// fixpoint short, or authorship had to fall back to the conservative
    /// cross-scope default).
    pub low_confidence: bool,
}

impl Deref for ReportRow {
    type Target = Finding;

    fn deref(&self) -> &Finding {
        &self.finding
    }
}

/// A complete report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Ranked rows, highest priority first.
    pub rows: Vec<ReportRow>,
    /// Units of work that were poisoned (panicked or failed to parse) and
    /// isolated instead of aborting the run.
    pub failures: Vec<FailureRecord>,
}

impl Report {
    /// Builds a report from ranked findings, fingerprinting each one
    /// against its program's sources.
    ///
    /// The ordinal in a fingerprint disambiguates findings that agree on
    /// every other coordinate (e.g. two textually identical `ret = f();`
    /// definitions of the same variable in one function): same-keyed
    /// findings are numbered in line order, which pure drift preserves.
    pub fn from_ranked(prog: &vc_ir::Program, repo: &Repository, ranked: &[Ranked]) -> Report {
        // The normalized text of each finding's definition line, found
        // through a line index built on a file's first row: one pass over
        // each file, not one per row.
        let mut contexts = Vec::with_capacity(ranked.len());
        let mut line_starts: Vec<Option<Vec<usize>>> = vec![None; prog.source.len()];
        let mut rows: Vec<ReportRow> = (ranked.iter().enumerate())
            .map(|(i, r)| {
                let c = &r.item.candidate;
                let line = c.span.line();
                let text = prog.source.file(c.span.file).map(|f| {
                    let starts = line_starts[f.id.0 as usize].get_or_insert_with(|| {
                        let newlines = f.content.bytes().enumerate().filter(|&(_, b)| b == b'\n');
                        std::iter::once(0)
                            .chain(newlines.map(|(at, _)| at + 1))
                            .collect()
                    });
                    let n = (line as usize).saturating_sub(1);
                    let start = starts.get(n).copied().unwrap_or(f.content.len());
                    let end = starts.get(n + 1).map_or(f.content.len(), |&next| next - 1);
                    &f.content[start..end]
                });
                contexts.push(text.map(normalize_context).unwrap_or_default());
                ReportRow {
                    rank: i + 1,
                    finding: Finding {
                        fingerprint: Fingerprint(0),
                        file: prog.source.name(c.span.file).to_string(),
                        line,
                        function: prog.func(c.func).name.clone(),
                        variable: String::from(&*c.var_name),
                        scenario: c.scenario.label().to_string(),
                    },
                    author: r.author.map(|a| repo.author(a).name.clone()),
                    familiarity: r.familiarity,
                    cross_scope: r.item.cross_scope,
                    low_confidence: c.low_confidence || r.item.authorship_unknown,
                }
            })
            .collect();
        fn coords<'a>(rows: &'a [ReportRow], contexts: &'a [String], i: usize) -> [&'a str; 5] {
            let f = &rows[i].finding;
            [&f.file, &f.function, &f.variable, &f.scenario, &contexts[i]]
        }
        // Findings that share all five coordinates are numbered in line order.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| (coords(&rows, &contexts, i), rows[i].line, i));
        let mut ordinal = 0;
        for (k, &i) in order.iter().enumerate() {
            let key = coords(&rows, &contexts, i);
            let same = k > 0 && coords(&rows, &contexts, order[k - 1]) == key;
            ordinal = if same { ordinal + 1 } else { 0 };
            rows[i].finding.fingerprint = fingerprint_of(key, ordinal);
        }
        Report {
            rows,
            failures: Vec::new(),
        }
    }

    /// Accounts for a recovering build's front end: splices one parse-stage
    /// failure per build error, in input order, ahead of the analysis-stage
    /// failures, and adds `harden.parse_failures` and the `recover.*`
    /// counters to `registry`. Batch scans, serve replies and revision
    /// scans (whole or of one commit) all account for their front end
    /// through here.
    pub fn splice_parse_failures(
        &mut self,
        registry: &Registry,
        errors: &[BuildError],
        stats: &RecoverStats,
    ) {
        use vc_obs::names;
        registry.add(names::HARDEN_PARSE_FAILURES, errors.len() as u64);
        registry.add(names::RECOVER_LEX_ERRORS, stats.lex_errors);
        registry.add(names::RECOVER_PARSE_ERRORS, stats.parse_errors);
        registry.add(names::RECOVER_POISONED_STMTS, stats.poisoned_stmts);
        registry.add(names::RECOVER_FUNCTIONS_DROPPED, stats.functions_dropped);
        registry.add(names::RECOVER_FILES_DROPPED, stats.files_dropped);
        let front = errors.iter().map(|e| FailureRecord {
            stage: FailStage::Parse,
            file: e.file().to_string(),
            function: e.function().map(str::to_string),
            message: e.to_string(),
        });
        self.failures.splice(0..0, front);
    }

    /// Renders the report as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "rank,file,line,function,variable,scenario,author,familiarity,cross_scope,low_confidence\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.rank,
                csv_escape(&r.file),
                r.line,
                csv_escape(&r.function),
                csv_escape(&r.variable),
                r.scenario,
                csv_escape(r.author.as_deref().unwrap_or("")),
                r.familiarity.map(|f| format!("{f:.3}")).unwrap_or_default(),
                r.cross_scope,
                r.low_confidence,
            ));
        }
        out
    }

    /// Every rendered byte of the report — the CSV followed by the JSON —
    /// as one buffer. The determinism tests compare this across worker
    /// counts and resume points: equality here means equality of anything
    /// `vcheck` can print.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = self.to_csv().into_bytes();
        out.extend_from_slice(self.to_json().as_bytes());
        out
    }

    /// Renders the report as pretty-printed JSON: `{"rows": [...]}`.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// The report as a [`Json`] value, for embedding in larger documents
    /// (the serve protocol replies with the report inline). Rendering this
    /// with `to_string_pretty` is byte-identical to [`Report::to_json`].
    pub fn to_json_value(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("rank".into(), Json::Int(r.rank as i64)),
                    ("file".into(), Json::Str(r.file.clone())),
                    ("line".into(), Json::Int(r.line as i64)),
                    ("function".into(), Json::Str(r.function.clone())),
                    ("variable".into(), Json::Str(r.variable.clone())),
                    ("scenario".into(), Json::Str(r.scenario.clone())),
                    (
                        "author".into(),
                        r.author.clone().map_or(Json::Null, Json::Str),
                    ),
                    (
                        "familiarity".into(),
                        r.familiarity.map_or(Json::Null, Json::Float),
                    ),
                    ("cross_scope".into(), Json::Bool(r.cross_scope)),
                    ("low_confidence".into(), Json::Bool(r.low_confidence)),
                ])
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("stage".into(), Json::Str(f.stage.label().to_string())),
                    ("file".into(), Json::Str(f.file.clone())),
                    (
                        "function".into(),
                        f.function.clone().map_or(Json::Null, Json::Str),
                    ),
                    ("message".into(), Json::Str(f.message.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("rows".into(), Json::Arr(rows)),
            ("failures".into(), Json::Arr(failures)),
        ])
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Quotes a CSV field when it holds a comma, quote or line break (the
/// quoting of every CSV this crate writes).
pub(crate) fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_escaping_quotes_embedded_newlines() {
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_escape("cr\rhere"), "\"cr\rhere\"");
        assert_eq!(csv_escape("crlf\r\nend"), "\"crlf\r\nend\"");
    }

    #[test]
    fn newline_in_author_stays_one_csv_record() {
        let r = Report {
            rows: vec![ReportRow {
                rank: 1,
                finding: Finding {
                    fingerprint: Fingerprint(0),
                    file: "a.c".into(),
                    line: 3,
                    function: "f".into(),
                    variable: "x".into(),
                    scenario: "overwritten".into(),
                },
                author: Some("evil\nauthor".into()),
                familiarity: None,
                cross_scope: true,
                low_confidence: false,
            }],
            failures: Vec::new(),
        };
        let csv = r.to_csv();
        // Header + one (quoted) record: the embedded newline must not tear
        // the row, so unquoted record boundaries stay at exactly two.
        let records = csv.split('\n').filter(|l| !l.is_empty()).count();
        assert_eq!(records, 3, "newline is inside quotes, not a row break");
        assert!(csv.contains("\"evil\nauthor\""));
    }

    #[test]
    fn empty_report_has_header_only() {
        let r = Report::default();
        assert!(r.is_empty());
        assert_eq!(r.to_csv().lines().count(), 1);
    }

    #[test]
    fn json_report_parses_and_keeps_fields() {
        let r = Report {
            rows: vec![ReportRow {
                rank: 1,
                finding: Finding {
                    fingerprint: Fingerprint(0),
                    file: "nfs.c".into(),
                    line: 6,
                    function: "nfs_readdir".into(),
                    variable: "error".into(),
                    scenario: "retval".into(),
                },
                author: Some("author1".into()),
                familiarity: Some(0.25),
                cross_scope: true,
                low_confidence: false,
            }],
            failures: vec![crate::harden::FailureRecord {
                stage: crate::harden::FailStage::Detect,
                file: "bad.c".into(),
                function: Some("broken".into()),
                message: "boom".into(),
            }],
        };
        let doc = vc_obs::json::parse(&r.to_json()).unwrap();
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("line").and_then(Json::as_i64), Some(6));
        assert_eq!(
            rows[0].get("author").and_then(Json::as_str),
            Some("author1")
        );
        assert_eq!(
            rows[0].get("cross_scope").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            rows[0].get("low_confidence").and_then(Json::as_bool),
            Some(false)
        );
        let failures = doc.get("failures").and_then(Json::as_arr).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(
            failures[0].get("stage").and_then(Json::as_str),
            Some("detect")
        );
        assert_eq!(
            failures[0].get("function").and_then(Json::as_str),
            Some("broken")
        );
    }
}
