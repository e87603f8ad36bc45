//! Final bug reports: serializable rows plus CSV and JSON rendering,
//! matching the artifact's `detected.csv` output.

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
    candidate::Scenario,
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
    /// File of the unused definition.
    pub file: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// Containing function.
    pub function: String,
    /// Variable (or field) name.
    pub variable: String,
    /// Scenario label: `retval`, `param`, or `overwritten`.
    pub scenario: String,
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
    /// Builds a report from ranked findings.
    pub fn from_ranked(prog: &vc_ir::Program, repo: &Repository, ranked: &[Ranked]) -> Report {
        let rows = ranked
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let c = &r.item.candidate;
                ReportRow {
                    rank: i + 1,
                    file: prog.source.name(c.span.file).to_string(),
                    line: c.span.line(),
                    function: c.func_name.clone(),
                    variable: c.var_name.clone(),
                    scenario: match &c.scenario {
                        Scenario::RetVal { .. } => "retval".to_string(),
                        Scenario::Param { .. } => "param".to_string(),
                        Scenario::Overwritten => "overwritten".to_string(),
                    },
                    author: r.author.map(|a| repo.author(a).name.clone()),
                    familiarity: r.familiarity,
                    cross_scope: r.item.cross_scope,
                    low_confidence: r.item.candidate.low_confidence || r.item.authorship_unknown,
                }
            })
            .collect();
        Report {
            rows,
            failures: Vec::new(),
        }
    }

    /// Accounts for a recovering build's front end: splices one parse-stage
    /// failure per build error, in input order, ahead of the analysis-stage
    /// failures, and adds `harden.parse_failures` and the `recover.*`
    /// counters to `registry`. Batch scans and serve replies both account
    /// for their front end through here.
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
                        match &r.author {
                            Some(a) => Json::Str(a.clone()),
                            None => Json::Null,
                        },
                    ),
                    (
                        "familiarity".into(),
                        match r.familiarity {
                            Some(f) => Json::Float(f),
                            None => Json::Null,
                        },
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
                        match &f.function {
                            Some(func) => Json::Str(func.clone()),
                            None => Json::Null,
                        },
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

fn csv_escape(s: &str) -> String {
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
                file: "a.c".into(),
                line: 3,
                function: "f".into(),
                variable: "x".into(),
                scenario: "overwritten".into(),
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
                file: "nfs.c".into(),
                line: 6,
                function: "nfs_readdir".into(),
                variable: "error".into(),
                scenario: "retval".into(),
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
