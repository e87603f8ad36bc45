//! The findings database: one finding's lifecycle across a whole history.
//!
//! `vcheck history` replays every commit of a repository and drives each
//! drift-stable fingerprint through an explicit state machine:
//!
//! ```text
//! born ──► persisting ──► churned ──► … ──► fixed | suppressed
//! ```
//!
//! A *track* is one finding followed across revisions; its id is the
//! fingerprint it was **born** with (later revisions may re-key the
//! current fingerprint via the line-map fallback, the track id never
//! moves). Every commit appends exactly one lifecycle event per live
//! track — `born`, `persisting`, or `churned` — plus a `suppressed` event
//! when an annotation or store entry covers it at that commit, and a
//! final `fixed` event at the commit where it disappears. A track's
//! **final state** is the kind of its last event: `fixed`, `suppressed`,
//! or (anything else) still live.
//!
//! The database is a compact append-only text file in the one store
//! format of [`crate::store`]; its load defects count under the snapshot
//! store's `harden.snapshot_*` counters. Because the replay classifies
//! rows in canonical order, the serialized bytes are identical for any
//! `--jobs` value and across `--resume`.
//!
//! Beyond raw events the DB records one [`CommitAgg`] per commit — the
//! candidate funnel including the per-pattern prune counts — and derives
//! [`ScenarioStats`] per scenario: survival time, fix rate, and churn
//! rate. A pattern whose findings are never fixed but churn forever is
//! a false-positive generator; the fix/churn rates are the per-pattern
//! precision telemetry the paper's Table 4 measures by hand.

use std::{
    collections::{
        BTreeMap,
        HashMap, //
    },
    ops::Deref,
    path::Path,
};

use vc_obs::{
    names,
    Json, //
};
use vc_vcs::CommitId;

use crate::{
    delta::{
        Finding,
        Fingerprint, //
    },
    store, //
};

/// On-disk format version of the lifecycle DB.
pub const LIFEDB_FILE_VERSION: u32 = 1;

const LIFEDB_MAGIC: &str = "vcheck-lifedb";

/// What happened to one track at one commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LifeEventKind {
    /// First sighting.
    Born,
    /// Still present, at (or near) its projected location.
    Persisting,
    /// Still present, but relocated beyond the churn threshold.
    Churned,
    /// Covered by an inline annotation or a suppression-store entry.
    Suppressed,
    /// Disappeared at this commit.
    Fixed,
}

impl LifeEventKind {
    /// Stable lower-case label (DB and JSON field).
    pub fn label(self) -> &'static str {
        match self {
            LifeEventKind::Born => "born",
            LifeEventKind::Persisting => "persisting",
            LifeEventKind::Churned => "churned",
            LifeEventKind::Suppressed => "suppressed",
            LifeEventKind::Fixed => "fixed",
        }
    }

    /// Parses a label back.
    pub fn parse(s: &str) -> Option<LifeEventKind> {
        Some(match s {
            "born" => LifeEventKind::Born,
            "persisting" => LifeEventKind::Persisting,
            "churned" => LifeEventKind::Churned,
            "suppressed" => LifeEventKind::Suppressed,
            "fixed" => LifeEventKind::Fixed,
            _ => return None,
        })
    }
}

/// One appended lifecycle event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LifeEvent {
    /// The commit the event happened at.
    pub commit: CommitId,
    /// Track id: the fingerprint the finding was born with.
    pub track: Fingerprint,
    /// What happened.
    pub kind: LifeEventKind,
    /// The finding at this commit (the old revision's for `fixed`). Its
    /// fingerprint diverges from the track id after a line-map re-key.
    pub finding: Finding,
}

impl Deref for LifeEvent {
    type Target = Finding;

    fn deref(&self) -> &Finding {
        &self.finding
    }
}

/// The candidate funnel of one replayed commit, prune patterns broken out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitAgg {
    /// The commit.
    pub commit: CommitId,
    /// Raw unused definitions detected.
    pub raw: u64,
    /// After the cross-scope filter.
    pub cross_scope: u64,
    /// Pruned per pattern, in [`PruneReason::ALL`](crate::prune::PruneReason::ALL) order:
    /// `(label, count)`.
    pub pruned: Vec<(String, u64)>,
    /// Findings reported at the commit.
    pub reported: u64,
}

/// A track's final state, per the last event on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinalState {
    /// Last event was `fixed`.
    Fixed,
    /// Last event was `suppressed`.
    Suppressed,
    /// Anything else: still live (and unsuppressed) at head.
    Live,
}

impl FinalState {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            FinalState::Fixed => "fixed",
            FinalState::Suppressed => "suppressed",
            FinalState::Live => "live",
        }
    }
}

/// The lifecycle funnel: every born track ends in exactly one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Distinct tracks born across the history.
    pub born: u64,
    /// Tracks whose last event is `fixed`.
    pub fixed: u64,
    /// Tracks suppressed at head.
    pub suppressed: u64,
    /// Tracks live and unsuppressed at head.
    pub live: u64,
}

impl Funnel {
    /// The balance invariant the CI step asserts.
    pub fn balances(&self) -> bool {
        self.born == self.fixed + self.suppressed + self.live
    }
}

/// Per-scenario precision telemetry derived from the event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioStats {
    /// Tracks born with this scenario.
    pub born: u64,
    /// Tracks fixed.
    pub fixed: u64,
    /// Tracks suppressed at head.
    pub suppressed: u64,
    /// Tracks live at head.
    pub live: u64,
    /// `persisting` events.
    pub persist_events: u64,
    /// `churned` events.
    pub churn_events: u64,
    /// Sum over tracks of commits survived (birth inclusive, so a track
    /// born and fixed in consecutive commits survived 1).
    pub survival_commits: u64,
    /// `fixed / born` — how often developers actually fix the pattern.
    pub fix_rate: f64,
    /// `churned / (persisting + churned)` — how often a surviving finding
    /// rides along code reorganisations instead of being addressed; a
    /// proxy false-positive score.
    pub churn_rate: f64,
}

/// The append-only findings database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LifeDb {
    /// Events in replay order (commit-major, canonical row order within).
    pub events: Vec<LifeEvent>,
    /// One funnel record per replayed commit.
    pub aggs: Vec<CommitAgg>,
}

impl LifeDb {
    /// Appends one event, counting it under `life.db.events`.
    pub fn push_event(&mut self, event: LifeEvent) {
        vc_obs::counter_inc(names::LIFE_DB_EVENTS);
        self.events.push(event);
    }

    /// Final state per track, by last event.
    pub fn final_states(&self) -> BTreeMap<Fingerprint, FinalState> {
        let mut last: BTreeMap<Fingerprint, LifeEventKind> = BTreeMap::new();
        for e in &self.events {
            last.insert(e.track, e.kind);
        }
        last.into_iter()
            .map(|(track, kind)| {
                let state = match kind {
                    LifeEventKind::Fixed => FinalState::Fixed,
                    LifeEventKind::Suppressed => FinalState::Suppressed,
                    _ => FinalState::Live,
                };
                (track, state)
            })
            .collect()
    }

    /// The lifecycle funnel over all tracks.
    pub fn funnel(&self) -> Funnel {
        let mut f = Funnel::default();
        for (_, state) in self.final_states() {
            f.born += 1;
            match state {
                FinalState::Fixed => f.fixed += 1,
                FinalState::Suppressed => f.suppressed += 1,
                FinalState::Live => f.live += 1,
            }
        }
        f
    }

    /// Per-scenario stats. A track's scenario is taken from its birth
    /// event (scenarios are part of the fingerprint, so they never change
    /// within a track).
    pub fn scenario_stats(&self) -> BTreeMap<String, ScenarioStats> {
        let finals = self.final_states();
        let mut stats: BTreeMap<String, ScenarioStats> = BTreeMap::new();
        let mut scenario_of: HashMap<Fingerprint, String> = HashMap::new();
        let mut events_of: HashMap<Fingerprint, u64> = HashMap::new();
        for e in &self.events {
            scenario_of
                .entry(e.track)
                .or_insert_with(|| e.scenario.clone());
            let s = stats.entry(e.scenario.clone()).or_default();
            match e.kind {
                LifeEventKind::Persisting => s.persist_events += 1,
                LifeEventKind::Churned => s.churn_events += 1,
                _ => {}
            }
            // Lifecycle events only: `suppressed` piggybacks on the same
            // commit as its track's born/persisting/churned event, and
            // `fixed` marks the commit the finding is already gone from.
            if matches!(
                e.kind,
                LifeEventKind::Born | LifeEventKind::Persisting | LifeEventKind::Churned
            ) {
                *events_of.entry(e.track).or_default() += 1;
            }
        }
        for (track, state) in finals {
            let Some(scenario) = scenario_of.get(&track) else {
                continue;
            };
            let s = stats.entry(scenario.clone()).or_default();
            s.born += 1;
            s.survival_commits += events_of.get(&track).copied().unwrap_or(0);
            match state {
                FinalState::Fixed => s.fixed += 1,
                FinalState::Suppressed => s.suppressed += 1,
                FinalState::Live => s.live += 1,
            }
        }
        for s in stats.values_mut() {
            if s.born > 0 {
                s.fix_rate = s.fixed as f64 / s.born as f64;
            }
            let survived = s.persist_events + s.churn_events;
            if survived > 0 {
                s.churn_rate = s.churn_events as f64 / survived as f64;
            }
        }
        stats
    }

    /// Total pruned per pattern over the whole replay, in first-seen
    /// (pipeline) order.
    pub fn prune_totals(&self) -> Vec<(String, u64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: HashMap<String, u64> = HashMap::new();
        for agg in &self.aggs {
            for (label, n) in &agg.pruned {
                if !totals.contains_key(label) {
                    order.push(label.clone());
                }
                *totals.entry(label.clone()).or_default() += n;
            }
        }
        order
            .into_iter()
            .map(|l| {
                let n = totals[&l];
                (l, n)
            })
            .collect()
    }

    /// Serialises the DB (including its checksum line). The byte output is
    /// canonical: replays with any worker count produce identical files.
    pub fn to_text(&self) -> String {
        store::encode(LIFEDB_MAGIC, LIFEDB_FILE_VERSION, |out| {
            for e in &self.events {
                out.push_str(&format!(
                    "event {}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    e.commit.0,
                    e.track.to_hex(),
                    e.fingerprint.to_hex(),
                    e.kind.label(),
                    e.file,
                    e.line,
                    e.function,
                    e.variable,
                    e.scenario
                ));
            }
            for a in &self.aggs {
                let pruned = a
                    .pruned
                    .iter()
                    .map(|(l, n)| format!("{l}={n}"))
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!(
                    "agg {}\t{}\t{}\t{}\t{}\n",
                    a.commit.0, a.raw, a.cross_scope, pruned, a.reported
                ));
            }
        })
    }

    /// Writes the DB atomically, as every store in [`crate::store`] is
    /// written.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        store::save(path, &self.to_text())
    }

    /// Loads a DB from disk. **Never fails**: missing → empty; a checksum
    /// mismatch degrades to empty under `harden.snapshot_corrupt`, any
    /// other defect under `harden.snapshot_recovered` (the DB shares the
    /// snapshot store's counters).
    pub fn load(path: &Path) -> LifeDb {
        store::load(
            path,
            LIFEDB_MAGIC,
            LIFEDB_FILE_VERSION,
            store::SNAPSHOT_COUNTERS,
            |db: &mut LifeDb, rec| {
                if let Some(rec) = rec.strip_prefix("event ") {
                    let [commit, track, fingerprint, kind, file, line, function, variable, scenario] =
                        store::fields(rec)?;
                    db.events.push(LifeEvent {
                        commit: CommitId(commit.parse().ok()?),
                        track: Fingerprint::parse_hex(track)?,
                        kind: LifeEventKind::parse(kind)?,
                        finding: Finding {
                            fingerprint: Fingerprint::parse_hex(fingerprint)?,
                            file: file.to_string(),
                            line: line.parse().ok()?,
                            function: function.to_string(),
                            variable: variable.to_string(),
                            scenario: scenario.to_string(),
                        },
                    });
                    return Some(());
                }
                let [commit, raw, cross_scope, pruned, reported] =
                    store::fields(rec.strip_prefix("agg ")?)?;
                let mut agg = CommitAgg {
                    commit: CommitId(commit.parse().ok()?),
                    raw: raw.parse().ok()?,
                    cross_scope: cross_scope.parse().ok()?,
                    pruned: Vec::new(),
                    reported: reported.parse().ok()?,
                };
                if !pruned.is_empty() {
                    for pair in pruned.split(',') {
                        let (label, n) = pair.split_once('=')?;
                        agg.pruned.push((label.to_string(), n.parse().ok()?));
                    }
                }
                db.aggs.push(agg);
                Some(())
            },
        )
    }

    /// The lifecycle funnel and per-scenario stats as a terminal table
    /// (the `vcheck history --stats` rendering).
    pub fn render_funnel(&self) -> String {
        let f = self.funnel();
        let mut out = String::new();
        out.push_str(&format!(
            "lifecycle funnel ({} commits, {} events)\n",
            self.aggs.len(),
            self.events.len()
        ));
        out.push_str(&format!("  born        {:>6}\n", f.born));
        out.push_str(&format!("  fixed       {:>6}\n", f.fixed));
        out.push_str(&format!("  suppressed  {:>6}\n", f.suppressed));
        out.push_str(&format!("  live        {:>6}\n", f.live));
        let stats = self.scenario_stats();
        if !stats.is_empty() {
            out.push_str(
                "  scenario       born  fixed   supp   live  fix-rate  churn-rate  survival\n",
            );
            for (scenario, s) in &stats {
                let avg_survival = if s.born > 0 {
                    s.survival_commits as f64 / s.born as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {:<12} {:>6} {:>6} {:>6} {:>6}  {:>8.2}  {:>10.2}  {:>8.1}\n",
                    scenario,
                    s.born,
                    s.fixed,
                    s.suppressed,
                    s.live,
                    s.fix_rate,
                    s.churn_rate,
                    avg_survival
                ));
            }
        }
        let pruned = self.prune_totals();
        if !pruned.is_empty() {
            out.push_str("  pruned over history:");
            for (label, n) in &pruned {
                out.push_str(&format!(" {label}={n}"));
            }
            out.push('\n');
        }
        out
    }

    /// The `--lifecycle-json` export: versioned and environment-stamped
    /// like the `--metrics-json` export, with the funnel, per-scenario
    /// stats, per-pattern prune totals, and the full event stream.
    pub fn to_json_export(&self) -> Json {
        let f = self.funnel();
        let funnel = Json::Obj(vec![
            ("born".into(), Json::Int(f.born as i64)),
            ("fixed".into(), Json::Int(f.fixed as i64)),
            ("suppressed".into(), Json::Int(f.suppressed as i64)),
            ("live".into(), Json::Int(f.live as i64)),
        ]);
        let scenarios = Json::Obj(
            self.scenario_stats()
                .into_iter()
                .map(|(scenario, s)| {
                    (
                        scenario,
                        Json::Obj(vec![
                            ("born".into(), Json::Int(s.born as i64)),
                            ("fixed".into(), Json::Int(s.fixed as i64)),
                            ("suppressed".into(), Json::Int(s.suppressed as i64)),
                            ("live".into(), Json::Int(s.live as i64)),
                            ("persist_events".into(), Json::Int(s.persist_events as i64)),
                            ("churn_events".into(), Json::Int(s.churn_events as i64)),
                            (
                                "survival_commits".into(),
                                Json::Int(s.survival_commits as i64),
                            ),
                            ("fix_rate".into(), Json::Float(s.fix_rate)),
                            ("churn_rate".into(), Json::Float(s.churn_rate)),
                        ]),
                    )
                })
                .collect(),
        );
        let pruned = Json::Obj(
            self.prune_totals()
                .into_iter()
                .map(|(l, n)| (l, Json::Int(n as i64)))
                .collect(),
        );
        let events = Json::Arr(
            self.events
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("commit".into(), Json::Int(e.commit.0 as i64)),
                        ("track".into(), Json::Str(e.track.to_hex())),
                        ("fingerprint".into(), Json::Str(e.fingerprint.to_hex())),
                        ("kind".into(), Json::Str(e.kind.label().into())),
                        ("file".into(), Json::Str(e.file.clone())),
                        ("line".into(), Json::Int(e.line as i64)),
                        ("function".into(), Json::Str(e.function.clone())),
                        ("variable".into(), Json::Str(e.variable.clone())),
                        ("scenario".into(), Json::Str(e.scenario.clone())),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Int(vc_obs::METRICS_SCHEMA_VERSION),
            ),
            ("env".into(), Json::Str(vc_obs::env_fingerprint())),
            ("commits".into(), Json::Int(self.aggs.len() as i64)),
            ("funnel".into(), funnel),
            ("scenarios".into(), scenarios),
            ("pruned".into(), pruned),
            ("events".into(), events),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(commit: u32, track: u64, kind: LifeEventKind, scenario: &str) -> LifeEvent {
        LifeEvent {
            commit: CommitId(commit),
            track: Fingerprint(track),
            kind,
            finding: Finding {
                fingerprint: Fingerprint(track),
                file: "a.c".into(),
                line: commit + 3,
                function: "f".into(),
                variable: "ret".into(),
                scenario: scenario.into(),
            },
        }
    }

    fn sample_db() -> LifeDb {
        let mut db = LifeDb::default();
        // Track 1: born, persists, fixed.
        db.events
            .push(event(1, 0x11, LifeEventKind::Born, "retval"));
        db.events
            .push(event(2, 0x11, LifeEventKind::Persisting, "retval"));
        db.events
            .push(event(3, 0x11, LifeEventKind::Fixed, "retval"));
        // Track 2: born, churns, suppressed at head.
        db.events
            .push(event(1, 0x22, LifeEventKind::Born, "retval"));
        db.events
            .push(event(2, 0x22, LifeEventKind::Churned, "retval"));
        db.events
            .push(event(3, 0x22, LifeEventKind::Persisting, "retval"));
        db.events
            .push(event(3, 0x22, LifeEventKind::Suppressed, "retval"));
        // Track 3: born at head, live.
        db.events.push(event(3, 0x33, LifeEventKind::Born, "param"));
        db.aggs = vec![
            CommitAgg {
                commit: CommitId(1),
                raw: 5,
                cross_scope: 3,
                pruned: vec![("cursor".into(), 1)],
                reported: 2,
            },
            CommitAgg {
                commit: CommitId(2),
                raw: 4,
                cross_scope: 3,
                pruned: vec![("cursor".into(), 1), ("unused_hint".into(), 1)],
                reported: 2,
            },
            CommitAgg {
                commit: CommitId(3),
                raw: 4,
                cross_scope: 3,
                pruned: vec![],
                reported: 3,
            },
        ];
        db
    }

    #[test]
    fn final_states_take_the_last_event() {
        let db = sample_db();
        let finals = db.final_states();
        assert_eq!(finals[&Fingerprint(0x11)], FinalState::Fixed);
        assert_eq!(finals[&Fingerprint(0x22)], FinalState::Suppressed);
        assert_eq!(finals[&Fingerprint(0x33)], FinalState::Live);
    }

    #[test]
    fn funnel_balances() {
        let f = sample_db().funnel();
        assert_eq!(
            f,
            Funnel {
                born: 3,
                fixed: 1,
                suppressed: 1,
                live: 1
            }
        );
        assert!(f.balances());
    }

    #[test]
    fn scenario_stats_split_fix_and_churn_rates() {
        let stats = sample_db().scenario_stats();
        let retval = &stats["retval"];
        assert_eq!(retval.born, 2);
        assert_eq!(retval.fixed, 1);
        assert_eq!(retval.suppressed, 1);
        assert_eq!(retval.live, 0);
        assert_eq!(retval.persist_events, 2);
        assert_eq!(retval.churn_events, 1);
        // Track 0x11 survived commits 1-2 (2 sightings), 0x22 commits 1-3.
        assert_eq!(retval.survival_commits, 5);
        assert!((retval.fix_rate - 0.5).abs() < 1e-9);
        assert!((retval.churn_rate - 1.0 / 3.0).abs() < 1e-9);
        let param = &stats["param"];
        assert_eq!(param.born, 1);
        assert_eq!(param.live, 1);
        assert_eq!(param.fix_rate, 0.0);
    }

    #[test]
    fn prune_totals_aggregate_in_pipeline_order() {
        assert_eq!(
            sample_db().prune_totals(),
            vec![("cursor".into(), 2), ("unused_hint".into(), 1)]
        );
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vc-lifedb-{}-{}", std::process::id(), name))
    }

    #[test]
    fn db_roundtrips_through_disk() {
        let path = temp_path("roundtrip");
        let db = sample_db();
        db.save(&path).unwrap();
        assert_eq!(LifeDb::load(&path), db);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn funnel_render_mentions_every_bucket() {
        let text = sample_db().render_funnel();
        for needle in ["born", "fixed", "suppressed", "live", "retval", "cursor"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn json_export_is_versioned_and_stamped() {
        let json = sample_db().to_json_export();
        let text = json.to_string_pretty();
        assert!(text.contains("\"schema_version\""));
        assert!(text.contains("\"env\""));
        assert!(text.contains("\"funnel\""));
        assert!(text.contains("\"churn_rate\""));
    }
}
