//! Output oracles. Every operation's output is checked against the
//! generator's ground truth — never against another run of the pipeline —
//! and counted in a [`Tally`] whose `failed / attempted` is the run's
//! failure ratio.

use std::collections::BTreeSet;

use valuecheck::{
    history::{
        track_rows,
        HistoryOutcome, //
    },
    lifedb::{
        FinalState,
        LifeEventKind, //
    },
    Report,
};
use vc_obs::Json;
use vc_workload::{
    AppProfile,
    GroundTruth,
    LifeWorkload, //
};

/// Operations attempted and failed in one run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            eprintln!("repobench: {what}: output check failed: {e}");
        }
    }
}

/// `scan-cold`: the report holds exactly the profile's detected findings,
/// of which exactly `confirmed_bugs` are real bugs by the ground truth;
/// nothing failed to build or was isolated; the CSV has one line per row
/// plus its header.
pub fn check_scan(
    report: &Report,
    csv: &str,
    build_errors: usize,
    profile: &AppProfile,
    truth: &GroundTruth,
) -> Result<(), String> {
    if build_errors != 0 || !report.failures.is_empty() {
        return Err(format!(
            "{}: {build_errors} build errors, {} isolated failures",
            profile.name,
            report.failures.len()
        ));
    }
    if report.rows.len() != profile.detected() {
        return Err(format!(
            "{}: {} rows reported, ground truth detects {}",
            profile.name,
            report.rows.len(),
            profile.detected()
        ));
    }
    let (_, real, _) = truth.evaluate(report.rows.iter().map(|r| r.function.as_str()));
    if real != profile.confirmed_bugs {
        return Err(format!(
            "{}: {real} real bugs reported, ground truth confirms {}",
            profile.name, profile.confirmed_bugs
        ));
    }
    if csv.lines().count() != report.rows.len() + 1 {
        return Err(format!(
            "{}: CSV has {} lines for {} rows",
            profile.name,
            csv.lines().count(),
            report.rows.len()
        ));
    }
    Ok(())
}

/// Fingerprints of every current finding in a serve scan reply (the
/// `new` and `persisting` delta classes).
pub fn reply_fingerprints(reply: &Json) -> BTreeSet<String> {
    ["new", "persisting"]
        .iter()
        .filter_map(|class| reply.get("delta")?.get(class)?.as_arr())
        .flatten()
        .filter_map(|f| f.get("fingerprint")?.as_str().map(str::to_string))
        .collect()
}

/// `serve-edit`: the reply is `ok`, met its deadline, and carries exactly
/// the warm-up reply's finding fingerprints. Probe edits add a function
/// with no definitions, so no finding may appear or disappear.
pub fn check_serve_reply(reply: &Json, reference: &BTreeSet<String>) -> Result<(), String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = reply.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("reply not ok: {error}"));
    }
    if reply.get("deadline_exceeded").and_then(Json::as_bool) != Some(false) {
        return Err("reply hit its deadline".to_string());
    }
    let got = reply_fingerprints(reply);
    if &got != reference {
        return Err(format!(
            "{} fingerprints, {} expected; {} missing, {} extra",
            got.len(),
            reference.len(),
            reference.difference(&got).count(),
            got.difference(reference).count()
        ));
    }
    Ok(())
}

/// The final fate of every planted lifecycle bug, by function name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fates {
    /// Live and unsuppressed at head (churned ones included).
    pub live: Vec<String>,
    /// Fixed along the history.
    pub fixed: Vec<String>,
    /// Suppressed at head.
    pub suppressed: Vec<String>,
    /// Carrying a churn event.
    pub churned: Vec<String>,
}

impl Fates {
    /// The fates a replay's findings database records.
    pub fn from_outcome(out: &HistoryOutcome) -> Fates {
        let rows = track_rows(&out.db);
        let in_state = |state: FinalState| {
            rows.iter()
                .filter(|r| r.state == state)
                .map(|r| r.function.clone())
                .collect()
        };
        Fates {
            live: in_state(FinalState::Live),
            fixed: in_state(FinalState::Fixed),
            suppressed: in_state(FinalState::Suppressed),
            churned: out
                .db
                .events
                .iter()
                .filter(|e| e.kind == LifeEventKind::Churned)
                .map(|e| e.function.clone())
                .collect(),
        }
        .sorted()
    }

    /// The same fates with every list sorted.
    pub fn sorted(mut self) -> Fates {
        for v in [
            &mut self.live,
            &mut self.fixed,
            &mut self.suppressed,
            &mut self.churned,
        ] {
            v.sort();
        }
        self
    }

    /// The fates the workload generator scripted.
    pub fn expected(w: &LifeWorkload) -> Fates {
        Fates {
            live: w.expected_live.clone(),
            fixed: w.expected_fixed.clone(),
            suppressed: w.expected_suppressed.clone(),
            churned: w.expected_churned.clone(),
        }
        .sorted()
    }
}

/// `history-replay`: the live, fixed, suppressed and churned sets equal the
/// generator's script.
pub fn check_replay(fates: &Fates, w: &LifeWorkload) -> Result<(), String> {
    let want = Fates::expected(w);
    let sets = [
        ("live", &fates.live, &want.live),
        ("fixed", &fates.fixed, &want.fixed),
        ("suppressed", &fates.suppressed, &want.suppressed),
        ("churned", &fates.churned, &want.churned),
    ];
    for (name, got, want) in sets {
        if got != want {
            return Err(format!(
                "{name}: {} functions, {} expected",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}
