//! The evaluation experiments, one function per table/figure of the paper.
//!
//! Every function returns the rendered text block plus `(file name, CSV)`
//! pairs for the `result/` directory, mirroring the paper artifact's
//! outputs (`table_2_detected_bugs.csv`, ...).

use std::collections::{
    BTreeMap,
    BTreeSet,
    HashSet, //
};
use std::time::Instant;

use valuecheck::{
    authorship::AuthorshipCtx,
    detect::{
        detect_program,
        DetectConfig, //
    },
    incremental::analyze_commit_in,
    pipeline::{
        run,
        Options, //
    },
    prune::{
        PruneConfig,
        PruneReason, //
    },
    rank::RankConfig,
};
use vc_baselines::{
    clang_unused,
    coverity_unused,
    infer_unused,
    smatch_unused, //
};
use vc_familiarity::{
    fit_dok,
    DokModel,
    FactorMask,
    Metrics, //
};
use vc_ir::{
    testing::parse_clean,
    Program, //
};
use vc_workload::{
    BugCategory,
    PlantKind,
    Severity, //
};

use crate::runs::{
    render_csv,
    render_table,
    AppRun,
    Sampler, //
};

/// An experiment's rendered output.
pub struct Output {
    /// Human-readable block (title + table).
    pub text: String,
    /// CSV files to write under `result/`.
    pub csv: Vec<(String, String)>,
}

fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        "-".to_string()
    } else {
        format!("{:.0}%", 100.0 * num as f64 / den as f64)
    }
}

// ---------------------------------------------------------------------------
// Table 2 — newly detected and confirmed bugs.
// ---------------------------------------------------------------------------

/// Table 2: the number of bugs newly detected, per application.
pub fn table2(runs: &[AppRun]) -> Output {
    let mut rows = Vec::new();
    let (mut td, mut tc) = (0, 0);
    for r in runs {
        let detected = r.analysis.detected();
        let confirmed = r.confirmed_detected();
        td += detected;
        tc += confirmed;
        rows.push(vec![
            r.name().to_string(),
            detected.to_string(),
            confirmed.to_string(),
        ]);
    }
    rows.push(vec!["Total".into(), td.to_string(), tc.to_string()]);
    let headers = ["Application", "#Detected Bugs", "#Confirmed Bugs"];
    let text = format!(
        "== Table 2: bugs newly detected by ValueCheck ==\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![(
            "table_2_detected_bugs.csv".into(),
            render_csv(&headers, &rows),
        )],
    }
}

// ---------------------------------------------------------------------------
// Table 3 — bug categories.
// ---------------------------------------------------------------------------

/// Table 3: detected confirmed bugs by category.
pub fn table3(runs: &[AppRun]) -> Output {
    let mut missing = 0;
    let mut semantic = 0;
    let mut examples: Vec<Vec<String>> = Vec::new();
    for r in runs {
        for row in &r.analysis.report.rows {
            if let Some(p) = r.app.truth.lookup(&row.function) {
                if let PlantKind::ConfirmedBug { category, .. } = &p.kind {
                    let (cat, desc) = match category {
                        BugCategory::MissingCheck => {
                            missing += 1;
                            ("Missing Check", describe_shape(&row.function))
                        }
                        BugCategory::Semantic => {
                            semantic += 1;
                            ("Semantic", describe_shape(&row.function))
                        }
                    };
                    if examples.len() < 8 {
                        examples.push(vec![
                            cat.to_string(),
                            r.name().to_string(),
                            desc.to_string(),
                        ]);
                    }
                }
            }
        }
    }
    let headers = ["Bug Type", "App.", "Bug Description"];
    let text = format!(
        "== Table 3: bug categories ==\nMissing Check: {missing}   Semantic: {semantic}\n{}",
        render_table(&headers, &examples)
    );
    let mut rows = examples;
    rows.push(vec![
        "totals".into(),
        format!("missing-check={missing}"),
        format!("semantic={semantic}"),
    ]);
    Output {
        text,
        csv: vec![("table_3_categories.csv".into(), render_csv(&headers, &rows))],
    }
}

fn describe_shape(func: &str) -> &'static str {
    if func.starts_with("acl_") {
        "Unhandled error code (check destroyed by overwrite)"
    } else if func.starts_with("init_") {
        "Missing check on initialization result"
    } else if func.starts_with("seq_") {
        "Unchecked status of a commonly-checked call"
    } else if func.starts_with("open_buf_") {
        "Configuration value overwritten inside callee"
    } else if func.starts_with("host_") {
        "Meaningful value replaced by constant"
    } else {
        "Unused definition indicates lost value"
    }
}

// ---------------------------------------------------------------------------
// Table 4 — prune-rate breakdown and sampled pruning false negatives.
// ---------------------------------------------------------------------------

/// Table 4: prune rates per strategy plus the sampled prune-FN rate.
pub fn table4(runs: &[AppRun]) -> Output {
    let mut rows = Vec::new();
    for r in runs {
        let orig = r.analysis.cross_scope_candidates;
        let counts = [
            r.analysis.pruned_by(PruneReason::ConfigDependency),
            r.analysis.pruned_by(PruneReason::Cursor),
            r.analysis.pruned_by(PruneReason::UnusedHint),
            r.analysis.pruned_by(PruneReason::PeerDefinition),
        ];
        let total: usize = counts.iter().sum();
        // Sample 100 pruned cases and look up ground truth (§8.3.4).
        let pruned = &r.analysis.prune_outcome.pruned;
        let mut sampler = Sampler::new(0x5eed ^ r.app.profile.seed);
        let picks = sampler.sample_indices(pruned.len(), 100);
        let fn_count = picks
            .iter()
            .filter(|&&i| {
                r.app
                    .truth
                    .is_confirmed_bug(&pruned[i].0.candidate.func_name)
            })
            .count();
        rows.push(vec![
            r.name().to_string(),
            orig.to_string(),
            format!("{} ({})", counts[0], pct(counts[0], orig)),
            format!("{} ({})", counts[1], pct(counts[1], orig)),
            format!("{} ({})", counts[2], pct(counts[2], orig)),
            format!("{} ({})", counts[3], pct(counts[3], orig)),
            format!("{} ({})", total, pct(total, orig)),
            r.analysis.detected().to_string(),
            pct(fn_count, picks.len()),
        ]);
    }
    let headers = [
        "App.",
        "#Original",
        "Config Dep.",
        "Cursor",
        "Unused Hints",
        "Peer Def.",
        "Total Pruned",
        "#Detected",
        "%PruneFN(sampled)",
    ];
    let text = format!(
        "== Table 4: prune-rate breakdown ==\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![(
            "table_4_prune_rates.csv".into(),
            render_csv(&headers, &rows),
        )],
    }
}

// ---------------------------------------------------------------------------
// Table 5 — comparison with Clang, Infer, Smatch, Coverity.
// ---------------------------------------------------------------------------

/// Table 5: unused-definition bugs found by each tool.
pub fn table5(runs: &[AppRun]) -> Output {
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut totals: BTreeMap<&str, (usize, usize)> = BTreeMap::new();

    let mut per_tool: Vec<(String, Vec<String>)> = vec![
        ("Clang".into(), Vec::new()),
        ("Infer-unused".into(), Vec::new()),
        ("Smatch-unused".into(), Vec::new()),
        ("Coverity-unused".into(), Vec::new()),
        ("ValueCheck".into(), Vec::new()),
    ];

    for r in runs {
        // Clang.
        let modules: Vec<(String, vc_ir::ast::Module)> = r
            .app
            .sources
            .iter()
            .enumerate()
            .map(|(i, (p, s))| (p.clone(), parse_clean(vc_ir::FileId(i as u32), s)))
            .collect();
        let clang = clang_unused(&modules);
        let (cf, cr) = count_real(r, clang.iter().map(|f| f.function.as_str()));
        per_tool[0].1.push(cell(cf, cr));
        let e = totals.entry("Clang").or_default();
        *e = add(*e, (cf, cr));

        // Infer (partial coverage; errors out at 0 coverage — Linux).
        if r.app.profile.infer_coverage > 0.0 {
            let subset: Vec<(&str, &str)> = r
                .app
                .sources
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    // Deterministic per-file inclusion at the coverage rate.
                    let h = (*i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                    ((h % 1000) as f64) / 1000.0 < r.app.profile.infer_coverage
                })
                .map(|(_, (p, s))| (p.as_str(), s.as_str()))
                .collect();
            let sub = Program::build(&subset, &r.app.defines).expect("subset builds");
            let infer = infer_unused(&sub);
            let (f, real) = count_real(r, infer.iter().map(|x| x.function.as_str()));
            per_tool[1].1.push(cell(f, real));
            *totals.entry("Infer").or_default() =
                add(*totals.entry("Infer").or_default(), (f, real));
        } else {
            per_tool[1].1.push("-*".into());
        }

        // Smatch (builds only Linux).
        if r.app.profile.smatch_builds {
            let sm = smatch_unused(&modules);
            let (f, real) = count_real(r, sm.iter().map(|x| x.function.as_str()));
            per_tool[2].1.push(cell(f, real));
            *totals.entry("Smatch").or_default() =
                add(*totals.entry("Smatch").or_default(), (f, real));
        } else {
            per_tool[2].1.push("-*".into());
        }

        // Coverity with historical-warning suppression.
        let mut cov = coverity_unused(&r.prog, &HashSet::new());
        if let Some(last_run) = r.app.coverity_last_run {
            cov.retain(|f| {
                r.app
                    .repo
                    .blame(&f.file, f.line)
                    .map(|b| b.timestamp >= last_run)
                    .unwrap_or(true)
            });
        }
        let (f, real) = count_real(r, cov.iter().map(|x| x.function.as_str()));
        per_tool[3].1.push(cell(f, real));
        *totals.entry("Coverity").or_default() =
            add(*totals.entry("Coverity").or_default(), (f, real));

        // ValueCheck.
        let vf = r.analysis.detected();
        let vr = r.confirmed_detected();
        per_tool[4].1.push(cell(vf, vr));
        *totals.entry("ValueCheck").or_default() =
            add(*totals.entry("ValueCheck").or_default(), (vf, vr));
    }

    let tool_keys = ["Clang", "Infer", "Smatch", "Coverity", "ValueCheck"];
    for (ti, (tool, cells)) in per_tool.iter().enumerate() {
        let (tf, tr) = totals.get(tool_keys[ti]).copied().unwrap_or((0, 0));
        let mut row = vec![tool.clone()];
        row.extend(cells.iter().cloned());
        row.push(cell(tf, tr));
        csv_rows.push(row.clone());
        rows.push(row);
    }

    let mut headers = vec!["Tool"];
    for r in runs {
        headers.push(r.name());
    }
    headers.push("Total");
    let text = format!(
        "== Table 5: found/real/%FP per tool ==  (-* = tool errors on this application)\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![(
            "table_5_tool_comparison.csv".into(),
            render_csv(&headers, &csv_rows),
        )],
    }
}

fn cell(found: usize, real: usize) -> String {
    if found == 0 {
        "0".to_string()
    } else {
        format!("{}/{}/{}", found, real, pct(found - real, found))
    }
}

fn add(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    (a.0 + b.0, a.1 + b.1)
}

fn count_real<'a>(r: &AppRun, funcs: impl Iterator<Item = &'a str>) -> (usize, usize) {
    let mut found = 0;
    let mut real = 0;
    for f in funcs {
        found += 1;
        if r.app.truth.is_confirmed_bug(f) {
            real += 1;
        }
    }
    (found, real)
}

// ---------------------------------------------------------------------------
// Table 6 — effect of authorship and the DOK model.
// ---------------------------------------------------------------------------

/// Table 6: confirmed bugs among the top-20 findings under ablations.
pub fn table6(runs: &[AppRun]) -> Output {
    let configs: Vec<(&str, Options)> = vec![
        ("ValueCheck", Options::paper()),
        (
            "w/o Authorship",
            Options {
                cross_scope_only: false,
                ..Options::paper()
            },
        ),
        (
            "w/o Familiarity",
            Options {
                rank: RankConfig {
                    enabled: false,
                    ..RankConfig::default()
                },
                ..Options::paper()
            },
        ),
        ("w/o AC", mask_options("ac")),
        ("w/o DL", mask_options("dl")),
        ("w/o FA", mask_options("fa")),
    ];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut per_config_totals = vec![0usize; configs.len()];
    let mut per_app_cells: Vec<Vec<String>> = vec![Vec::new(); runs.len()];
    for (ci, (_, opts)) in configs.iter().enumerate() {
        for (ai, r) in runs.iter().enumerate() {
            let analysis = run(&r.prog, &r.app.repo, opts);
            let top20 = analysis
                .report
                .rows
                .iter()
                .take(20)
                .filter(|row| r.app.truth.is_confirmed_bug(&row.function))
                .count();
            per_config_totals[ci] += top20;
            per_app_cells[ai].push(top20.to_string());
        }
    }
    for (ai, r) in runs.iter().enumerate() {
        let mut row = vec![r.name().to_string()];
        row.extend(per_app_cells[ai].iter().cloned());
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_string()];
    total_row.extend(per_config_totals.iter().map(|t| t.to_string()));
    rows.push(total_row);

    let headers: Vec<&str> = std::iter::once("App.")
        .chain(configs.iter().map(|(n, _)| *n))
        .collect();
    let text = format!(
        "== Table 6: bugs within the top-20 findings, per ablation ==\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![("table_6_dok_effect.csv".into(), render_csv(&headers, &rows))],
    }
}

fn mask_options(factor: &str) -> Options {
    Options {
        rank: RankConfig {
            mask: FactorMask::without(factor),
            ..RankConfig::default()
        },
        ..Options::paper()
    }
}

// ---------------------------------------------------------------------------
// Table 7 — scalability.
// ---------------------------------------------------------------------------

/// Table 7: LOC, whole-application analysis time, and per-commit
/// incremental time over the most recent commits.
pub fn table7(runs: &[AppRun]) -> Output {
    let mut rows = Vec::new();
    let mut total_loc = 0usize;
    let mut total_full = 0.0f64;
    let mut total_inc = 0.0f64;
    for r in runs {
        let loc = r.app.loc();
        total_loc += loc;
        let full = r.full_time.as_secs_f64();
        total_full += full;

        // Incremental: the last up-to-20 commits (the paper uses the first
        // 20 commits of 2022; our histories end mid-2022). Snapshot
        // programs and checkouts are made outside the timed region — the
        // paper measures analysis over pre-compiled bitcode in a checkout
        // of the commit, not compilation or `git checkout`.
        let commits = r.app.repo.commits();
        let recent: Vec<_> = commits.iter().rev().take(20).map(|c| c.id).collect();
        let mut revisions = Vec::new();
        for &c in &recent {
            let prog =
                Program::build(&r.app.repo.tree_at(c), &r.app.defines).expect("snapshot builds");
            revisions.push((c, prog, r.app.repo.checkout(c)));
        }
        let t0 = Instant::now();
        for (c, prog, repo_at) in &revisions {
            let _ = analyze_commit_in(
                prog,
                repo_at,
                *c,
                &PruneConfig::default(),
                &RankConfig::default(),
            );
        }
        let inc = if recent.is_empty() {
            0.0
        } else {
            t0.elapsed().as_secs_f64() / recent.len() as f64
        };
        total_inc += inc;

        rows.push(vec![
            r.name().to_string(),
            loc.to_string(),
            format!("{full:.2}s"),
            format!("{inc:.3}s"),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        total_loc.to_string(),
        format!("{total_full:.2}s"),
        format!("{total_inc:.3}s"),
    ]);
    let headers = ["Application", "#LOC", "Time", "Incremental Time"];
    let text = format!(
        "== Table 7: scalability (synthetic workloads; absolute numbers are \
         not comparable to the paper's testbed) ==\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![(
            "table_7_time_analysis.csv".into(),
            render_csv(&headers, &rows),
        )],
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — bug distribution, severity, and age.
// ---------------------------------------------------------------------------

/// Figure 7: confirmed detected bugs by component, severity, and age.
pub fn figure7(runs: &[AppRun]) -> Output {
    let mut components: BTreeMap<String, usize> = BTreeMap::new();
    let mut severities: BTreeMap<&str, usize> = BTreeMap::new();
    let mut ages = [0usize; 3]; // <100, 100-1000, >1000 days
    let mut total = 0usize;
    for r in runs {
        for row in &r.analysis.report.rows {
            if let Some(p) = r.app.truth.lookup(&row.function) {
                if let PlantKind::ConfirmedBug {
                    component,
                    severity,
                    introduced,
                    ..
                } = &p.kind
                {
                    total += 1;
                    *components.entry(component.clone()).or_default() += 1;
                    let sev = match severity {
                        Severity::High => "high",
                        Severity::Medium => "medium",
                        Severity::Low => "low",
                    };
                    *severities.entry(sev).or_default() += 1;
                    let days = (r.app.truth.now - introduced) / 86_400;
                    if days > 1000 {
                        ages[2] += 1;
                    } else if days >= 100 {
                        ages[1] += 1;
                    } else {
                        ages[0] += 1;
                    }
                }
            }
        }
    }
    let mut rows = Vec::new();
    for (c, n) in &components {
        rows.push(vec![
            "component".into(),
            c.clone(),
            n.to_string(),
            pct(*n, total),
        ]);
    }
    for (s, n) in &severities {
        rows.push(vec![
            "severity".into(),
            s.to_string(),
            n.to_string(),
            pct(*n, total),
        ]);
    }
    for (label, n) in [
        ("<100d", ages[0]),
        ("100-1000d", ages[1]),
        (">1000d", ages[2]),
    ] {
        rows.push(vec![
            "age".into(),
            label.into(),
            n.to_string(),
            pct(n, total),
        ]);
    }
    let headers = ["Facet", "Bucket", "Count", "Share"];
    let text = format!(
        "== Figure 7: confirmed bugs by component / severity / days-before-detected ==\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![("figure_7_dist.csv".into(), render_csv(&headers, &rows))],
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — precision at ranking cutoffs.
// ---------------------------------------------------------------------------

/// Figure 9: precision of the top-N findings per application.
pub fn figure9(runs: &[AppRun]) -> Output {
    let cutoffs = [10usize, 20, 30, 40, 50, 60, 70, 80, 90];
    let mut rows = Vec::new();
    for k in cutoffs {
        let mut reported = 0usize;
        let mut confirmed = 0usize;
        for r in runs {
            let take = k.min(r.analysis.report.rows.len());
            reported += take;
            confirmed += r.confirmed_in_top(k);
        }
        rows.push(vec![
            k.to_string(),
            reported.to_string(),
            confirmed.to_string(),
            format!("{:.1}%", 100.0 * confirmed as f64 / reported.max(1) as f64),
        ]);
    }
    let headers = ["Cutoff/app", "Reported", "Confirmed", "Precision"];
    let text = format!(
        "== Figure 9: precision vs. report cutoff (after familiarity ranking) ==\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![(
            "figure_9_detected_bug_dok.csv".into(),
            render_csv(&headers, &rows),
        )],
    }
}

// ---------------------------------------------------------------------------
// §3.1 preliminary experiment + §8.3.2 recall.
// ---------------------------------------------------------------------------

/// The §3.1 differential study plus the §8.3.2 recall measurement.
///
/// Mirrors the paper's procedure: collect unused definitions present in the
/// 2019 snapshot but gone by 2021 (differential liveness), randomly sample
/// 60 of them **across all applications**, check whether the removing commit
/// is a bug fix, and whether the definition crossed author scopes in the
/// 2019 tree. Recall then re-runs the full pipeline on the 2019 snapshots
/// against the sampled (and all planted) cross-scope existing bugs.
pub fn prelim_and_recall(runs: &[AppRun]) -> Output {
    struct Removed {
        app: usize,
        func: String,
    }
    let mut removed_all: Vec<Removed> = Vec::new();
    let mut per_app_removed = vec![0usize; runs.len()];

    // Per-app context reused across phases.
    let mut progs_2019 = Vec::new();
    let mut repos_2019 = Vec::new();
    for (ai, r) in runs.iter().enumerate() {
        let (Some(s2019), Some(s2021)) = (r.app.snapshot_2019, r.app.snapshot_2021) else {
            progs_2019.push(None);
            repos_2019.push(None);
            continue;
        };
        let prog_2019 =
            Program::build(&r.app.repo.tree_at(s2019), &r.app.defines).expect("snapshot builds");
        let prog_2021 =
            Program::build(&r.app.repo.tree_at(s2021), &r.app.defines).expect("snapshot builds");
        let ids_2019 = candidate_identities(&prog_2019);
        let ids_2021 = candidate_identities(&prog_2021);
        for (func, _var) in ids_2019.iter().filter(|id| !ids_2021.contains(*id)) {
            removed_all.push(Removed {
                app: ai,
                func: func.clone(),
            });
            per_app_removed[ai] += 1;
        }
        progs_2019.push(Some(prog_2019));
        repos_2019.push(Some(r.app.repo.checkout(s2019)));
    }

    // Global sample of 60 (the paper's sampling step).
    let mut sampler = Sampler::new(0x31a1);
    let picks = sampler.sample_indices(removed_all.len(), 60);
    let mut bugfix = 0usize;
    let mut cross = 0usize;
    let mut sampled_cross: Vec<(usize, String)> = Vec::new();
    for &i in &picks {
        let item = &removed_all[i];
        let r = &runs[item.app];
        let (s2019, s2021) = (
            r.app.snapshot_2019.expect("checked"),
            r.app.snapshot_2021.expect("checked"),
        );
        let is_fix = r
            .app
            .repo
            .commits()
            .iter()
            .filter(|c| c.id > s2019 && c.id <= s2021)
            .find(|c| c.message.contains(item.func.as_str()))
            .map(|c| c.message.starts_with("fix"))
            .unwrap_or(false);
        if !is_fix {
            continue;
        }
        bugfix += 1;
        let prog = progs_2019[item.app].as_ref().expect("checked");
        let repo = repos_2019[item.app].as_ref().expect("checked");
        let auth = AuthorshipCtx::new(prog, repo);
        let cands = candidates_of_function(prog, &item.func);
        if cands.iter().any(|c| auth.attribute(c).cross_scope) {
            cross += 1;
            sampled_cross.push((item.app, item.func.clone()));
        }
    }

    let mut rows: Vec<Vec<String>> = runs
        .iter()
        .enumerate()
        .map(|(ai, r)| vec![r.name().to_string(), per_app_removed[ai].to_string()])
        .collect();
    rows.push(vec!["Total".into(), removed_all.len().to_string()]);
    let headers = ["App.", "Removed 2019→2021"];
    let sample_line = format!(
        "Sampled {} of {} removed definitions: {} removed by bug-fix commits, \
         {} of those crossed author scopes.",
        picks.len(),
        removed_all.len(),
        bugfix,
        cross
    );

    // §8.3.2 recall: pipeline on the 2019 snapshots.
    let mut detected_per_app: Vec<BTreeSet<String>> = Vec::new();
    for (ai, r) in runs.iter().enumerate() {
        let (Some(prog), Some(repo)) = (&progs_2019[ai], &repos_2019[ai]) else {
            detected_per_app.push(BTreeSet::new());
            continue;
        };
        let analysis = run(prog, repo, &Options::paper());
        detected_per_app.push(
            analysis
                .report
                .rows
                .iter()
                .map(|x| x.function.clone())
                .collect(),
        );
        let _ = r;
    }
    let sampled_found = sampled_cross
        .iter()
        .filter(|(ai, func)| detected_per_app[*ai].contains(func))
        .count();
    let mut planted_cross = 0usize;
    let mut planted_found = 0usize;
    let mut recall_rows = Vec::new();
    for (ai, r) in runs.iter().enumerate() {
        let mut app_cross = 0usize;
        let mut app_found = 0usize;
        for p in &r.app.truth.planted {
            if let PlantKind::PrelimRemoved {
                cross_scope: true, ..
            } = p.kind
            {
                app_cross += 1;
                if detected_per_app[ai].contains(&p.func) {
                    app_found += 1;
                }
            }
        }
        planted_cross += app_cross;
        planted_found += app_found;
        recall_rows.push(vec![
            r.name().to_string(),
            app_cross.to_string(),
            app_found.to_string(),
            pct(app_found, app_cross),
        ]);
    }
    recall_rows.push(vec![
        "Total".into(),
        planted_cross.to_string(),
        planted_found.to_string(),
        pct(planted_found, planted_cross),
    ]);
    let recall_headers = ["App.", "Existing bugs", "Detected", "Recall"];
    let recall_line = format!(
        "Recall on the {} sampled cross-scope existing bugs: {}/{} ({}); \
         misses are peer-definition prunes (§8.3.2).",
        sampled_cross.len(),
        sampled_found,
        sampled_cross.len(),
        pct(sampled_found, sampled_cross.len().max(1))
    );

    let text = format!(
        "== §3.1 preliminary study: unused definitions removed between the \
         2019 and 2021 snapshots ==\n{}{sample_line}\n\n== §8.3.2 recall on \
         planted cross-scope existing bugs ==\n{}{recall_line}\n",
        render_table(&headers, &rows),
        render_table(&recall_headers, &recall_rows)
    );
    let mut csv_rows = rows;
    csv_rows.push(vec![
        format!("sampled={}", picks.len()),
        format!("bugfix={bugfix};cross={cross}"),
    ]);
    Output {
        text,
        csv: vec![
            ("prelim_study.csv".into(), render_csv(&headers, &csv_rows)),
            (
                "recall_existing_bugs.csv".into(),
                render_csv(&recall_headers, &recall_rows),
            ),
        ],
    }
}

// ---------------------------------------------------------------------------
// §6 — DOK weight calibration.
// ---------------------------------------------------------------------------

/// Replicates the paper's §6 calibration: sample 40 source lines per
/// application, obtain (simulated) developer self-ratings on a 1–5 scale,
/// and fit the DOK weights by OLS. The paper's fit produced
/// `α₀=3.1, α_FA=1.2, α_DL=0.2, α_AC=0.5`.
pub fn dok_calibration(runs: &[AppRun]) -> Output {
    let mut samples: Vec<(Metrics, f64)> = Vec::new();
    let mut sampler = Sampler::new(0xd0f1);
    for r in runs {
        let paths: Vec<String> = r.app.repo.paths().iter().map(|p| p.to_string()).collect();
        let mut taken = 0usize;
        let mut guard = 0usize;
        while taken < 40 && guard < 4000 {
            guard += 1;
            let path = &paths[sampler.next(paths.len())];
            let nlines = r.app.repo.line_count(path);
            if nlines == 0 {
                continue;
            }
            let line = 1 + sampler.next(nlines) as u32;
            let Some(author) = r.app.repo.blame_author(path, line) else {
                continue;
            };
            let m = Metrics::compute(&r.app.repo, path, author);
            // Simulated self-rating: the latent DOK familiarity plus
            // developer-judgement noise, clamped to the 1–5 survey scale.
            let noise = ((samples.len() as f64 * 0.817).sin()) * 0.3;
            let rating = (DokModel::PAPER.score(&m) + noise).clamp(1.0, 5.0);
            samples.push((m, rating));
            taken += 1;
        }
    }
    let fitted = fit_dok(&samples);
    let rows = match &fitted {
        Ok(model) => vec![
            vec![
                "alpha0".into(),
                "3.1".into(),
                format!("{:.2}", model.alpha0),
            ],
            vec![
                "alpha_FA".into(),
                "1.2".into(),
                format!("{:.2}", model.alpha_fa),
            ],
            vec![
                "alpha_DL".into(),
                "0.2".into(),
                format!("{:.2}", model.alpha_dl),
            ],
            vec![
                "alpha_AC".into(),
                "0.5".into(),
                format!("{:.2}", model.alpha_ac),
            ],
        ],
        Err(e) => vec![vec!["error".into(), e.to_string(), String::new()]],
    };
    let headers = ["Weight", "Paper", "Refitted"];
    let text = format!(
        "== §6 DOK calibration: OLS fit over {} sampled self-ratings ==\n{}",
        samples.len(),
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![("dok_calibration.csv".into(), render_csv(&headers, &rows))],
    }
}

// ---------------------------------------------------------------------------
// §9.2 — the EA alternative familiarity model.
// ---------------------------------------------------------------------------

/// Compares DOK ranking against the §9.2 EA alternative: confirmed bugs in
/// the top-20 findings under each model.
pub fn ea_alternative(runs: &[AppRun]) -> Output {
    let mut rows = Vec::new();
    let mut totals = (0usize, 0usize);
    for r in runs {
        let dok_top = r.confirmed_in_top(20);
        let ea_analysis = run(
            &r.prog,
            &r.app.repo,
            &Options {
                rank: RankConfig::ea(),
                ..Options::paper()
            },
        );
        let ea_top = ea_analysis
            .report
            .rows
            .iter()
            .take(20)
            .filter(|row| r.app.truth.is_confirmed_bug(&row.function))
            .count();
        totals = (totals.0 + dok_top, totals.1 + ea_top);
        rows.push(vec![
            r.name().to_string(),
            dok_top.to_string(),
            ea_top.to_string(),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        totals.0.to_string(),
        totals.1.to_string(),
    ]);
    let headers = ["App.", "DOK top-20 bugs", "EA top-20 bugs"];
    let text = format!(
        "== §9.2 alternative familiarity model: DOK vs EA (bugs in top-20) ==\n{}",
        render_table(&headers, &rows)
    );
    Output {
        text,
        csv: vec![("ea_alternative.csv".into(), render_csv(&headers, &rows))],
    }
}

/// `(function, variable)` identities of all raw unused definitions.
///
/// Synthetic ignored-result slots are named `$ret_<callee>_<line>`; the line
/// component shifts whenever code above moves, so it is stripped for the
/// differential comparison.
fn candidate_identities(prog: &Program) -> BTreeSet<(String, String)> {
    detect_program(prog, DetectConfig::default())
        .into_iter()
        .map(|c| (c.func_name, normalize_var(&c.var_name)))
        .collect()
}

fn normalize_var(var: &str) -> String {
    if let Some(rest) = var.strip_prefix("$ret_") {
        if let Some(pos) = rest.rfind('_') {
            if rest[pos + 1..].chars().all(|c| c.is_ascii_digit()) {
                return format!("$ret_{}", &rest[..pos]);
            }
        }
    }
    var.to_string()
}

fn candidates_of_function(prog: &Program, func: &str) -> Vec<valuecheck::Candidate> {
    detect_program(prog, DetectConfig::default())
        .into_iter()
        .filter(|c| c.func_name == func)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::prepare;

    fn quick_runs() -> Vec<AppRun> {
        prepare(0.08)
    }

    #[test]
    fn all_experiments_render() {
        let runs = quick_runs();
        for out in [
            table2(&runs),
            table3(&runs),
            table4(&runs),
            table6(&runs),
            figure7(&runs),
            figure9(&runs),
        ] {
            assert!(out.text.contains("=="), "missing title: {}", out.text);
            assert!(!out.csv.is_empty());
        }
    }

    #[test]
    fn table5_marks_tool_errors() {
        let runs = quick_runs();
        let out = table5(&runs);
        // Smatch only builds Linux; other columns must carry the -* marker.
        assert!(out.text.contains("-*"), "{}", out.text);
        // Clang finds nothing on cleaned-up projects.
        let clang_line = out
            .text
            .lines()
            .find(|l| l.starts_with("Clang"))
            .expect("clang row");
        assert!(
            clang_line.split_whitespace().skip(1).all(|c| c == "0"),
            "{clang_line}"
        );
    }

    #[test]
    fn figure9_precision_is_monotone_decreasing_ish() {
        let runs = quick_runs();
        let out = figure9(&runs);
        let precisions: Vec<f64> = out
            .text
            .lines()
            .filter(|l| l.contains('%') && !l.contains("=="))
            .filter_map(|l| {
                l.split_whitespace()
                    .last()
                    .and_then(|p| p.trim_end_matches('%').parse().ok())
            })
            .collect();
        assert!(precisions.len() >= 3);
        // First cutoff at least as precise as the last.
        assert!(
            precisions.first().unwrap() >= precisions.last().unwrap(),
            "{precisions:?}"
        );
    }
}
