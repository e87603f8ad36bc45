//! Incremental (per-commit) analysis, as in a CI hook (§8.6).
//!
//! Generates a small synthetic application with a full commit history and
//! replays the most recent commits through `analyze_commit`, printing the
//! findings each commit introduces and the per-commit analysis time — the
//! integration mode the paper measures in Table 7's last column.
//!
//! ```sh
//! cargo run --release --example incremental_ci
//! ```

use std::time::Instant;

use valuecheck::{incremental::analyze_commit, prune::PruneConfig, rank::RankConfig};
use vc_ir::Program;
use vc_obs::ObsSession;
use vc_workload::{
    generate,
    AppProfile, //
};

fn main() {
    let profile = AppProfile::openssl().scaled(0.25);
    let app = generate(&profile);
    println!(
        "generated `{}`: {} files, {} LOC, {} commits",
        profile.name,
        app.sources.len(),
        app.loc(),
        app.repo.commits().len()
    );

    // Replay the last 10 commits as a CI gate would.
    let commits: Vec<_> = app
        .repo
        .commits()
        .iter()
        .rev()
        .take(10)
        .map(|c| (c.id, c.author, c.message.clone()))
        .collect();

    let obs = ObsSession::new();
    let _guard = obs.install();
    let mut total = 0.0f64;
    for (id, author, message) in commits.iter().rev() {
        let t0 = Instant::now();
        let findings = analyze_commit(
            &app.repo,
            *id,
            &app.defines,
            &PruneConfig::default(),
            &RankConfig::default(),
        )
        .expect("snapshot builds");
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        println!(
            "commit #{:<4} by {:<22} {:<40} functions analysed: {:>3}  findings: {}  ({:.3}s)",
            id.0,
            app.repo.author(*author).name,
            truncate(message, 38),
            findings.analysed_functions,
            findings.findings.len(),
            dt
        );
        // Findings name their function by id in the commit's snapshot.
        let (snapshot, ..) = Program::build_recovering(&app.repo.tree_at(*id), &app.defines);
        for f in &findings.findings {
            println!(
                "    -> {} `{}` in {} (cross-scope unused definition)",
                snapshot.func(f.item.candidate.func).name,
                f.item.candidate.var_name,
                findings.changed_files.join(", ")
            );
        }
    }
    println!(
        "average per-commit analysis time: {:.3}s",
        total / commits.len() as f64
    );
    println!(
        "{} functions analysed in total",
        obs.registry.counter("incremental.functions_analysed"),
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
