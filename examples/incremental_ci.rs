//! Incremental (per-commit) analysis, as in a CI hook (§8.6).
//!
//! Generates a small synthetic application with a full commit history and
//! replays the most recent commits through `scan_commit`, which detects
//! only in the files each commit wrote, printing the findings each commit
//! introduces and the per-commit analysis time — the integration mode the
//! paper measures in Table 7's last column.
//!
//! ```sh
//! cargo run --release --example incremental_ci
//! ```

use std::time::Instant;

use valuecheck::{
    delta::scan_commit,
    pipeline::Options,
    sentinel::SentinelConfig, //
};
use vc_obs::{
    names,
    ObsSession, //
};
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

    let (opts, sconf) = (Options::paper(), SentinelConfig::sequential());
    let mut total = 0.0f64;
    let mut analysed = 0;
    for (id, author, message) in commits.iter().rev() {
        let obs = ObsSession::new();
        let t0 = Instant::now();
        let scan = scan_commit(&app.repo, *id, &app.defines, &opts, &sconf, obs.clone())
            .expect("snapshot builds");
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        let functions = obs.registry.counter(names::DETECT_FUNCTIONS);
        analysed += functions;
        println!(
            "commit #{:<4} by {:<22} {:<40} functions analysed: {:>3}  findings: {}  ({:.3}s)",
            id.0,
            app.repo.author(*author).name,
            truncate(message, 38),
            functions,
            scan.findings.len(),
            dt
        );
        for f in &scan.findings {
            println!(
                "    -> {} `{}` in {}:{} (cross-scope unused definition, {})",
                f.function,
                f.variable,
                f.file,
                f.line,
                f.fingerprint.to_hex()
            );
        }
    }
    println!(
        "average per-commit analysis time: {:.3}s",
        total / commits.len() as f64
    );
    println!("{analysed} functions analysed in total");
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
