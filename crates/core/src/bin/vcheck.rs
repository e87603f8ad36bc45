//! `vcheck` — ValueCheck from the command line.
//!
//! ```text
//! Usage: vcheck <project-dir> [options]
//!        vcheck delta <project-dir> --from REV --to REV [options]
//!        vcheck history <project-dir> [options]
//!        vcheck serve <project-dir> [options]
//!        vcheck tail <event-log> [--since SECS] [--op OP] [--json]
//!
//!   <project-dir>        directory with *.c sources and, ideally, a
//!                        history.json (see vc_vcs::HistorySpec)
//!   --define SYM         enable a preprocessor symbol (repeatable)
//!   --deadline-ms N      wall-clock deadline for the whole scan, from the
//!                        start of loading; on expiry the functions not yet
//!                        started are skipped, the partial report is printed
//!                        with every row marked low-confidence plus a
//!                        `deadline exceeded` failure record, and vcheck
//!                        exits 3. Combines with every executor option; a
//!                        journaled scan records the units it finished, so
//!                        --resume picks up the skipped ones
//!   --all                keep non-cross-scope unused definitions too
//!   --no-rank            keep detection order instead of DOK ranking
//!   --no-prune           disable all pruning patterns
//!   --top N              print only the N highest-priority findings
//!   --json               emit findings as JSON instead of CSV
//!   --stats              print a metrics summary (funnel, fixpoint counters,
//!                        histograms, harden.* degradations) to stderr
//!   --metrics-json FILE  write the full metrics snapshot as JSON
//!   --trace FILE         write a Chrome trace_event file of the pipeline
//!                        spans (open in chrome://tracing or Perfetto)
//!   --profile FILE       write a flamegraph-compatible folded-stack profile
//!                        aggregated from the pipeline spans (span count per
//!                        stack — deterministic and byte-identical for any
//!                        --jobs; feed to flamegraph.pl or speedscope).
//!                        `--stats` additionally prints the top self-time
//!                        frames.
//!   --budget-steps N     cap the Andersen and liveness fixpoints at N steps
//!                        each; exhaustion degrades gracefully instead of
//!                        hanging (see DESIGN.md "Robustness")
//!   --budget-ms N        wall-clock cap per fixpoint solve, in milliseconds
//!   --jobs N             worker threads for the supervised scan executor
//!                        (default: available parallelism; report output is
//!                        byte-identical for any N)
//!   --retry K            attempts per scan unit before it is marked
//!                        failed-permanent (default 3)
//!   --unit-deadline-ms N per-unit wall-clock deadline enforced by the
//!                        supervisor; late units are requeued
//!   --journal FILE       write an append-only crash-safe scan journal
//!                        (checkpoint every completed function)
//!   --resume             replay the journal and skip already-completed
//!                        units (implies --journal; default path is
//!                        <project-dir>/scan.journal)
//!   --fail-fast          debugging mode: abort on the first build error or
//!                        panic instead of isolating and continuing
//! ```
//!
//! Malformed source files are reported to stderr (with line:column spans)
//! and skipped; analysis continues over the files that parse. A directory
//! with zero `.c` files is a clean project: empty report, exit 0.
//!
//! Exit status contract (scan): 0 with no findings, 1 with findings, 2 on
//! usage/load errors (or when every file fails to parse), 3 when
//! `--deadline-ms` expired and the report is partial. An exit status of 3
//! means the printed findings are real but incomplete — re-run with a
//! larger deadline for the full report.
//!
//! The `delta` subcommand scans two revisions of the project's history and
//! classifies every finding as new / fixed / persisting using drift-stable
//! fingerprints — or unscanned, when the new revision failed to parse its
//! function (each revision's failures go to stderr; see DESIGN.md §10):
//!
//! ```text
//!   --from REV           old revision (HEAD, HEAD~N, or a commit id)
//!   --to REV             new revision
//!   --baseline FILE      suppress would-be-new findings whose fingerprint
//!                        appears in this snapshot store
//!   --write-baseline FILE  save the new revision's findings as a store
//!                        (usable as a later --baseline)
//! ```
//!
//! plus `--define/--all/--no-rank/--no-prune/--json/--stats/--metrics-json/
//! --jobs/--retry/--unit-deadline-ms/--journal/--resume` with the same
//! meanings as the main scan (the journal gains `.from`/`.to` suffixes, one
//! per side; `--resume` defaults it to `<project-dir>/delta.journal`).
//! Exit status: 0 when no *new* findings, 1 when new findings are present
//! (the CI gate), 2 on usage/load errors.
//!
//! The `history` subcommand replays **every** commit and drives each
//! finding through the born → persisting → churned → fixed | suppressed
//! lifecycle (see DESIGN.md §12), printing one CSV row per track and
//! persisting the event stream as a findings database:
//!
//! ```text
//!   --db FILE            findings database path (default:
//!                        <project-dir>/findings.lifedb)
//!   --suppress FILE      load the suppression store, and save it back
//!                        with advanced lines / healed fingerprints
//!   --lifecycle-json FILE  write the versioned lifecycle export (funnel,
//!                        per-scenario fix/churn rates, full event stream)
//!   --stats              additionally print the lifecycle funnel table
//! ```
//!
//! plus the shared scan/sentinel options (each replayed commit journals
//! under a `.c<N>` suffix; `--resume` defaults the journal to
//! `<project-dir>/history.journal`). Inline `// vcheck:allow(<scenario>)`
//! annotations suppress the finding on the next line (standalone) or
//! their own line (trailing). Exit status: 0 when nothing is live and
//! unsuppressed at head, 1 otherwise, 2 on usage/load errors. All outputs
//! are byte-identical for any `--jobs` value and across `--resume`.
//!
//! The `serve` subcommand runs vcheck as a long-lived warm-scan daemon
//! speaking JSON-lines over stdin/stdout (see DESIGN.md §14):
//!
//! ```text
//!   --deadline-ms N      default per-request deadline (requests may
//!                        override with a "deadline_ms" field)
//!   --queue-depth N      pending requests before the reader sheds
//!                        (default 64)
//!   --snapshot FILE      flush the latest findings as a snapshot store on
//!                        shutdown/EOF
//!   --trace FILE         write a Chrome trace of every request's span tree
//!                        on shutdown/EOF (same format as scan --trace)
//!   --metrics-json FILE  write the versioned metrics snapshot on
//!                        shutdown/EOF (same schema as scan --metrics-json)
//!   --event-log FILE     append one JSON-lines record per request
//!                        (trace id, op, outcome, latency, flags); the file
//!                        size-rotates to FILE.1 — read with `vcheck tail`
//!   --event-log-max-bytes N  rotation threshold (default 1 MiB)
//! ```
//!
//! plus `--define/--all/--no-rank/--no-prune/--budget-steps/--budget-ms`
//! with scan semantics. Warm replies are byte-identical to a cold scan of
//! the same tree, telemetry enabled or not; every reply carries a monotonic
//! `trace_id`, and `{"op":"status"}` reports per-op latency percentiles,
//! cache effectiveness, and the request funnel (see DESIGN.md §16). Exit
//! status: 0 on `{"op":"shutdown"}` or stdin EOF, 2 on startup errors;
//! malformed requests, panics, and deadline overruns are answered on the
//! protocol, never fatal.
//!
//! The `tail` subcommand renders a serve event log, oldest first (the
//! rotated `.1` generation first, then the live file): `vcheck tail
//! serve.events [--since SECS] [--op scan] [--json]`. Exit status: 0, or
//! 2 when the log does not exist.

use std::path::PathBuf;

use valuecheck::{
    delta::{
        delta_scan,
        DeltaStatus, //
    },
    eventlog,
    harden::FailureRecord,
    history::{
        history_scan,
        tracks_to_csv, //
    },
    pipeline::{
        build_tree,
        run_sentinel,
        Options, //
    },
    project::{load_dir, load_dir_or_empty},
    prune::PruneConfig,
    rank::RankConfig,
    sentinel::{
        salt_strings,
        ScanDeadline,
        SentinelConfig, //
    },
    serve::{run_daemon, ServeConfig, ServeEngine},
    store::SnapshotStore,
    suppress::SuppressStore,
};
use vc_obs::ObsSession;
use vc_vcs::{
    CommitId,
    Repository, //
};

/// Heap accounting for `mem.*` metrics and trace counter tracks: every
/// allocation in the process is counted and attributed to the pipeline
/// stage (or sentinel worker unit) that made it. See `vc_obs::alloc`.
#[global_allocator]
static ALLOC: vc_obs::CountingAlloc = vc_obs::CountingAlloc;

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("delta") => {
            args.next();
            delta_main(args);
        }
        Some("history") => {
            args.next();
            history_main(args);
        }
        Some("serve") => {
            args.next();
            serve_main(args);
        }
        Some("tail") => {
            args.next();
            tail_main(args);
        }
        _ => scan_main(args),
    }
}

/// Resolves a revision argument: `HEAD`, `HEAD~N`, or a numeric commit id.
fn resolve_rev(repo: &Repository, s: &str) -> Option<CommitId> {
    let commits = repo.commits();
    if let Some(rest) = s.strip_prefix("HEAD") {
        let back: usize = if rest.is_empty() {
            0
        } else {
            rest.strip_prefix('~')?.parse().ok()?
        };
        let idx = commits.len().checked_sub(1 + back)?;
        return Some(commits[idx].id);
    }
    let n: u32 = s.parse().ok()?;
    commits.iter().find(|c| c.id.0 == n).map(|c| c.id)
}

/// The argument after `flag`, parsed as a number; exits 2 without one.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a number")))
}

/// The argument after `flag`, as a path; exits 2 without one.
fn path(args: &mut impl Iterator<Item = String>, flag: &str) -> PathBuf {
    PathBuf::from(
        args.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a path"))),
    )
}

/// Applies `flag` when it is one of the analysis options every scanning
/// subcommand shares (`--define`, `--all`, `--no-rank`, `--no-prune`);
/// `false` when it is not.
fn analysis_flag(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    defines: &mut Vec<String>,
    opts: &mut Options,
) -> bool {
    match flag {
        "--define" => defines.push(
            args.next()
                .unwrap_or_else(|| die("--define needs a symbol")),
        ),
        "--all" => opts.cross_scope_only = false,
        "--no-rank" => {
            opts.rank = RankConfig {
                enabled: false,
                ..RankConfig::default()
            };
        }
        "--no-prune" => {
            opts.prune = PruneConfig {
                config_dependency: false,
                cursor: false,
                unused_hints: false,
                peer_definitions: false,
                ..PruneConfig::default()
            };
        }
        _ => return false,
    }
    true
}

/// Applies `flag` when it is a sentinel executor option (`--jobs`,
/// `--retry`, `--unit-deadline-ms`, `--journal`, `--resume`); `false` when
/// it is not.
fn sentinel_flag(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    sconf: &mut SentinelConfig,
) -> bool {
    match flag {
        "--jobs" => sconf.jobs = number(args, flag),
        "--retry" => sconf.retry = number::<u32>(args, flag).max(1),
        "--unit-deadline-ms" => {
            sconf.unit_deadline = Some(std::time::Duration::from_millis(number(args, flag)));
        }
        "--journal" => sconf.journal = Some(path(args, flag)),
        "--resume" => sconf.resume = true,
        _ => return false,
    }
    true
}

/// `r`'s value; on error, exits 2 naming `path`.
fn or_die<T>(r: Result<T, impl std::fmt::Display>, path: &std::path::Path) -> T {
    r.unwrap_or_else(|e| die(&format!("{}: {e}", path.display())))
}

/// Prints a run's failure records to stderr, headed by `prefix`.
fn print_failures(prefix: &str, failures: &[FailureRecord]) {
    if failures.is_empty() {
        return;
    }
    eprintln!(
        "{prefix}{} unit(s) of work failed and were isolated:",
        failures.len()
    );
    for f in failures {
        eprintln!("vcheck:   {f}");
    }
}

fn delta_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut dir: Option<PathBuf> = None;
    let mut defines: Vec<String> = Vec::new();
    let mut opts = Options::paper();
    let mut from_rev: Option<String> = None;
    let mut to_rev: Option<String> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut json = false;
    let mut stats = false;
    let mut metrics_json: Option<PathBuf> = None;
    let mut sconf = SentinelConfig::default();

    while let Some(a) = args.next() {
        if analysis_flag(&a, &mut args, &mut defines, &mut opts)
            || sentinel_flag(&a, &mut args, &mut sconf)
        {
            continue;
        }
        match a.as_str() {
            "--from" => from_rev = Some(args.next().unwrap_or_else(|| die("--from needs a REV"))),
            "--to" => to_rev = Some(args.next().unwrap_or_else(|| die("--to needs a REV"))),
            "--baseline" => baseline = Some(path(&mut args, &a)),
            "--write-baseline" => write_baseline = Some(path(&mut args, &a)),
            "--json" => json = true,
            "--stats" => stats = true,
            "--metrics-json" => metrics_json = Some(path(&mut args, &a)),
            "--help" | "-h" => {
                eprintln!(
                    "Usage: vcheck delta <project-dir> --from REV --to REV [--baseline FILE] \
                     [--write-baseline FILE] [--define SYM]... [--all] [--no-rank] [--no-prune] \
                     [--json] [--stats] [--metrics-json FILE] [--jobs N] [--retry K] \
                     [--unit-deadline-ms N] [--journal FILE] [--resume]"
                );
                std::process::exit(0);
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let dir = dir.unwrap_or_else(|| die("missing <project-dir>"));
    let from_rev = from_rev.unwrap_or_else(|| die("delta needs --from REV"));
    let to_rev = to_rev.unwrap_or_else(|| die("delta needs --to REV"));

    let project = or_die(load_dir(&dir), &dir);
    if !project.has_history {
        die("delta needs a history.json (two revisions to compare)");
    }
    let repo = &project.repo;
    let from = resolve_rev(repo, &from_rev)
        .unwrap_or_else(|| die(&format!("cannot resolve --from revision `{from_rev}`")));
    let to = resolve_rev(repo, &to_rev)
        .unwrap_or_else(|| die(&format!("cannot resolve --to revision `{to_rev}`")));

    let baseline_set = match &baseline {
        Some(path) => {
            if !path.exists() {
                die(&format!("--baseline {}: file not found", path.display()));
            }
            SnapshotStore::load(path).fingerprint_set()
        }
        None => Default::default(),
    };

    if sconf.resume && sconf.journal.is_none() {
        sconf.journal = Some(dir.join("delta.journal"));
    }
    sconf.fingerprint_salt = salt_strings(&defines);

    let obs = ObsSession::new();
    let outcome = delta_scan(
        repo,
        (from, to),
        &defines,
        &opts,
        &sconf,
        &baseline_set,
        obs.clone(),
    )
    .unwrap_or_else(|e| die(&format!("build failed: {e}")));

    let report = &outcome.report;
    if let Some(path) = &write_baseline {
        // Findings the `to` scan could not look at are presumed present.
        let unscanned = report
            .rows
            .iter()
            .filter(|r| r.status == DeltaStatus::Unscanned);
        let findings: Vec<_> = (outcome.to.findings.iter())
            .chain(unscanned.map(|r| &r.finding))
            .cloned()
            .collect();
        let store = SnapshotStore::from_findings(to, &findings);
        or_die(store.save(path), path);
    }

    eprintln!(
        "vcheck delta: {} new, {} fixed, {} persisting, {} churned, {} suppressed (commit {} -> \
         {})",
        report.count(DeltaStatus::New),
        report.count(DeltaStatus::Fixed),
        report.count(DeltaStatus::Persisting),
        report.count(DeltaStatus::Churned),
        report.count(DeltaStatus::Suppressed),
        from.0,
        to.0,
    );
    for scan in [&outcome.from, &outcome.to] {
        print_failures(
            &format!("vcheck delta: commit {}: ", scan.commit.0),
            &scan.analysis.report.failures,
        );
    }
    let unscanned = report.count(DeltaStatus::Unscanned);
    if unscanned > 0 {
        eprintln!(
            "vcheck delta: {unscanned} finding(s) sit in code commit {} failed to scan; they are \
             reported as unscanned, not fixed",
            to.0
        );
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_csv());
    }

    let snapshot = obs.registry.snapshot();
    if stats {
        eprint!("{}", snapshot.render_text());
    }
    write_exports(&obs, &snapshot, metrics_json, None, None);
    std::process::exit(if report.has_new() { 1 } else { 0 });
}

fn history_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut dir: Option<PathBuf> = None;
    let mut defines: Vec<String> = Vec::new();
    let mut opts = Options::paper();
    let mut db_path: Option<PathBuf> = None;
    let mut suppress_path: Option<PathBuf> = None;
    let mut lifecycle_json: Option<PathBuf> = None;
    let mut stats = false;
    let mut metrics_json: Option<PathBuf> = None;
    let mut sconf = SentinelConfig::default();

    while let Some(a) = args.next() {
        if analysis_flag(&a, &mut args, &mut defines, &mut opts)
            || sentinel_flag(&a, &mut args, &mut sconf)
        {
            continue;
        }
        match a.as_str() {
            "--db" => db_path = Some(path(&mut args, &a)),
            "--suppress" => suppress_path = Some(path(&mut args, &a)),
            "--lifecycle-json" => lifecycle_json = Some(path(&mut args, &a)),
            "--stats" => stats = true,
            "--metrics-json" => metrics_json = Some(path(&mut args, &a)),
            "--help" | "-h" => {
                eprintln!(
                    "Usage: vcheck history <project-dir> [--db FILE] [--suppress FILE] \
                     [--lifecycle-json FILE] [--define SYM]... [--all] [--no-rank] [--no-prune] \
                     [--stats] [--metrics-json FILE] [--jobs N] [--retry K] \
                     [--unit-deadline-ms N] [--journal FILE] [--resume]"
                );
                std::process::exit(0);
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let dir = dir.unwrap_or_else(|| die("missing <project-dir>"));

    let project = or_die(load_dir(&dir), &dir);
    if !project.has_history {
        die("history needs a history.json (commits to replay)");
    }

    if sconf.resume && sconf.journal.is_none() {
        sconf.journal = Some(dir.join("history.journal"));
    }
    sconf.fingerprint_salt = salt_strings(&defines);

    let suppress = match &suppress_path {
        Some(path) => SuppressStore::load(path),
        None => SuppressStore::default(),
    };

    let obs = ObsSession::new();
    let outcome = history_scan(
        &project.repo,
        &defines,
        &opts,
        &sconf,
        suppress,
        obs.clone(),
    )
    .unwrap_or_else(|e| die(&format!("build failed: {e}")));

    let db_path = db_path.unwrap_or_else(|| dir.join("findings.lifedb"));
    or_die(outcome.db.save(&db_path), &db_path);
    if let Some(path) = &suppress_path {
        // Persist the maintenance: advanced lines, healed fingerprints.
        or_die(outcome.suppress.save(path), path);
    }

    let funnel = outcome.db.funnel();
    eprintln!(
        "vcheck history: {} commits, {} born, {} fixed, {} suppressed, {} live (head {})",
        outcome.commits,
        funnel.born,
        funnel.fixed,
        funnel.suppressed,
        funnel.live,
        outcome.head.map(|c| c.0 as i64).unwrap_or(-1),
    );
    for (commit, failures) in &outcome.failures {
        print_failures(&format!("vcheck history: commit {}: ", commit.0), failures);
    }
    print!("{}", tracks_to_csv(&outcome.db));

    let snapshot = obs.registry.snapshot();
    if stats {
        eprint!("{}", outcome.db.render_funnel());
        eprint!("{}", snapshot.render_text());
    }
    if let Some(path) = lifecycle_json {
        let text = outcome.db.to_json_export().to_string_pretty();
        or_die(std::fs::write(&path, text), &path);
    }
    write_exports(&obs, &snapshot, metrics_json, None, None);
    std::process::exit(if funnel.live > 0 { 1 } else { 0 });
}

fn serve_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut dir: Option<PathBuf> = None;
    let mut config = ServeConfig::default();

    while let Some(a) = args.next() {
        if analysis_flag(&a, &mut args, &mut config.defines, &mut config.opts) {
            continue;
        }
        match a.as_str() {
            "--deadline-ms" => {
                config.deadline = Some(std::time::Duration::from_millis(number(&mut args, &a)));
            }
            "--queue-depth" => config.queue_depth = number::<usize>(&mut args, &a).max(1),
            "--budget-steps" => {
                config.opts.harden = config.opts.harden.with_step_budget(number(&mut args, &a));
            }
            "--budget-ms" => {
                config.opts.harden = config
                    .opts
                    .harden
                    .with_time_budget_ms(number(&mut args, &a));
            }
            "--snapshot" => config.snapshot = Some(path(&mut args, &a)),
            "--trace" => config.trace = Some(path(&mut args, &a)),
            "--metrics-json" => config.metrics_json = Some(path(&mut args, &a)),
            "--event-log" => config.event_log = Some(path(&mut args, &a)),
            "--event-log-max-bytes" => config.event_log_max_bytes = number(&mut args, &a),
            "--help" | "-h" => {
                eprintln!(
                    "Usage: vcheck serve <project-dir> [--define SYM]... [--all] [--no-rank] \
                     [--no-prune] [--deadline-ms N] [--queue-depth N] [--budget-steps N] \
                     [--budget-ms N] [--snapshot FILE] [--trace FILE] [--metrics-json FILE] \
                     [--event-log FILE] [--event-log-max-bytes N]\n\nRequests (JSON lines on \
                     stdin): {{\"op\":\"scan\"}}, {{\"op\":\"update\",\"files\":[..]}}, \
                     {{\"op\":\"status\"}}, {{\"op\":\"shutdown\"}}"
                );
                std::process::exit(0);
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let dir = dir.unwrap_or_else(|| die("missing <project-dir>"));
    let engine = or_die(ServeEngine::new(&dir, config), &dir);
    eprintln!(
        "vcheck serve: watching {} (JSON lines on stdin)",
        dir.display()
    );
    let code = run_daemon(
        engine,
        std::io::BufReader::new(std::io::stdin()),
        std::io::stdout(),
    );
    std::process::exit(code);
}

/// `vcheck tail FILE`: renders a serve event log (see DESIGN.md §16) as
/// human-readable lines, oldest first, across the rotation boundary.
fn tail_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut path: Option<PathBuf> = None;
    let mut since: Option<u64> = None;
    let mut op: Option<String> = None;
    let mut json = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--since" => {
                since = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--since needs a number of seconds")),
                );
            }
            "--op" => {
                op = Some(args.next().unwrap_or_else(|| die("--op needs an op name")));
            }
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!(
                    "Usage: vcheck tail <event-log> [--since SECS] [--op OP] [--json]\n\n\
                     Renders a `vcheck serve --event-log` file, oldest first (including the \
                     rotated `.1` generation).\n  --since SECS  only events from the last \
                     SECS seconds\n  --op OP       only events for one op (scan, update, \
                     status, ...)\n  --json        raw JSON records instead of rendered lines"
                );
                std::process::exit(0);
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let path = path.unwrap_or_else(|| die("missing <event-log> path"));
    if !path.exists() && !eventlog::EventLog::rotated_path(&path).exists() {
        die(&format!("{}: no such event log", path.display()));
    }
    let cutoff_ms = since.map(|s| eventlog::now_ms().saturating_sub(s.saturating_mul(1000)));
    let mut shown = 0usize;
    for ev in eventlog::read_events(&path) {
        if cutoff_ms.is_some_and(|c| ev.ts_ms < c) {
            continue;
        }
        if op.as_deref().is_some_and(|want| ev.op != want) {
            continue;
        }
        if json {
            println!("{}", ev.raw);
        } else {
            println!("{}", ev.render());
        }
        shown += 1;
    }
    eprintln!("vcheck tail: {shown} event(s)");
    std::process::exit(0);
}

fn scan_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut dir: Option<PathBuf> = None;
    let mut defines: Vec<String> = Vec::new();
    let mut opts = Options::paper();
    let mut top: Option<usize> = None;
    let mut json = false;
    let mut stats = false;
    let mut metrics_json: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut profile: Option<PathBuf> = None;
    let mut fail_fast = false;
    let mut deadline_ms: Option<u64> = None;
    let mut sconf = SentinelConfig::default();

    while let Some(a) = args.next() {
        if analysis_flag(&a, &mut args, &mut defines, &mut opts)
            || sentinel_flag(&a, &mut args, &mut sconf)
        {
            continue;
        }
        match a.as_str() {
            "--deadline-ms" => deadline_ms = Some(number(&mut args, &a)),
            "--top" => top = Some(number(&mut args, &a)),
            "--json" => json = true,
            "--stats" => stats = true,
            "--budget-steps" => opts.harden = opts.harden.with_step_budget(number(&mut args, &a)),
            "--budget-ms" => opts.harden = opts.harden.with_time_budget_ms(number(&mut args, &a)),
            "--fail-fast" => fail_fast = true,
            "--metrics-json" => metrics_json = Some(path(&mut args, &a)),
            "--trace" => trace = Some(path(&mut args, &a)),
            "--profile" => profile = Some(path(&mut args, &a)),
            "--help" | "-h" => {
                eprintln!(
                    "Usage: vcheck <project-dir> [--define SYM]... [--all] [--no-rank] \
                     [--no-prune] [--top N] [--json] [--stats] [--metrics-json FILE] \
                     [--trace FILE] [--profile FILE] [--budget-steps N] [--budget-ms N] \
                     [--deadline-ms N] [--jobs N] \
                     [--retry K] [--unit-deadline-ms N] [--journal FILE] [--resume] \
                     [--fail-fast]\n       vcheck delta <project-dir> --from REV --to REV \
                     [options] (see `vcheck delta --help`)\n       vcheck history <project-dir> \
                     [options] (see `vcheck history --help`)\n       vcheck serve <project-dir> \
                     [options] (see `vcheck serve --help`)"
                );
                std::process::exit(0);
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let dir = dir.unwrap_or_else(|| die("missing <project-dir>"));
    // The deadline covers loading and parsing too.
    let started = std::time::Instant::now();

    // A directory with no `.c` files is a clean project (empty report,
    // exit 0), not a usage error — CI can point vcheck at a repo that
    // happens to contain no C sources.
    let project = or_die(load_dir_or_empty(&dir), &dir);
    if !project.has_history && !project.sources.is_empty() {
        eprintln!(
            "vcheck: no history.json found — using a single-author working-tree history; \
             cross-scope detection is limited to library return values"
        );
    }

    let obs = ObsSession::new();
    if fail_fast {
        opts.harden.isolate = false;
    }
    let parse_mem = vc_obs::MemScope::enter(vc_obs::alloc::SCOPE_PARSE);
    // Recovering build: corrupted regions cost only themselves. Each error
    // is function-granular when recovery could isolate it, so say which
    // function was dropped/degraded rather than implying the whole file was
    // skipped. `--fail-fast` stops at the first one instead.
    let built = build_tree(&project.source_refs(), &defines);
    let (Ok((_, errors, _)) | Err(errors)) = &built;
    if let Some(e) = errors.first().filter(|_| fail_fast) {
        die(&format!("build failed: {e}"));
    }
    for e in errors {
        match e.function() {
            Some(func) => eprintln!("vcheck: skipping function {func}: {e}"),
            None => eprintln!("vcheck: skipping file: {e}"),
        }
    }
    let Ok((prog, parse_errors, recover_stats)) = built else {
        die("every source file failed to parse");
    };
    {
        // The flush needs the session installed to reach its registry.
        let _g = obs.install();
        parse_mem.finish();
    }

    if sconf.resume && sconf.journal.is_none() {
        sconf.journal = Some(dir.join("scan.journal"));
    }
    sconf.fingerprint_salt = salt_strings(&defines);
    sconf.deadline = deadline_ms.map(|ms| ScanDeadline {
        at: started + std::time::Duration::from_millis(ms),
        label: "<program>",
    });

    // Every scan runs under the supervised executor. Under `--fail-fast`
    // (isolation off) the first panic stops the workers and propagates out
    // of `run_sentinel` to the top of the process.
    let mut analysis = run_sentinel(&prog, &project.repo, &opts, &sconf, obs.clone());
    // Front-end failures go ahead of the analysis-stage ones, in input
    // order.
    analysis
        .report
        .splice_parse_failures(&obs.registry, &parse_errors, &recover_stats);
    eprintln!(
        "vcheck: {} unused definitions, {} cross-scope, {} pruned, {} reported",
        analysis.raw_candidates,
        analysis.cross_scope_candidates,
        analysis.prune_outcome.total_pruned(),
        analysis.detected()
    );
    let deadline_exceeded = obs.registry.counter(vc_obs::names::SERVE_DEADLINE_EXCEEDED) > 0;
    if let (true, Some(ms)) = (deadline_exceeded, deadline_ms) {
        eprintln!(
            "vcheck: deadline of {ms}ms exceeded — report is partial, every row is marked \
             low-confidence (exit 3)"
        );
    }
    print_failures("vcheck: ", &analysis.report.failures);

    let mut report = analysis.report.clone();
    if let Some(n) = top {
        report.rows.truncate(n);
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_csv());
    }

    let snapshot = obs.registry.snapshot();
    if stats {
        eprint!("{}", snapshot.render_text());
        let folded = vc_obs::FoldedProfile::from_records(&obs.tracer.records());
        eprint!("{}", folded.render_top(10));
    }
    write_exports(&obs, &snapshot, metrics_json, trace, profile);
    let code = if deadline_exceeded {
        3
    } else if report.rows.is_empty() {
        0
    } else {
        1
    };
    std::process::exit(code);
}

/// Writes a run's `--metrics-json`, `--trace` and `--profile` files from
/// its session and metrics snapshot.
fn write_exports(
    obs: &ObsSession,
    snapshot: &vc_obs::MetricsSnapshot,
    metrics_json: Option<PathBuf>,
    trace: Option<PathBuf>,
    profile: Option<PathBuf>,
) {
    if let Some(path) = metrics_json {
        let text = snapshot.to_json_export().to_string_pretty();
        or_die(std::fs::write(&path, text), &path);
    }
    if let Some(path) = trace {
        let text = obs.tracer.to_chrome_json().to_string_pretty();
        or_die(std::fs::write(&path, text), &path);
    }
    if let Some(path) = profile {
        // The canonical ("logical") view: worker lanes spliced under the
        // pipeline stages, so the stack set is identical for any --jobs N.
        // Weighted by span count, not wall time — wall-clock weights would
        // differ between runs, and the folded file is specified to be
        // byte-identical across --jobs. Self-times live in the --stats
        // top-frames table.
        let folded = vc_obs::FoldedProfile::logical(&obs.tracer.records());
        or_die(
            std::fs::write(&path, folded.render(vc_obs::Weight::Samples)),
            &path,
        );
    }
}

fn die(msg: &str) -> ! {
    eprintln!("vcheck: {msg}");
    std::process::exit(2);
}
