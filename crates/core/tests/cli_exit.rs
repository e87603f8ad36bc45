//! Exit-code contract of the `vcheck` binary under parse recovery.
//!
//! `vcheck` exits 0 with no findings, 1 with findings, 2 on usage/load
//! errors. The error-recovering front end must leave that contract intact:
//! a corrupted function is skipped (function-granular diagnostic, exit
//! decided by the surviving code), while a project where *nothing* parses
//! is still a hard load error.

use std::{
    fs,
    path::PathBuf,
    process::{Command, Output},
};

/// One planted cross-scope finding: the library retval is overwritten
/// before use, which the retval rule reports under any history.
const BUGGY_FN: &str = "int lib_a(void);\n\
                        int has_bug(void) {\n\
                        int got = lib_a();\n\
                        got = 2;\n\
                        return got;\n\
                        }\n";

/// A clean function that produces no findings.
const CLEAN_FN: &str = "int clean_fn(void) { return 1; }\n";

/// A function whose signature does not parse: recovery drops it alone.
const MANGLED_FN: &str = "vc_mangled_t broken_fn(void) {\n\
                          int x = 1;\n\
                          return x;\n\
                          }\n";

fn project(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc-cli-exit-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for (file, text) in files {
        fs::write(dir.join(file), text).unwrap();
    }
    dir
}

/// Runs `vcheck <dir> <args>`.
fn vcheck(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg(dir)
        .args(args)
        .output()
        .expect("vcheck runs")
}

#[test]
fn all_files_failing_to_parse_is_a_load_error() {
    let dir = project(
        "allbad",
        &[
            ("junk1.c", "@@ $$ ?? nothing lexes here ~~\n"),
            ("junk2.c", "%% ## also garbage $$\n"),
        ],
    );
    let out = vcheck(&dir, &[]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("every source file failed to parse"),
        "stderr: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn surviving_findings_still_exit_one_and_name_the_skipped_function() {
    let dir = project("mixed", &[("a.c", &format!("{BUGGY_FN}{MANGLED_FN}"))]);
    let out = vcheck(&dir, &[]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "the surviving planted bug decides the exit code; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("skipping function broken_fn"),
        "function-granular skip diagnostic; stderr: {stderr}"
    );
    assert!(
        !stderr.contains("skipping file"),
        "a one-function corruption must not read as a skipped file; stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("has_bug"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn surviving_clean_code_still_exits_zero() {
    let dir = project("cleanish", &[("a.c", &format!("{CLEAN_FN}{MANGLED_FN}"))]);
    let out = vcheck(&dir, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "no findings in the surviving code; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_project_dir_exits_zero_with_empty_report() {
    // A directory with zero `.c` files is a clean project, not a usage
    // error: CI can point vcheck at a repo with no C sources.
    let dir = project("emptydir", &[]);
    fs::create_dir_all(dir.join("sub")).unwrap();
    let out = vcheck(&dir, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().count(),
        1,
        "header-only CSV; stdout: {stdout}"
    );
    assert!(stdout.starts_with("rank,file,line"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "no panic on an empty tree; stderr: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_deadline_runs_on_the_batch_executor_with_every_flag() {
    let dir = project(
        "deadline-jobs",
        &[("a.c", BUGGY_FN), ("b.c", CLEAN_FN), ("c.c", BUGGY_FN)],
    );
    let plain = vcheck(&dir, &["--jobs", "4"]);
    assert_eq!(plain.status.code(), Some(1));
    let unexpired = vcheck(&dir, &["--deadline-ms", "60000", "--jobs", "4"]);
    assert_eq!(unexpired.status.code(), plain.status.code());
    assert_eq!(unexpired.stdout, plain.stdout);

    let expired = vcheck(&dir, &["--deadline-ms", "0", "--jobs", "4"]);
    let stderr = String::from_utf8_lossy(&expired.stderr);
    assert_eq!(expired.status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("deadline exceeded after 0 of 3 functions"),
        "stderr: {stderr}"
    );
    assert_eq!(String::from_utf8_lossy(&expired.stdout).lines().count(), 1);

    // A journal keeps what a scan finished: resumed with one unit on
    // record and a deadline that has already passed, the report holds
    // that unit's finding alone, marked low-confidence.
    let journal = dir.join("scan.journal");
    let journal = journal.to_str().unwrap();
    let full = vcheck(&dir, &["--jobs", "1", "--journal", journal]);
    assert_eq!(full.stdout, plain.stdout);
    let text = fs::read_to_string(journal).unwrap();
    let first_unit: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    fs::write(journal, first_unit).unwrap();
    let resume = "--resume --deadline-ms 0 --jobs 4 --journal".split(' ');
    let partial = vcheck(&dir, &resume.chain([journal]).collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&partial.stderr);
    assert_eq!(partial.status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("deadline exceeded after 1 of 3 functions"),
        "stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&partial.stdout);
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(rows.len(), 1, "stdout: {stdout}");
    assert!(rows[0].contains(",a.c,"), "stdout: {stdout}");
    assert!(rows[0].ends_with(",true"), "low-confidence: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_deadlined_scan_exports_like_a_plain_one() {
    let dir = project("deadline-stats", &[("a.c", BUGGY_FN)]);
    let (trace, profile) = (dir.join("scan.trace.json"), dir.join("scan.folded"));
    let (trace_arg, profile_arg) = (trace.to_str().unwrap(), profile.to_str().unwrap());
    for deadline in [&[][..], &["--deadline-ms", "60000"]] {
        let mut args = vec!["--stats", "--trace", trace_arg, "--profile", profile_arg];
        args.extend(deadline);
        let out = vcheck(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("profile (top self-time frames):"),
            "{args:?}: stderr: {stderr}"
        );
        let trace = fs::read_to_string(&trace).expect("--trace written");
        assert!(trace.contains("\"pipeline.run\""), "trace: {trace}");
        let profile = fs::read_to_string(&profile).expect("--profile written");
        assert!(
            (profile.lines()).any(|l| l.starts_with("pipeline.run;stage.detect")),
            "profile: {profile}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn whole_file_loss_uses_the_file_level_diagnostic() {
    let dir = project(
        "onegood",
        &[("good.c", BUGGY_FN), ("junk.c", "@@ $$ ?? garbage ~~\n")],
    );
    let out = vcheck(&dir, &[]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("skipping file") && stderr.contains("junk.c"),
        "stderr: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fail_fast_exits_two_on_the_first_recovering_build_error() {
    let broken = "int broken(void) { int x = $$; use(x); }\n";
    let dir = project("failfast", &[("a.c", &format!("{BUGGY_FN}{broken}"))]);
    let run = |args: &[&str]| vcheck(&dir, args);
    let out = run(&["--fail-fast"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    // Stray bytes are invalid tokens to the recovering front end, so the
    // first error is the parser's, not the lexer's.
    assert_eq!(
        stderr.lines().last(),
        Some(
            "vcheck: build failed: a.c: parse error at 7:28: expected an expression, found \
             invalid token"
        ),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report on a fail-fast abort");

    // On a clean tree `--fail-fast` changes nothing but the unwind boundary.
    fs::write(dir.join("a.c"), BUGGY_FN).unwrap();
    let (plain, fast) = (run(&[]), run(&["--fail-fast"]));
    assert_eq!(fast.status.code(), Some(1));
    assert_eq!(fast.stdout, plain.stdout);
    assert_eq!(fast.stderr, plain.stderr);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn delta_and_history_show_a_revisions_failures_and_keep_its_findings_open() {
    let (repo, _, broken) = vc_workload::truncated_history();
    let dir = project("truncated", &[("a.c", &repo.snapshot_at(broken)["a.c"])]);
    let spec = vc_vcs::HistorySpec::from_repo(&repo).to_json();
    fs::write(dir.join("history.json"), spec).unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_vcheck"))
            .args(args)
            .arg(&dir)
            .output()
            .expect("vcheck runs");
        let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
        (out.status.code(), text(out.stdout), text(out.stderr))
    };
    let failure = format!(
        "commit {}: 1 unit(s) of work failed and were isolated:\nvcheck:   [parse] alpha in a.c:",
        broken.0
    );

    let baseline = dir.join("baseline.vc");
    let baseline_arg = baseline.to_str().unwrap();
    let mut delta: Vec<&str> = "delta --from HEAD~1 --to HEAD --write-baseline"
        .split(' ')
        .collect();
    delta.push(baseline_arg);
    let (code, stdout, stderr) = run(&delta);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stderr.contains(&format!("delta: {failure}")), "{stderr}");
    assert!(stderr.contains("1 finding(s) sit in code"), "{stderr}");
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let statuses: Vec<_> = rows.iter().map(|r| (r[0], r[5])).collect();
    assert_eq!(statuses, [("persisting", "beta"), ("unscanned", "alpha")]);
    // The unscanned finding is presumed present, so the baseline keeps it.
    let stored = valuecheck::store::SnapshotStore::load(&baseline).fingerprint_set();
    assert_eq!(stored.len(), 2);

    let (code, stdout, stderr) = run(&["history"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains(&format!("history: {failure}")), "{stderr}");
    assert!(stderr.contains(", 0 fixed,") && !stdout.contains(",fixed,"));
    let _ = fs::remove_dir_all(&dir);
}
