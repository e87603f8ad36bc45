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

fn vcheck(dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg(dir)
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
    let out = vcheck(&dir);
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
    let out = vcheck(&dir);
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
    let out = vcheck(&dir);
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
    let out = vcheck(&dir);
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
fn expired_deadline_exits_three_with_partial_low_confidence_report() {
    let dir = project("deadline", &[("a.c", BUGGY_FN)]);
    // A zero deadline expires before the first function is analyzed.
    let out = Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg(&dir)
        .args(["--deadline-ms", "0"])
        .output()
        .expect("vcheck runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
    // A generous deadline behaves exactly like a plain scan.
    let out = Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg(&dir)
        .args(["--deadline-ms", "60000"])
        .output()
        .expect("vcheck runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let deadlined_stdout = out.stdout.clone();
    let plain = vcheck(&dir);
    assert_eq!(
        deadlined_stdout, plain.stdout,
        "an unexpired deadline must not change the report bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deadlined_scan_writes_its_trace_and_profile() {
    let dir = project("deadline-trace", &[("a.c", BUGGY_FN)]);
    let (trace, profile) = (dir.join("scan.trace.json"), dir.join("scan.folded"));
    let out = Command::new(env!("CARGO_BIN_EXE_vcheck"))
        .arg(&dir)
        .args(["--deadline-ms", "60000", "--trace"])
        .arg(&trace)
        .arg("--profile")
        .arg(&profile)
        .output()
        .expect("vcheck runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = fs::read_to_string(&trace).expect("--trace written");
    assert!(trace.contains("\"pipeline.run\""), "trace: {trace}");
    let profile = fs::read_to_string(&profile).expect("--profile written");
    assert!(
        profile
            .lines()
            .any(|l| l.starts_with("pipeline.run;stage.detect")),
        "profile: {profile}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn batch_executor_flags_are_refused_with_a_deadline() {
    let dir = project("deadline-batch", &[("a.c", BUGGY_FN)]);
    let journal = dir.join("scan.journal");
    let journal = journal.to_str().unwrap();
    for flag in [
        &["--jobs", "2"][..],
        &["--retry", "2"],
        &["--unit-deadline-ms", "5"],
        &["--journal", journal],
        &["--resume"],
        &["--fail-fast"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_vcheck"))
            .arg(&dir)
            .args(flag)
            .args(["--deadline-ms", "60000"])
            .output()
            .expect("vcheck runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{} cannot be combined with --deadline-ms",
                flag[0]
            )),
            "{flag:?}: stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag:?}: no report printed");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn whole_file_loss_uses_the_file_level_diagnostic() {
    let dir = project(
        "onegood",
        &[("good.c", BUGGY_FN), ("junk.c", "@@ $$ ?? garbage ~~\n")],
    );
    let out = vcheck(&dir);
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
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_vcheck"))
            .arg(&dir)
            .args(args)
            .output()
            .expect("vcheck runs")
    };
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
