//! Chaos-proven recovery for the `vcheck serve` daemon.
//!
//! Executes seeded [`vc_workload::chaos`] plans against the real binary:
//! request streams interleaved with on-disk corruption, malformed lines,
//! oversized bursts against a wedged worker, injected panics, and
//! mid-stream kill+restart. The contract held throughout:
//!
//! - the daemon process never exits except on `shutdown`/EOF (status 0);
//! - every clean scan/update reply is **byte-identical** to a cold batch
//!   scan of the tree at that moment (the in-process oracle in `common`);
//! - per-lifetime counters balance: requests, bad lines, sheds,
//!   quarantines, and the analysis funnel
//!   (`cross_scope == pruned + reported`).

use std::{
    fs,
    io::{BufRead, BufReader, Write},
    path::Path,
    process::{Child, ChildStdin, ChildStdout, Command, Stdio},
};

use valuecheck::{harden::FailStage, pipeline::Options};
use vc_obs::Json;
use vc_workload::chaos::{generate_chaos, ChaosStep};

mod common {
    pub mod oracle;
    pub mod tree;
}
use common::tree::write_tree;

/// The cold oracle at the paper's configuration, which the daemon runs.
fn cold_canonical(dir: &Path) -> Vec<u8> {
    common::oracle::cold_canonical(dir, &Options::paper())
}

/// The warm reply's report bytes: `csv` + pretty-printed `report`, the two
/// halves of `Report::canonical_bytes`, reconstructed from the wire.
fn reply_canonical(reply: &Json) -> Vec<u8> {
    let mut out = reply
        .get("csv")
        .and_then(Json::as_str)
        .expect("scan reply has csv")
        .as_bytes()
        .to_vec();
    out.extend_from_slice(
        reply
            .get("report")
            .expect("scan reply has report")
            .to_string_pretty()
            .as_bytes(),
    );
    out
}

struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    seq: u64,
    /// Every `trace_id` observed on a reply, in arrival order. Shed
    /// replies carry none (they never reach the engine that assigns them).
    trace_ids: Vec<i64>,
}

impl Daemon {
    fn spawn(dir: &Path, queue_depth: usize, panic_seqs: &[u64], failpoints: &str) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vcheck"));
        cmd.arg("serve")
            .arg(dir)
            .args(["--queue-depth", &queue_depth.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if !panic_seqs.is_empty() {
            let spec: Vec<String> = panic_seqs.iter().map(u64::to_string).collect();
            cmd.env("VCHECK_SERVE_PANIC_SEQS", spec.join(","));
        }
        if !failpoints.is_empty() {
            cmd.env("VCHECK_SERVE_FAILPOINTS", failpoints);
        }
        let mut child = cmd.spawn().expect("vcheck serve spawns");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin,
            stdout,
            seq: 0,
            trace_ids: Vec::new(),
        }
    }

    /// Sends one line (assigning it the next seq) without reading a reply.
    fn send(&mut self, line: &str) -> u64 {
        self.seq += 1;
        writeln!(self.stdin, "{line}").expect("daemon accepts input");
        self.stdin.flush().unwrap();
        self.seq
    }

    /// Reads one reply line. Panics (failing the test) if the daemon died
    /// instead — the central "zero daemon exits" assertion.
    fn read_reply(&mut self) -> Json {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .expect("daemon stdout readable");
        assert!(
            n > 0,
            "daemon closed stdout mid-conversation (crashed?) at seq {}",
            self.seq
        );
        let reply = vc_obs::json::parse(line.trim_end()).expect("daemon speaks JSON");
        if let Some(id) = reply.get("trace_id").and_then(Json::as_i64) {
            self.trace_ids.push(id);
        }
        reply
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.read_reply()
    }

    fn status(&mut self) -> Json {
        self.request("{\"op\":\"status\"}")
    }

    fn counter(status: &Json, name: &str) -> i64 {
        status
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("status has counter {name}"))
    }

    fn shutdown(mut self) {
        let reply = self.request("{\"op\":\"shutdown\"}");
        assert_eq!(reply.get("op").and_then(Json::as_str), Some("shutdown"));
        let code = self.child.wait().expect("daemon reaped");
        assert_eq!(code.code(), Some(0), "graceful shutdown exits 0");
    }

    fn kill(mut self) {
        // Mid-stream kill: a request is in flight and never answered.
        let _ = self.send("{\"op\":\"scan\"}");
        self.child.kill().expect("kill delivered");
        let _ = self.child.wait();
    }
}

fn run_plan(seed: u64) {
    let plan = generate_chaos(seed);
    let dir = write_tree(&format!("chaos-seed{seed}"), &plan.initial_tree);

    for (seg_idx, seg) in plan.segments.iter().enumerate() {
        let mut daemon = Daemon::spawn(&dir, plan.queue_depth, &seg.panic_seqs, "");
        let mut expected_bad = 0i64;
        let mut expected_quarantines = 0i64;
        let mut observed_sheds = 0i64;

        for step in &seg.steps {
            match step {
                ChaosStep::Scan | ChaosStep::Update { .. } => {
                    let line = match step {
                        ChaosStep::Scan => "{\"op\":\"scan\"}".to_string(),
                        ChaosStep::Update { files } => {
                            let names: Vec<String> =
                                files.iter().map(|f| format!("\"{f}\"")).collect();
                            format!("{{\"op\":\"update\",\"files\":[{}]}}", names.join(","))
                        }
                        _ => unreachable!(),
                    };
                    let seq = daemon.send(&line);
                    let reply = daemon.read_reply();
                    assert_eq!(reply.get("seq").and_then(Json::as_i64), Some(seq as i64));
                    if seg.panic_seqs.contains(&seq) {
                        // The armed panic: an error reply, a quarantine,
                        // and a daemon that keeps serving.
                        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
                        assert!(
                            reply
                                .get("error")
                                .and_then(Json::as_str)
                                .unwrap()
                                .contains("quarantined"),
                            "seed {seed} seg {seg_idx} seq {seq}: {reply:?}"
                        );
                        expected_quarantines += 1;
                    } else {
                        assert_eq!(
                            reply.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "seed {seed} seg {seg_idx} seq {seq}: {reply:?}"
                        );
                        assert_eq!(
                            reply_canonical(&reply),
                            cold_canonical(&dir),
                            "seed {seed} seg {seg_idx} seq {seq}: warm reply diverged from cold scan"
                        );
                    }
                }
                ChaosStep::Edit { path, content } => {
                    fs::write(dir.join(path), content).unwrap();
                }
                ChaosStep::BadLine { line } => {
                    let reply = daemon.request(line);
                    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
                    assert!(reply.get("shed").is_none(), "bad line is not a shed");
                    expected_bad += 1;
                }
                ChaosStep::Burst { wedge_ms, count } => {
                    // Wedge the worker, then overfill the queue.
                    daemon.send(&format!("{{\"op\":\"sleep\",\"ms\":{wedge_ms}}}"));
                    for _ in 0..*count {
                        daemon.send("{\"op\":\"scan\"}");
                    }
                    let mut sheds = 0i64;
                    for _ in 0..(1 + count) {
                        let reply = daemon.read_reply();
                        if reply.get("shed").and_then(Json::as_bool) == Some(true) {
                            sheds += 1;
                        } else if reply.get("op").and_then(Json::as_str) != Some("sleep") {
                            // A queued scan that survived the burst: it
                            // must still be a clean, byte-exact reply.
                            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
                            assert_eq!(reply_canonical(&reply), cold_canonical(&dir));
                        }
                    }
                    assert!(
                        sheds >= 1,
                        "seed {seed} seg {seg_idx}: burst of {count} over depth {} shed nothing",
                        plan.queue_depth
                    );
                    observed_sheds += sheds;
                }
            }
        }

        // Counter balance for this daemon lifetime.
        let status = daemon.status();
        assert_eq!(
            Daemon::counter(&status, "serve.requests"),
            daemon.seq as i64,
            "every line sent was counted (seed {seed} seg {seg_idx})"
        );
        assert_eq!(Daemon::counter(&status, "serve.bad_requests"), expected_bad);
        assert_eq!(
            Daemon::counter(&status, "serve.state_rebuilds"),
            expected_quarantines,
            "exactly one quarantine per injected panic"
        );
        assert_eq!(Daemon::counter(&status, "serve.shed"), observed_sheds);
        let cross = Daemon::counter(&status, "funnel.cross_scope");
        let reported = Daemon::counter(&status, "funnel.reported");
        let pruned = status
            .get("funnel_pruned")
            .and_then(Json::as_i64)
            .expect("status reports pruned total");
        assert_eq!(
            cross,
            pruned + reported,
            "funnel balances (seed {seed} seg {seg_idx})"
        );
        // Request-funnel balance: every counted request resolved to exactly
        // one of the four outcomes by the time status answered (the status
        // request itself included — its reply counter is bumped before the
        // snapshot is read).
        assert_eq!(
            Daemon::counter(&status, "serve.requests"),
            Daemon::counter(&status, "serve.replies")
                + Daemon::counter(&status, "serve.shed")
                + Daemon::counter(&status, "serve.errors")
                + Daemon::counter(&status, "serve.quarantined"),
            "request funnel balances (seed {seed} seg {seg_idx})"
        );
        // Trace ids: every engine-processed request got exactly one, and
        // they arrived dense and strictly increasing from 1 — unique per
        // daemon lifetime, FIFO order preserved through chaos.
        let expected_ids: Vec<i64> = (1..=daemon.trace_ids.len() as i64).collect();
        assert_eq!(
            daemon.trace_ids, expected_ids,
            "trace ids dense + monotonic (seed {seed} seg {seg_idx})"
        );

        if seg.graceful {
            daemon.shutdown();
        } else {
            daemon.kill();
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chaos_seed_1() {
    run_plan(1);
}

#[test]
fn chaos_seed_42() {
    run_plan(42);
}

#[test]
fn chaos_seed_99() {
    run_plan(99);
}

/// Env-armed failpoints poison individual functions on every request
/// without killing the daemon, and the failure records flow through the
/// protocol exactly as a cold scan with the same failpoint would report
/// them.
#[test]
fn armed_failpoints_degrade_but_never_kill() {
    let plan = generate_chaos(7);
    let dir = write_tree("chaos-failpoint", &plan.initial_tree);
    // Aim at the planted fault-file functions, present in every tree.
    let needle = "vc_corrupt_";
    let mut daemon = Daemon::spawn(&dir, plan.queue_depth, &[], &format!("detect:{needle}"));

    let oracle = {
        let _g = valuecheck::harden::arm_failpoint(FailStage::Detect, needle);
        cold_canonical(&dir)
    };
    for seq in 1..=3u64 {
        let reply = daemon.request("{\"op\":\"scan\"}");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "seq {seq}"
        );
        assert_eq!(
            reply_canonical(&reply),
            oracle,
            "failpointed warm scan matches a failpointed cold scan (seq {seq})"
        );
        let failures = reply
            .get("report")
            .and_then(|r| r.get("failures"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(!failures.is_empty(), "poisoned units are reported");
    }
    let status = daemon.status();
    assert!(Daemon::counter(&status, "harden.poisoned.detect") > 0);
    daemon.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
