#!/usr/bin/env sh
# Offline CI gate: build, test, format. No network access required — the
# workspace has zero crates-io dependencies.
set -eu

cd "$(dirname "$0")/.."

# Every `cargo test` step runs under this wall-clock bound, so a hung
# executor fails the gate instead of stalling it. Generous: the slowest
# step takes a few minutes.
bounded() {
    timeout 1800 "$@"
}

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
bounded cargo test --workspace -q

# faults: the 32-seed fault-injection sweep (crates/workload/tests/faults.rs)
# — every seeded run must survive truncated files, degenerate CFGs, absurd
# arity, missing blame, and an injected panic, with a balanced funnel and
# exactly one piece of evidence per fault.
echo "==> cargo test -p vc-workload --test faults -q (32 seeds)"
bounded cargo test -p vc-workload --test faults -q

# recovery: the parse-recovery corruption sweep
# (crates/workload/tests/recovery.rs) — 32 seeded apps, each corrupted five
# ways (truncation, deleted brace, lexer garbage, unterminated string,
# mangled signature); zero escaped panics, every planted bug outside the
# corrupted region keeps its fingerprint, exactly one function-granular
# parse failure per corruption, and byte-identical reports across --jobs
# and a journaled --resume on corrupted input.
echo "==> cargo test -p vc-workload --test recovery -q (32 seeds x 5 corruption kinds)"
bounded cargo test -p vc-workload --test recovery -q

# crash: the kill-at-random-point sweep (crates/workload/tests/crash.rs) —
# child processes abort mid-journal-append (clean and torn) at every grid
# offset; resuming from the survivor journal must lose and duplicate
# nothing. Bounded seeds keep this step well under a minute.
echo "==> cargo test -p vc-workload --test crash -q (kill-point sweep)"
bounded cargo test -p vc-workload --test crash -q

# sentinel: byte-identical reports and --stats across --jobs 1/2/8, journal
# replay idempotence, and the fault sweep under parallel workers.
echo "==> cargo test -p vc-workload --test sentinel -q"
bounded cargo test -p vc-workload --test sentinel -q

# delta: differential scans over generated two-commit workloads — the
# planted new/fixed/persisting split is recovered exactly, pure line drift
# never misclassifies a finding, and the delta report is byte-identical for
# --jobs 1 vs --jobs 4 and across a journaled resume.
echo "==> cargo test -p vc-workload --test delta -q"
bounded cargo test -p vc-workload --test delta -q

# history: lifecycle replays over generated multi-commit workloads
# (crates/workload/tests/history.rs) — every planted bug's scripted fate
# (live / fixed / suppressed / churned) is classified correctly, the
# lifecycle funnel balances (born = fixed + suppressed + live), a seeded
# suppression-store entry keeps covering its finding under drift, and the
# findings database is byte-identical for --jobs 1 vs --jobs 4 and across
# a journaled resume.
echo "==> cargo test -p vc-workload --test history -q"
bounded cargo test -p vc-workload --test history -q

# serve: chaos-proven recovery of the warm scan daemon
# (crates/core/tests/chaos.rs) — seeded request streams against the real
# `vcheck serve` binary, interleaving on-disk corruption, malformed lines,
# oversized bursts against a wedged worker, injected panics, and mid-stream
# kill+restart; zero unexpected daemon exits, every clean warm reply
# byte-identical to a cold batch scan of the same tree, and balanced
# protocol/funnel counters. The memory observatory (chaos_mem.rs) holds
# live_bytes inside a fixed band over 200 warm cycles.
echo "==> cargo test -p valuecheck --test chaos --test chaos_mem -q (serve chaos)"
bounded cargo test -p valuecheck --test chaos -q
bounded cargo test -p valuecheck --test chaos_mem -q

# summaries: the per-function summary layer (crates/core/tests/summaries.rs)
# — dead-store facts built exactly once per function per cold scan
# (summary.built == function count, counter-verified), reused rather than
# rebuilt on a warm `serve` re-scan of an unchanged tree, reports
# byte-identical across the sequential pipeline / --jobs 4 / serve
# warm+cold, and cursor prune decisions identical to the pre-summary
# inline rescan on generated truth workloads.
echo "==> cargo test -p valuecheck --test summaries -q (summary layer)"
bounded cargo test -p valuecheck --test summaries -q

# units: the detection unit contract (crates/core/tests/units.rs) — the
# sequential path, the sentinel executor at 1 and 4 jobs, a cold serve
# scan and incremental analysis report identical candidates, failure
# records and harden.poisoned.detect / harden.degraded.liveness /
# detect.functions, for a poisoned unit and a liveness-exhausted unit.
echo "==> cargo test -p valuecheck --test units -q (one unit runner)"
bounded cargo test -p valuecheck --test units -q

# bench: the perf observatory (crates/bench/src/perf.rs) — a deterministic
# scaled scan measured median-of-N, written as BENCH_scan.json /
# BENCH_stages.json. The serve_bench step is the sustained-throughput case:
# a seeded edit storm through the in-process warm serve engine via the
# daemon's own request path, reduced to exact latency percentiles
# (serve/sustained_p50|p95|p99) plus req/s, written as BENCH_serve.json.
# One perfgate run then gates all three reports against the committed
# bench/baseline.json with noise-tolerant thresholds (both 1.6x slower AND
# 10ms absolutely slower before a case regresses). Refresh with
# `tools/perfgate --write-baseline` when a slowdown is intentional.
echo "==> perf observatory (scaled bench + serve edit storm)"
cargo run --quiet --release -p vc-bench --bin perf -- --out .
echo "==> serve_bench: BENCH_serve.json carries sustained req/s + percentiles"
grep -q '"throughput_rps"' BENCH_serve.json
grep -q '"serve/sustained_p99"' BENCH_serve.json
tools/perfgate

# repobench: the repository benchmark's own tests (repobench/tests) — the
# oracle tamper tests (each workload's ground-truth check rejects a
# tampered result) and the per-layer ledger, whose unattributed time is
# recomputed from the Chrome trace. repobench is a package of its own
# outside the workspace, so `cargo test --workspace` does not reach it.
echo "==> cargo test --release --manifest-path repobench/Cargo.toml"
bounded cargo test --release --manifest-path repobench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "ci: OK"
