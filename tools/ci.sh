#!/usr/bin/env sh
# Offline CI gate: build, test, format, lint. No network access required — the
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

# all-targets: benches, examples and tests compile too, so an API change
# that breaks a bench target fails the gate instead of rotting unnoticed.
echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

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
# never misclassifies a finding, a corrupted revision recovers as `scan`
# does (same failure records and recover.* counters as `vcheck <dir>` on
# its tree, healthy findings under unchanged fingerprints), and the delta
# report is byte-identical for --jobs 1 vs --jobs 4 and across a journaled
# resume.
echo "==> cargo test -p vc-workload --test delta -q"
bounded cargo test -p vc-workload --test delta -q

# history: lifecycle replays over generated multi-commit workloads
# (crates/workload/tests/history.rs) — every planted bug's scripted fate
# (live / fixed / suppressed / churned) is classified correctly, the
# lifecycle funnel balances (born = fixed + suppressed + live), a seeded
# suppression-store entry keeps covering its finding under drift, a
# corrupted revision recovers as `scan` does (its healthy findings persist
# on their tracks, same recover.* counters as `vcheck <dir>`), and the
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

# units: the detection unit contract (crates/core/tests/units.rs) — every
# entry point runs its units on the one sentinel executor (serve hands it
# its cache misses, incremental mode its changed files' functions), so
# the sequential path, the executor at 1 and 4 jobs, a cold serve scan
# and incremental analysis report identical candidates, failure records
# and harden.poisoned.detect / harden.degraded.liveness /
# detect.functions, for a poisoned unit and a liveness-exhausted unit.
echo "==> cargo test -p valuecheck --test units -q (one unit runner)"
bounded cargo test -p valuecheck --test units -q

# serve_diff: warm serve replies against cold scans
# (crates/core/tests/serve_diff.rs) — seeded edit sequences that reach a
# function from outside its file (a callee's body, a callee's prototype
# retyped int <-> void, a first-sorting file added or removed, a
# same-named static, a retargeted function pointer); after every step the
# warm reply equals a cold run_sentinel scan byte for byte, so the unit
# key and the lowered-function check alone decide a cache hit.
echo "==> cargo test -p valuecheck --test serve_diff -q (warm == cold)"
bounded cargo test -p valuecheck --test serve_diff -q

# serve_alloc: the warm-request allocation guards
# (crates/core/tests/serve_alloc.rs) — a warm rescan of 200 unchanged
# functions, each with two dead stores, must stay under a fixed number of
# detect-stage allocations per unit-cache hit (hits share their cached
# summary and move their cache entry instead of deep-copying either); and
# after a probe function is appended to one of 20 files, the warm request's
# parse-stage bytes must stay at or under 10% of the cold request's (the
# parse cache keeps lowered files, so only the edited file re-lowers).
echo "==> cargo test -p valuecheck --test serve_alloc -q (warm-request allocations)"
bounded cargo test -p valuecheck --test serve_alloc -q

# history_alloc: the history-replay allocation guard
# (crates/core/tests/history_alloc.rs) — `vcheck history` over 120 commits
# of a 3000-line file, one line edited per commit, must stay under a fixed
# number of allocations per commit on the replay thread (the walk replays
# each commit once into one running checkout, snapshots each revision by
# borrowing, and builds line maps without copying lines).
echo "==> cargo test -p valuecheck --test history_alloc -q (history-replay allocations)"
bounded cargo test -p valuecheck --test history_alloc -q

# lex_alloc: the front-end allocation guard (crates/ir/tests/lex_alloc.rs)
# — lexing a 200-function file allocates only the decoded text of its
# string literals and guard symbols plus vector growth (tokens are `Copy`
# ranges into the source), and parse_with_recovery stays under a fixed
# number of allocations per token.
echo "==> cargo test -p vc-ir --test lex_alloc -q (front-end allocations)"
bounded cargo test -p vc-ir --test lex_alloc -q

# lowered_cache: the lowered-file cache differential
# (crates/ir/tests/lowered_cache.rs) — seeded edit sequences on one warm
# ParseCache (prototypes added, removed or retyped, global types changed,
# struct fields added or reordered, names newly declared, defines switched,
# files renamed, reordered, corrupted and restored); after every step the
# warm build equals a cold build byte for byte, and an unreferenced new
# function re-lowers exactly its own file.
echo "==> cargo test -p vc-ir --test lowered_cache -q (lowered-file cache)"
bounded cargo test -p vc-ir --test lowered_cache -q

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

# clippy: every target of the workspace lints clean; a new warning fails
# the gate.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# doc: rustdoc must build without a warning (broken or private intra-doc
# links, ambiguous paths).
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# loc: informational, never gating — the Rust line count of crates/, split
# into src/ trees (library and binary code with their unit tests) and the
# rest (integration tests, benches), and the same for crates/core, so the
# net-negative line goal is measured on every change.
echo "==> Rust lines in crates/ (informational)"
loc() {
    src_loc=$(find "$1" -name '*.rs' -path '*/src/*' -exec cat {} + | wc -l)
    test_loc=$(find "$1" -name '*.rs' ! -path '*/src/*' -exec cat {} + | wc -l)
    echo "loc: $1/ src $src_loc + tests $test_loc = $((src_loc + test_loc))"
}
loc crates
loc crates/core

echo "ci: OK"
