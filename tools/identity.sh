#!/usr/bin/env sh
# Byte-identity matrix: runs one build's `genapp` and `vcheck` over five
# generated trees and writes every output the matrix compares into one
# directory. Run it for two builds, then compare the directories:
#
#   tools/identity.sh ../parent/target/release /tmp/identity-parent
#   tools/identity.sh target/release /tmp/identity-change
#   diff -r /tmp/identity-parent /tmp/identity-change
#
# For each run NAME it writes NAME.out (stdout), NAME.err (stderr) and
# NAME.code (exit status), plus NAME.<file> for each file the run wrote.
# Trees are generated in a scratch directory and every command runs there
# on relative paths, so no output names a directory of the caller's.
#
# The runs, per tree: scan as CSV, as `--json` and at `--jobs 4`; `delta
# --from HEAD~3 --to HEAD` writing a baseline, then again under it as JSON;
# `history` with `--db` and `--lifecycle-json`; `serve` answering two scans
# and flushing `--snapshot`; a journaled `--jobs 1` scan (its journal is
# byte-deterministic, so it is kept) and a journaled `--jobs 2` scan,
# resumed from its whole journal and from the first half of it.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <bin-dir> <out-dir>" >&2
    exit 2
fi
bin=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# run NAME [--stdin FILE] CMD...: one run, recorded under $out/NAME.*.
run() {
    name=$1
    shift
    input=/dev/null
    if [ "$1" = --stdin ]; then
        input=$2
        shift 2
    fi
    code=0
    "$@" <"$input" >"$out/$name.out" 2>"$out/$name.err" || code=$?
    echo "$code" >"$out/$name.code"
}

printf '%s\n' '{"op":"scan"}' '{"op":"scan"}' '{"op":"shutdown"}' >requests

for app in linux:0.03 nfs-ganesha:0.03 mysql:0.03 openssl:0.03 mysql:0.2; do
    profile=${app%%:*}
    scale=${app#*:}
    t=$profile-$scale
    echo "identity: $t" >&2
    "$bin/genapp" --profile "$profile" --scale "$scale" --out "$t" 2>/dev/null
    v=$bin/vcheck

    run "$t.scan" "$v" "$t"
    run "$t.scan-json" "$v" "$t" --json
    run "$t.scan-jobs4" "$v" "$t" --jobs 4

    run "$t.delta" "$v" delta "$t" --from HEAD~3 --to HEAD --write-baseline baseline
    cp baseline "$out/$t.delta.baseline"
    run "$t.delta-baseline" "$v" delta "$t" --from HEAD~3 --to HEAD --baseline baseline --json

    run "$t.history" "$v" history "$t" --db lifedb --lifecycle-json lifecycle.json
    cp lifedb "$out/$t.history.lifedb"
    cp lifecycle.json "$out/$t.history.lifecycle.json"

    run "$t.serve" --stdin requests "$v" serve "$t" --snapshot snapshot
    cp snapshot "$out/$t.serve.snapshot"

    run "$t.journal-jobs1" "$v" "$t" --jobs 1 --journal journal1
    cp journal1 "$out/$t.journal-jobs1.journal"
    run "$t.journal-jobs2" "$v" "$t" --jobs 2 --journal journal2
    run "$t.resume-whole" "$v" "$t" --jobs 2 --journal journal2 --resume
    head -n "$(($(wc -l <journal2) / 2))" journal2 >journal-half
    run "$t.resume-half" "$v" "$t" --jobs 2 --journal journal-half --resume

    rm -rf "$t" baseline lifedb lifecycle.json snapshot journal1 journal2 journal-half
done
