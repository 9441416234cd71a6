#!/bin/sh
# Crash containment through the CLI. A two-experiment run whose first
# experiment aborts after storing one collected cell (--io-crash-after=1)
# must exit 1, record that experiment as crashed in the suite manifest,
# and still run the second one to completion.
#
# usage: crash_containment.sh <bigfish> <work-dir>   (work-dir is wiped)
set -u
bigfish="$1"
work="$2"
rm -rf "$work" && mkdir -p "$work" || exit 1

rc=0
"$bigfish" run table1_fingerprinting fig3_traces --smoke --threads=2 \
    --keep-going --cache-dir="$work/cache" --io-crash-after=1 \
    --json-dir="$work/out" > "$work/run.log" 2>&1 || rc=$?
manifest="$work/out/suite-manifest.json"
fail() {
    echo "crash containment: $1" >&2
    cat "$work/run.log" >&2
    exit 1
}
[ "$rc" -eq 1 ] || fail "expected exit 1, got $rc"
[ -f "$manifest" ] || fail "no suite manifest at $manifest"
grep -q '"name": "table1_fingerprinting", "state": "crashed"' "$manifest" ||
    fail "table1_fingerprinting is not recorded as crashed"
grep -q '"name": "fig3_traces", "state": "ok"' "$manifest" ||
    fail "fig3_traces did not run to completion"
echo "crash contained: table1_fingerprinting crashed, fig3_traces ok, exit 1"
