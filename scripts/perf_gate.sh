#!/usr/bin/env bash
# Perf gate: runs the end-to-end benchmark's workloads named in
# testdata/perfgate/bounds.json for a 5 s window at seed 1, and judges
# them with `e2ebench diff` against the runs in testdata/perfgate/baseline/
# under the bounds in that file. The bounds are lenient because the
# baseline was recorded on other hardware; luts_total must match exactly.
# A run that fails, or lacks a gated metric, fails the gate.
#
# Then the gate checks that it can fail at all: judged against the
# baseline, a copy of the baseline with maps_per_s / 3 and lat_ms_p50 x 3
# and a copy with luts_total + 1 must each exit 1, and the baseline
# itself must exit 0.
#
# Run it from anywhere; it needs go and jq. Builds and caches go to
# .bench_build/ at the repository root (e2ebench/run.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

bounds=testdata/perfgate/bounds.json
baseline=testdata/perfgate/baseline
e2ebench=.bench_build/bin/e2ebench
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
    echo "perf gate: FAIL: $*" >&2
    exit 1
}

gated=$(jq -c '[.end_to_end[].name]' "$bounds")
mkdir -p "$work/new"
for wl in $(jq -r '.workloads[].name' "$bounds"); do
    echo "perf gate: running $wl" >&2
    if ! bash e2ebench/run.sh --workload "$wl" --seed 1 --seconds 5 --trace 0 \
        >"$work/new/$wl.json" 2>"$work/$wl.err"; then
        tail -n 20 "$work/$wl.err" >&2
        fail "the $wl run failed"
    fi
    tail -n 1 "$work/new/$wl.json" | jq -e --argjson gated "$gated" \
        '$gated - (.metrics | keys) == []' >/dev/null ||
        fail "the $wl run lacks a metric named in $bounds"
done

"$e2ebench" diff -bench "$bounds" "$baseline" "$work/new" ||
    fail "e2ebench diff exited $? against $baseline"

# fabricate NAME FILTER writes a copy of the baseline to $work/NAME with
# the jq FILTER applied to each run's result line.
fabricate() {
    mkdir -p "$work/$1"
    for f in "$baseline"/*; do
        jq -c "if has(\"metrics\") then $2 else . end" "$f" >"$work/$1/$(basename "$f")"
    done
}

# expect CODE DIR: the diff of the baseline against DIR must exit CODE.
expect() {
    local got=0
    "$e2ebench" diff -bench "$bounds" "$baseline" "$2" >"$work/check.txt" 2>&1 || got=$?
    if [ "$got" -ne "$1" ]; then
        cat "$work/check.txt" >&2
        fail "self-check: $2 against the baseline exited $got, want $1"
    fi
}

fabricate slow '.metrics.maps_per_s.value /= 3 | .metrics.lat_ms_p50.value *= 3'
fabricate drift '.metrics.luts_total.value += 1'
expect 0 "$baseline"
expect 1 "$work/slow"
expect 1 "$work/drift"
echo "perf gate: PASS (self-check: a 3x slowdown and a LUT of drift each fail the diff)"
