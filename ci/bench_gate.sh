#!/usr/bin/env bash
# Bench-regression gate.
#
# Runs the window-index, sweep, serve, and trace bench suites, records
# each benchmark's median ns/iter as machine-readable JSON
# (BENCH_window_index.json, BENCH_sweep.json, BENCH_serve.json,
# BENCH_trace.json — uploaded as CI artifacts), and compares against the
# committed baseline:
#
#   * every [[bench]] target declared in crates/bench/Cargo.toml must be
#     one of SUITES — a suite the gate does not run fails the gate before
#     any benchmark runs, so unrun benches cannot accumulate;
#   * a baseline entry missing from the run fails the gate, and so does a
#     run benchmark with no baseline entry (except the host-dependent
#     UNBASELINED ids, which --update leaves out on purpose) — so every
#     benchmark the suites run is gated;
#   * a benchmark slower than baseline × BENCH_GATE_MAX_RATIO fails the
#     gate (regression);
#   * a benchmark faster than baseline ÷ BENCH_GATE_MAX_RATIO prints a
#     notice suggesting a baseline refresh (never fails);
#   * window_index/argmin_indexed must beat window_index/argmin_naive by
#     ≥ BENCH_GATE_MIN_ARGMIN_SPEEDUP — the indexed-query contract, a
#     pure ratio and therefore machine-independent;
#   * serve/estimate_uncached must beat serve/estimate_cached_hit by
#     ≥ BENCH_GATE_MIN_CACHE_SPEEDUP — the canonical-request cache
#     contract, likewise a pure ratio;
#   * sweep/context/scenario_uncontexted must beat
#     sweep/context/scenario_contexted by ≥ BENCH_GATE_MIN_SWEEP_SPEEDUP
#     — the hoisted-SweepContext contract (trace simulation, job traces
#     and catalogs built once per sweep, not once per row), a pure
#     ratio as well.
#
# Usage:
#   ci/bench_gate.sh            run the gate
#   ci/bench_gate.sh --update   rewrite ci/bench_baseline.json from this
#                               machine's run (commit the result)
#
# Knobs (env): BENCH_GATE_MAX_RATIO (default 1.30 = ±30%),
# BENCH_GATE_MIN_ARGMIN_SPEEDUP (default 10),
# BENCH_GATE_MIN_CACHE_SPEEDUP (default 5),
# BENCH_GATE_MIN_SWEEP_SPEEDUP (default 2), BENCH_GATE_OUT_DIR
# (default ci/out), BENCH_GATE_BASELINE (default ci/bench_baseline.json).
#
# Wall-clock baselines move with the host; refresh with --update when the
# CI runner class changes, and widen BENCH_GATE_MAX_RATIO rather than
# deleting the gate if a shared runner proves noisy.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_RATIO="${BENCH_GATE_MAX_RATIO:-1.30}"
MIN_SPEEDUP="${BENCH_GATE_MIN_ARGMIN_SPEEDUP:-10}"
MIN_CACHE_SPEEDUP="${BENCH_GATE_MIN_CACHE_SPEEDUP:-5}"
MIN_SWEEP_SPEEDUP="${BENCH_GATE_MIN_SWEEP_SPEEDUP:-2}"
OUT_DIR="${BENCH_GATE_OUT_DIR:-ci/out}"
BASELINE="${BENCH_GATE_BASELINE:-ci/bench_baseline.json}"
SUITES=(bench_window_index bench_sweep bench_serve bench_trace)
# Parallel-streaming timing scales with the host's core count, so it
# stays out of the committed baseline (an ERE over benchmark ids).
UNBASELINED="streaming/parallel"
BENCH_MANIFEST=crates/bench/Cargo.toml

# --- gate 0: every declared bench target is a gated suite ------------------
declared=$(awk '
    /^\[/ { in_bench = ($0 ~ /^\[\[bench\]\]/); next }
    in_bench && /^name *=/ { v = $0; sub(/^name *= *"/, "", v); sub(/".*$/, "", v); print v }
' "$BENCH_MANIFEST")
for target in $declared; do
    if [[ " ${SUITES[*]} " != *" $target "* ]]; then
        echo "FAIL: $BENCH_MANIFEST declares [[bench]] '$target', which is not in SUITES (gate it in ci/bench_gate.sh or delete it)"
        exit 1
    fi
done
echo "OK: every [[bench]] in $BENCH_MANIFEST is gated (${SUITES[*]})"
mkdir -p "$OUT_DIR"

# --- run one suite and emit its JSON ---------------------------------------
run_suite() { # $1 = bench target name (bench_foo -> BENCH_foo.json)
    local target="$1"
    local json="$OUT_DIR/BENCH_${target#bench_}.json"
    local raw="$OUT_DIR/${target}.out"
    echo "== running $target"
    cargo bench --bench "$target" 2>/dev/null | tee "$raw"
    awk '
        index($0, "/iter (median") {
            id = $1; value = $2; unit = $3
            ns = value
            if (unit == "\302\265s")  ns = value * 1e3
            else if (unit == "ms")    ns = value * 1e6
            else if (unit == "s")     ns = value * 1e9
            printf "    \"%s\": %.1f,\n", id, ns
        }
    ' "$raw" >"$raw.entries"
    {
        echo "{"
        echo "  \"suite\": \"$target\","
        echo "  \"unit\": \"ns_per_iter_median\","
        echo "  \"benchmarks\": {"
        sed '$ s/,$//' "$raw.entries"
        echo "  }"
        echo "}"
    } >"$json"
    rm -f "$raw.entries"
    echo "wrote $json"
}

# Print "name value" pairs from one of our flat JSON files.
extract() {
    awk -F'"' '/": [0-9]/ { v = $3; sub(/^: /, "", v); sub(/,.*$/, "", v); print $2, v }' "$1"
}

for suite in "${SUITES[@]}"; do
    run_suite "$suite"
done

# --- --update: rewrite the baseline from this run --------------------------
if [[ "${1:-}" == "--update" ]]; then
    {
        echo "{"
        echo "  \"schema\": \"hpcarbon-bench-baseline-v1\","
        echo "  \"unit\": \"ns_per_iter_median\","
        echo "  \"benchmarks\": {"
        for suite in "${SUITES[@]}"; do
            extract "$OUT_DIR/BENCH_${suite#bench_}.json"
        done | grep -Ev "$UNBASELINED" | awk '{ printf "    \"%s\": %s,\n", $1, $2 }' | sed '$ s/,$//'
        echo "  }"
        echo "}"
    } >"$BASELINE"
    echo "rewrote $BASELINE — review and commit it"
    exit 0
fi

# --- gate 1: the indexed-argmin speedup contract ---------------------------
fail=0
naive=$(extract "$OUT_DIR/BENCH_window_index.json" | awk '$1 == "window_index/argmin_naive" { print $2 }')
indexed=$(extract "$OUT_DIR/BENCH_window_index.json" | awk '$1 == "window_index/argmin_indexed" { print $2 }')
if [[ -z "$naive" || -z "$indexed" ]]; then
    echo "FAIL: argmin benchmarks missing from BENCH_window_index.json"
    fail=1
else
    speedup=$(awk -v n="$naive" -v i="$indexed" 'BEGIN { printf "%.1f", n / i }')
    if awk -v s="$speedup" -v m="$MIN_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: indexed argmin speedup ${speedup}x < required ${MIN_SPEEDUP}x"
        fail=1
    else
        echo "OK: indexed argmin beats the naive scan by ${speedup}x (>= ${MIN_SPEEDUP}x)"
    fi
fi

# --- gate 1b: the canonical-cache speedup contract -------------------------
uncached=$(extract "$OUT_DIR/BENCH_serve.json" | awk '$1 == "serve/estimate_uncached" { print $2 }')
cached=$(extract "$OUT_DIR/BENCH_serve.json" | awk '$1 == "serve/estimate_cached_hit" { print $2 }')
if [[ -z "$uncached" || -z "$cached" ]]; then
    echo "FAIL: serve cached/uncached benchmarks missing from BENCH_serve.json"
    fail=1
else
    cache_speedup=$(awk -v u="$uncached" -v c="$cached" 'BEGIN { printf "%.1f", u / c }')
    if awk -v s="$cache_speedup" -v m="$MIN_CACHE_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: cache-hit speedup ${cache_speedup}x < required ${MIN_CACHE_SPEEDUP}x"
        fail=1
    else
        echo "OK: cached estimates beat uncached by ${cache_speedup}x (>= ${MIN_CACHE_SPEEDUP}x)"
    fi
fi

# --- gate 1c: the hoisted-SweepContext speedup contract --------------------
uncontexted=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sweep/context/scenario_uncontexted" { print $2 }')
contexted=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sweep/context/scenario_contexted" { print $2 }')
if [[ -z "$uncontexted" || -z "$contexted" ]]; then
    echo "FAIL: sweep context benchmarks missing from BENCH_sweep.json"
    fail=1
else
    sweep_speedup=$(awk -v u="$uncontexted" -v c="$contexted" 'BEGIN { printf "%.1f", u / c }')
    if awk -v s="$sweep_speedup" -v m="$MIN_SWEEP_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: hoisted-context speedup ${sweep_speedup}x < required ${MIN_SWEEP_SPEEDUP}x"
        fail=1
    else
        echo "OK: contexted scenarios beat uncontexted by ${sweep_speedup}x (>= ${MIN_SWEEP_SPEEDUP}x)"
    fi
fi

# --- gate 2: run ids match baseline ids, each within ±30% of its baseline --
if [[ ! -f "$BASELINE" ]]; then
    echo "FAIL: no baseline at $BASELINE (run ci/bench_gate.sh --update and commit it)"
    exit 1
fi
while read -r name base; do
    cur=""
    for suite in "${SUITES[@]}"; do
        v=$(extract "$OUT_DIR/BENCH_${suite#bench_}.json" | awk -v n="$name" '$1 == n { print $2 }')
        [[ -n "$v" ]] && cur="$v"
    done
    if [[ -z "$cur" ]]; then
        echo "FAIL: baseline benchmark '$name' missing from the current run"
        fail=1
        continue
    fi
    ratio=$(awk -v c="$cur" -v b="$base" 'BEGIN { printf "%.2f", c / b }')
    if awk -v c="$cur" -v b="$base" -v t="$MAX_RATIO" 'BEGIN { exit !(c > b * t) }'; then
        echo "FAIL: $name regressed ${ratio}x vs baseline (${cur} ns vs ${base} ns, limit ${MAX_RATIO}x)"
        fail=1
    elif awk -v c="$cur" -v b="$base" -v t="$MAX_RATIO" 'BEGIN { exit !(c * t < b) }'; then
        echo "note: $name sped up to ${ratio}x of baseline — consider ci/bench_gate.sh --update"
    else
        echo "ok: $name ${ratio}x of baseline (${cur} ns vs ${base} ns)"
    fi
done < <(extract "$BASELINE")
while read -r name _; do
    [[ "$name" =~ $UNBASELINED ]] && continue
    if ! extract "$BASELINE" | awk -v n="$name" '$1 == n { found = 1 } END { exit !found }'; then
        echo "FAIL: benchmark '$name' has no entry in $BASELINE (add it with --update, or delete the benchmark)"
        fail=1
    fi
done < <(for suite in "${SUITES[@]}"; do extract "$OUT_DIR/BENCH_${suite#bench_}.json"; done)

if [[ "$fail" -ne 0 ]]; then
    echo "bench gate: FAILED"
    exit 1
fi
echo "bench gate: green"
