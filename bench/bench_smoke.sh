#!/bin/sh
# bench_smoke — ctest gate over the benchmark JSON pipeline.
#
#   bench_smoke.sh BENCH_BIN_DIR BASELINE_DIR
#
# Runs each scaling bench tiny with --json into a scratch dir, validates
# every produced BENCH_*.json against its schema, then runs bench_compare:
# the deterministic weak/strong-scaling outputs against the committed
# baselines (loose tolerance: the records are pure model arithmetic, but
# keep headroom for FP reassociation across compilers), plus two
# self-checks of the gate itself (identical inputs pass; a perturbed metric
# beyond tolerance fails). bench_observers is the observer-overhead gate:
# it exits nonzero when a gated observer takes more than 1% of the lwfa_mr
# step, which fails this script. Its shares are host timing, so it has no
# baseline.
set -eu

bindir=$1
basedir=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== run benches (--json) into $tmp"
"$bindir/bench_weak_scaling" --json --attribution --outdir "$tmp" > /dev/null
"$bindir/bench_strong_scaling" --json --attribution --outdir "$tmp" > /dev/null
"$bindir/bench_resilience" --json --outdir "$tmp" > /dev/null
"$bindir/bench_observers" --json --outdir "$tmp"
"$bindir/bench_mr_savings" --json --quick --outdir "$tmp" > /dev/null
"$bindir/bench_kernels" --json --quick --outdir "$tmp" > /dev/null

for f in "$tmp"/BENCH_*.json; do
  [ -s "$f" ] || { echo "FAIL: $f missing or empty"; exit 1; }
done

echo "== schema validation"
"$bindir/bench_compare" --schema "$tmp"/BENCH_*.json

echo "== compare deterministic benches against baselines"
# bench_kernels and bench_observers are host timing, schema-checked only above.
"$bindir/bench_compare" --rel-tol 0.02 \
    "$basedir/BENCH_weak_scaling.json" "$tmp/BENCH_weak_scaling.json"
"$bindir/bench_compare" --rel-tol 0.02 \
    "$basedir/BENCH_strong_scaling.json" "$tmp/BENCH_strong_scaling.json"
"$bindir/bench_compare" --rel-tol 0.02 \
    "$basedir/BENCH_resilience.json" "$tmp/BENCH_resilience.json"
# bench_mr_savings --json: pure arithmetic of the analytic memory model.
"$bindir/bench_compare" --rel-tol 1e-6 \
    "$basedir/BENCH_mr_savings.json" "$tmp/BENCH_mr_savings.json"
# The attribution output is pure arithmetic over the same recorder sweep, so
# it is held to a much tighter tolerance; the invariant-gap metrics sit at
# FP-epsilon scale and are gated by the test suite instead.
"$bindir/bench_compare" --rel-tol 1e-6 --ignore invariant_gap \
    "$basedir/BENCH_attribution.json" "$tmp/BENCH_attribution.json"

echo "== append run to a scratch copy of the bench-history ledger"
# Cross-run perf trajectory (obs::bench_history): one schema-tagged JSONL
# record per BENCH_*.json of this run, appended to a copy of the committed
# ledger in the scratch dir, then the trend over recent entries. The
# committed ledger changes only through an explicit `bench_trend --append`,
# so this gate leaves the source tree untouched. This runs before the
# self-checks below so their perturbed scratch file never reaches the ledger.
ledger="$tmp/BENCH_history.jsonl"
committed="$basedir/../history/BENCH_history.jsonl"
if [ -f "$committed" ]; then cp "$committed" "$ledger"; fi
"$bindir/bench_trend" --append "$ledger" "$tmp"/BENCH_*.json
"$bindir/bench_trend" "$ledger" --last 5
# --csv self-check: same window as flat CSV; the header plus at least one
# data row must come out, and every row must have the 5 columns.
csv_rows=$("$bindir/bench_trend" "$ledger" --last 5 --csv \
    | awk -F, 'NF != 5 { exit 1 } END { print NR }') \
    || { echo "FAIL: bench_trend --csv produced a malformed row"; exit 1; }
[ "$csv_rows" -ge 2 ] || { echo "FAIL: bench_trend --csv produced no data rows"; exit 1; }

echo "== gate self-checks"
"$bindir/bench_compare" "$tmp/BENCH_weak_scaling.json" "$tmp/BENCH_weak_scaling.json" \
    > /dev/null || { echo "FAIL: identical inputs must pass"; exit 1; }
# Perturb one numeric metric by 10x; the gate must now fail.
sed 's/"efficiency": *\([0-9]\)/"efficiency": 9\1/' \
    "$tmp/BENCH_weak_scaling.json" > "$tmp/BENCH_perturbed.json"
if "$bindir/bench_compare" "$tmp/BENCH_weak_scaling.json" "$tmp/BENCH_perturbed.json" \
    > /dev/null 2>&1; then
  echo "FAIL: perturbed input must trip the gate"
  exit 1
fi

echo "bench_smoke: OK"
