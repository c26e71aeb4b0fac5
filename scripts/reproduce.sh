#!/usr/bin/env bash
# Reproduce every experiment: build, run the full test suite, and
# regenerate all tables/figures into results/.
#
# The grid-sweep benches (Table 2/3, utilization) run their points
# in parallel through the smtsim::lab engine and reuse cached
# results across reruns; see scripts/sweep_tables.sh for the
# sweep-only fast path and docs/LAB.md for the engine.
set -euo pipefail
cd "$(dirname "$0")/.."

# Resumable result cache for the lab-driven benches: a re-run after
# an interruption only simulates the missing grid points.
export SMTSIM_LAB_CACHE_DIR=${SMTSIM_LAB_CACHE_DIR:-.smtsim-cache}

cmake -B build -G Ninja
cmake --build build

echo "=== tests ==="
ctest --test-dir build --output-on-failure -j "$(nproc)"

mkdir -p results
echo "=== benches ==="
for b in build/bench/bench_*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    # Host-speed checks, not experiments: they refuse any build but
    # Release (docs/PERF.md).
    case $name in
        bench_simspeed|bench_manycore|bench_serve) continue ;;
    esac
    echo "--- $name"
    "$b" | tee "results/$name.txt"
done

echo
echo "All outputs written to results/. Compare with EXPERIMENTS.md."
