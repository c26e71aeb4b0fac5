# Shared guards for the google-benchmark scripts (bench_simspeed.sh,
# bench_manycore.sh, bench_lint.sh, bench_serve.sh). Source it:
#
#   . "$(dirname "$0")/bench_guard.sh"
#
# bench_require_release BUILD TARGET WHAT
#   Refuse a build directory whose CMAKE_BUILD_TYPE is not Release:
#   the benchmark binary cannot tell how the library it links was
#   compiled, so the type is read straight out of the CMake cache.
#   Sets bench_build_type. WHAT names the numbers in the error
#   message ("simulator-throughput", ...).
#
# bench_stamp_flag
#   The --benchmark_context flag that records bench_build_type in
#   the emitted JSON under smtsim_build_type. (google-benchmark
#   writes its own library_build_type, which describes how
#   libbenchmark was compiled, not this project.)
#
# bench_check_stamp OUT
#   Load OUT rejecting duplicate object keys and require
#   context.smtsim_build_type == "Release", so any artifact handed
#   downstream carries exactly one, checked, build-type stamp.

bench_require_release() {
    _build=$1
    _target=$2
    _what=$3
    if [ ! -f "$_build/CMakeCache.txt" ]; then
        echo "bench guard: $_build/CMakeCache.txt not found" \
             "(not a CMake build dir?)" >&2
        exit 1
    fi
    bench_build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
        "$_build/CMakeCache.txt")
    if [ "$bench_build_type" != "Release" ]; then
        echo "bench guard: $_build is a" \
             "'${bench_build_type:-<unset>}' build; $_what numbers" \
             "are only meaningful from a Release build:" >&2
        echo "    cmake -B build-release -DCMAKE_BUILD_TYPE=Release &&" \
             "cmake --build build-release --target $_target" >&2
        exit 1
    fi
}

bench_stamp_flag() {
    echo "--benchmark_context=smtsim_build_type=$bench_build_type"
}

bench_check_stamp() {
    python3 - "$1" <<'EOF'
import json
import sys


def unique_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


out = sys.argv[1]
try:
    with open(out) as f:
        doc = json.load(f, object_pairs_hook=unique_keys)
except ValueError as err:
    sys.exit(f"bench guard: {out}: {err}")
stamp = doc.get("context", {}).get("smtsim_build_type")
if stamp != "Release":
    sys.exit(f"bench guard: {out} context.smtsim_build_type is "
             f"{stamp!r}, expected 'Release'")
EOF
}
