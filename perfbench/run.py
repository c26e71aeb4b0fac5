#!/usr/bin/env python3
"""Build and run the smtsim end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source
(Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; an up-to-date build is a no-op. The last line
of standard output is the result object; build output goes to
standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-grid", "manycore-remote", "serve-mixed")
# A run must end within 180 s; stop the benchmark binary a little
# before that so its daemon and workers are reaped in time.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def run_build_step(cmd):
    """Run a build step with its output on stderr."""
    subprocess.run(cmd, check=True, stdout=sys.stderr)


def build(bdir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no smtsim sources next to perfbench/ "
                         "(src/CMakeLists.txt is missing)")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_build_step(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", bdir, "--parallel", jobs,
                    "--target"] + targets)


def run_binary(cmd):
    """Run a built binary, forwarding SIGINT/SIGTERM; return its code."""
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s, stopping it"
              % RUN_TIMEOUT_S, file=sys.stderr)
        child.terminate()
        try:
            child.wait(timeout=8)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        if args.self_test:
            build(bdir, ["perfbench_tests"])
            return run_binary([os.path.join(bdir, "perfbench_tests")])
        if args.workload is None:
            ap.error("--workload is required")
        build(bdir, ["perfbench", "smtsim-serve"])
    except subprocess.CalledProcessError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    return run_binary([
        os.path.join(bdir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ])


if __name__ == "__main__":
    sys.exit(main())
