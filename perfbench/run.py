#!/usr/bin/env python3
"""Build and run the spidey benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the spidey
sources one directory up) under .bench_build/ -- or under $CARGO_TARGET_DIR
when that is set -- and later runs rebuild incrementally. The load
generator then runs the workload for S seconds and prints, as its last
stdout line, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 it also writes a Chrome trace-event file under
<build root>/perfbench-traces/.

Exit status: the load generator's (0 on a completed run); non-zero without
a result line when the build fails, the sources are missing, or the run
does not finish within 170 seconds.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-batch", "edit-loop", "multi-tenant")
RUN_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "spidey_bench", "spidey-serve"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "spidey_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "spidey-serve"),
           "--work-dir", os.path.relpath(os.path.join(root, "perfbench-work"),
                                         ROOT)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            root, "perfbench-traces",
            "%s-seed%d.json" % (args.workload, args.seed))]
    # A session of its own, so a timeout takes the spidey-serve daemon the
    # load generator started down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        # No result line on a failed run: drop whatever was printed.
        sys.stderr.write(out)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
