#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds 2]

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts that each run exits 0 with a well-formed last line; that every
end-to-end metric (untraced) and every per-layer metric (traced) prints
with its declared unit; that fail_ratio is 0 (no request failed, came
back degraded or gave a wrong answer); and that the same seed gives the
same program and request trace on both runs. Exit status 0 when all hold.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)
            print("FAIL: " + what, flush=True)

    for w in bench["workloads"]:
        name = w["name"]
        identity = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s --trace %d" % (name, trace)
            code, out = run(name, args.seed, args.seconds, trace)
            check(code == 0, "%s exited %d" % (tag, code))
            if code != 0:
                continue
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], tag + ": result keys")
            check(result["correct"] is True, tag + ": correct is false")
            check(result["attempted"] >= 1, tag + ": nothing attempted")
            check(result["failed"] == 0, tag + ": fail_ratio is not 0")
            check(any(re.search(r"fail_ratio 0\.000000 ratio", l)
                      for l in lines), tag + ": fail_ratio line missing")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            check(set(got) == set(want), "%s: metrics %s" % (
                tag, sorted(set(got) ^ set(want))))
            for metric, unit in want.items():
                if metric in got:
                    check(got[metric]["unit"] == unit,
                          "%s: %s unit %s" % (tag, metric, got[metric]["unit"]))
            for l in lines:
                m = re.search(r"program ([0-9a-f]+), first-16-iteration "
                              r"trace ([0-9a-f]+)", l)
                if m:
                    identity[trace] = m.groups()
            print("ok: %s (%d requests)" % (tag, result["attempted"]),
                  flush=True)
        check(len(identity) == 2 and identity[0] == identity[1],
              "%s: program/trace identity differs between runs: %s" %
              (name, identity))
    if failures:
        print("%d smoke check(s) failed" % len(failures))
        return 1
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
