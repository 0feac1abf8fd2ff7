#!/usr/bin/env python3
"""CI perf-smoke gate: compare bench_parallel --json output against the
checked-in throughput floors in perf_floor.json.

Usage: check_perf_floor.py <bench_parallel.json> <perf_floor.json> \
           [bench_query.json]

Fails (exit 1) when a program's derive throughput at the pinned thread
count has regressed more than `regression_factor` times below its
floor, and likewise for the combined close's throughput when the floor
entry carries `close_constraints_per_sec_floor` (the same row's
`combined_constraints / close_ms`). The floor file deliberately sits
far under a healthy run so the gate only trips on algorithmic
regressions, not runner noise.

When bench_query.json is given, the floor file's `query` block is also
enforced: warm memoized flow must beat the FlowGraph-rebuild baseline by
at least `flow_speedup_floor` (the acceptance bar — no extra allowance;
healthy runs clear it by orders of magnitude), the first flow of a new
analysis generation must take at most `first_flow_baseline_ratio` x
`regression_factor` times that baseline, the edit-sweep must re-check
exactly `rechecked_after_edit` components, and every payload must have
matched the reference analyzer.
"""

import json
import sys


def check_query(results: dict, floors: dict) -> bool:
    """Gates bench_query output; returns True when something failed."""
    failed = False
    factor = float(floors.get("regression_factor", 2.0))
    by_name = {p["name"]: p for p in results.get("programs", [])}
    for name, floor in floors.get("query", {}).get("programs", {}).items():
        prog = by_name.get(name)
        if prog is None:
            print(f"FAIL query {name}: missing from benchmark output")
            failed = True
            continue
        speedup = prog.get("flow_speedup", 0.0)
        speedup_floor = floor.get("flow_speedup_floor", 0.0)
        verdict = "FAIL" if speedup < speedup_floor else "OK"
        print(
            f"{verdict} query {name}: warm flow {speedup:.0f}x faster than "
            f"FlowGraph rebuild (floor {speedup_floor}x)"
        )
        failed = failed or speedup < speedup_floor
        ratio = floor.get("first_flow_baseline_ratio")
        if ratio is not None:
            first = prog.get("first_flow_ms")
            baseline = prog.get("baseline_flow_ms", 0.0)
            limit = ratio * factor * baseline
            over = first is None or first > limit
            print(
                f"{'FAIL' if over else 'OK'} query {name}: first flow of a "
                f"generation {first} ms (at most {limit:.3f} ms: "
                f"{ratio} x {factor} x FlowGraph rebuild {baseline:.3f} ms)"
            )
            failed = failed or over
        want = floor.get("rechecked_after_edit")
        if want is not None:
            got = prog.get("rechecked_after_edit")
            rverdict = "FAIL" if got != want else "OK"
            print(
                f"{rverdict} query {name}: edit sweep re-checked {got} "
                f"component(s) (must be exactly {want})"
            )
            failed = failed or got != want
        if not prog.get("answers_match", False):
            print(f"FAIL query {name}: payload diverged from reference")
            failed = True
    return failed


def main() -> int:
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        results = json.load(f)
    with open(sys.argv[2]) as f:
        floors = json.load(f)

    factor = float(floors.get("regression_factor", 2.0))
    by_name = {p["name"]: p for p in results.get("programs", [])}
    failed = False
    for name, floor in floors["programs"].items():
        prog = by_name.get(name)
        if prog is None:
            print(f"FAIL {name}: missing from benchmark output")
            failed = True
            continue
        threads = floor["threads"]
        run = next((r for r in prog["runs"] if r["threads"] == threads), None)
        if run is None:
            print(f"FAIL {name}: no run at threads={threads}")
            failed = True
            continue
        cps = run["constraints_per_sec"]
        minimum = floor["constraints_per_sec_floor"] / factor
        verdict = "FAIL" if cps < minimum else "OK"
        print(
            f"{verdict} {name} threads={threads}: "
            f"{cps:.0f} constraints/sec "
            f"(floor {floor['constraints_per_sec_floor']}, "
            f"minimum after {factor}x allowance {minimum:.0f})"
        )
        failed = failed or cps < minimum
        close_floor = floor.get("close_constraints_per_sec_floor")
        if close_floor is not None:
            close_ms = run["close_ms"]
            ccps = (
                run["combined_constraints"] / (close_ms / 1000.0)
                if close_ms > 0
                else float("inf")
            )
            cmin = close_floor / factor
            cverdict = "FAIL" if ccps < cmin else "OK"
            print(
                f"{cverdict} {name} close threads={threads}: "
                f"{ccps:.0f} constraints/sec "
                f"(floor {close_floor}, "
                f"minimum after {factor}x allowance {cmin:.0f})"
            )
            failed = failed or ccps < cmin
        if not prog.get("deterministic_across_threads", True):
            print(f"FAIL {name}: combined system differed across threads")
            failed = True
    if len(sys.argv) == 4:
        with open(sys.argv[3]) as f:
            query_results = json.load(f)
        failed = check_query(query_results, floors) or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
