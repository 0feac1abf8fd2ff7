#!/usr/bin/env bash
# Runs every paper-table benchmark binary, then writes two artifacts at
# the repository root:
#
#   BENCH_componential.json  from bench_parallel's JSON output
#   BENCH_closure.json       from bench_closure's (google-benchmark)
#                            JSON output plus bench_parallel's per-run
#                            ClosureStats telemetry
#   BENCH_serve.json         from bench_serve's JSON output (cold analyze
#                            vs warm single-component edit latency)
#   BENCH_query.json         from bench_query's JSON output (demand-driven
#                            flow & check queries vs whole-system rebuild)
#
# Each emitted file has a "before" section (measured once on the
# reference machine at the commit preceding the respective optimisation
# and kept for comparison) and an "after" section refreshed from the
# current build. Set SPIDEY_BENCH_BEFORE / SPIDEY_CLOSURE_BEFORE to a
# JSON file to substitute different baseline numbers.
#
# Every bench runs even if an earlier one fails; the script exits
# non-zero if any of them did, naming the failures.

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
OUT="$REPO_ROOT/BENCH_componential.json"
OUT_CLOSURE="$REPO_ROOT/BENCH_closure.json"
OUT_SERVE="$REPO_ROOT/BENCH_serve.json"
OUT_QUERY="$REPO_ROOT/BENCH_query.json"
TMP_AFTER="$(mktemp)"
TMP_CLOSURE="$(mktemp)"
TMP_SERVE="$(mktemp)"
TMP_QUERY="$(mktemp)"
trap 'rm -f "$TMP_AFTER" "$TMP_CLOSURE" "$TMP_SERVE" "$TMP_QUERY"' EXIT

BENCHES=(bench_simplify bench_componential bench_polymorphic bench_checks
         bench_ablation bench_closure bench_parallel bench_serve bench_query)

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" > /dev/null || exit 1
cmake --build "$BUILD_DIR" -j --target "${BENCHES[@]}" > /dev/null || exit 1

FAILED=()
for BENCH in "${BENCHES[@]}"; do
  echo "== $BENCH =="
  if [ "$BENCH" = bench_parallel ]; then
    "$BUILD_DIR/bench/$BENCH" --json > "$TMP_AFTER" || FAILED+=("$BENCH")
  elif [ "$BENCH" = bench_closure ]; then
    "$BUILD_DIR/bench/$BENCH" --benchmark_format=json \
      --benchmark_min_time=0.2 > "$TMP_CLOSURE" || FAILED+=("$BENCH")
  elif [ "$BENCH" = bench_serve ]; then
    "$BUILD_DIR/bench/$BENCH" --json > "$TMP_SERVE" || FAILED+=("$BENCH")
  elif [ "$BENCH" = bench_query ]; then
    "$BUILD_DIR/bench/$BENCH" --json > "$TMP_QUERY" || FAILED+=("$BENCH")
  else
    "$BUILD_DIR/bench/$BENCH" || FAILED+=("$BENCH")
  fi
done

if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "FAILED: ${FAILED[*]}" >&2
  exit 1
fi

python3 - "$OUT" "$TMP_AFTER" "${SPIDEY_BENCH_BEFORE:-}" <<'EOF' || exit 1
import json, os, sys

out, after_path, before_path = sys.argv[1], sys.argv[2], sys.argv[3]
after = json.load(open(after_path))

before = None
if before_path:
    before = json.load(open(before_path))
elif os.path.exists(out):
    # Keep the committed baseline section when refreshing the numbers.
    before = json.load(open(out)).get("before")

doc = {
    "description": "Componential analysis wall time before/after the "
                   "parallel worker pool + cache-friendly constraint core "
                   "(cache disabled; best of 3). Thread rows above "
                   "hardware_concurrency measure oversubscription only: "
                   "speedup<1 on a 1-core runner is expected",
    "before": before,
    "after": after,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF

python3 - "$OUT_CLOSURE" "$TMP_CLOSURE" "$TMP_AFTER" \
    "${SPIDEY_CLOSURE_BEFORE:-}" <<'EOF' || exit 1
import json, os, sys

out, closure_path, parallel_path, before_path = sys.argv[1:5]
micro = json.load(open(closure_path))
par = json.load(open(parallel_path))

# bench_closure micro timings (iteration rows only; BigO/RMS aggregates
# are derived and machine-dependent, so they stay out of the artifact).
micro_rows = []
for b in micro.get("benchmarks", []):
    if b.get("run_type") != "iteration":
        continue
    row = {"name": b["name"], "real_ms": round(b["real_time"] / 1e6, 3)}
    if "constraints" in b:
        row["constraints"] = int(b["constraints"])
    micro_rows.append(row)

# The componential view: threads=1 per program (the closure engine's own
# cost, no worker-pool effects), wall time + throughput + telemetry.
comp_rows = []
for prog in par.get("programs", []):
    run = next((r for r in prog["runs"] if r["threads"] == 1), None)
    if run is None:
        continue
    row = {
        "program": prog["name"],
        "wall_ms": run["wall_ms"],
        "constraints_per_sec": run["constraints_per_sec"],
        "combined_constraints": run["combined_constraints"],
    }
    for k in ("derive_ms", "merge_ms", "close_ms", "stats"):
        if k in run:
            row[k] = run[k]
    comp_rows.append(row)

before = None
if before_path:
    before = json.load(open(before_path))
elif os.path.exists(out):
    before = json.load(open(out)).get("before")

doc = {
    "description": "Closure engine v2 (online ε-cycle collapsing, "
                   "indexed combine, exactly-once pair drain) plus the "
                   "dense grammar/ε-removal rewrite: bench_closure "
                   "micro timings and the threads=1 componential runs, "
                   "before (fa589e3) vs. after",
    "before": before,
    "after": {"micro": micro_rows, "componential": comp_rows},
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF

python3 - "$OUT_QUERY" "$TMP_QUERY" <<'EOF' || exit 1
import json, sys

out, query_path = sys.argv[1], sys.argv[2]
after = json.load(open(query_path))

doc = {
    "description": "Demand-driven flow & check queries (DESIGN.md 12): "
                   "per-request FlowGraph rebuild baseline vs the "
                   "persistent FlowIndex (cold build, the first flow of "
                   "a new analysis generation, first-walk, and memoized "
                   "warm flow latency) and the check-summary "
                   "sweep cold vs after a one-component probe edit "
                   "(rechecked/reused counts; payloads verified against "
                   "a reference analyzer as they are timed; best of N "
                   "repeats)",
    "after": after,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF

python3 - "$OUT_SERVE" "$TMP_SERVE" <<'EOF' || exit 1
import json, sys

out, serve_path = sys.argv[1], sys.argv[2]
after = json.load(open(serve_path))

doc = {
    "description": "spidey-serve incremental re-analysis: cold "
                   "whole-program analyze vs warm single-component edit "
                   "latency (in-memory constraint store; "
                   "byte_identical asserts the warm combined system "
                   "equals a cold run; best of N repeats)",
    "after": after,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF
