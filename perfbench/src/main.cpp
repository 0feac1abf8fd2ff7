//===-- perfbench/src/main.cpp - Benchmark entry point ---------*- C++ -*-===//
///
/// \file
///   spidey_bench --workload cold-batch|edit-loop|multi-tenant --seed N
///                --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
///                [--trace-out FILE]
///
/// Runs one workload for S seconds on the program generated from seed N,
/// checks every answer, and prints as its last stdout line one JSON object
/// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
/// --trace 0, the per-layer metrics of the traced replay with --trace 1.
/// Exit code 0 on a completed run (correct or not), 1 on a run that could
/// not complete, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr, "spidey_bench: %s\n", Msg);
  return 2;
}

void printResult(const RunResult &Res) {
  for (const std::string &Note : Res.Notes)
    std::printf("# %s\n", Note.c_str());
  if (!Res.Error.empty())
    std::printf("# first failure: %s\n", Res.Error.c_str());
  for (const auto &[Name, M] : Res.Metrics)
    std::printf("# %-32s %14.4f %s\n", Name.c_str(), M.Value, M.Unit.c_str());
  spidey::json::Value Metrics = spidey::json::Value::object();
  for (const auto &[Name, M] : Res.Metrics) {
    spidey::json::Value V = spidey::json::Value::object();
    V.set("value", M.Value);
    V.set("unit", M.Unit);
    Metrics.set(Name, std::move(V));
  }
  spidey::json::Value Line = spidey::json::Value::object();
  Line.set("correct", Res.Correct && Res.Failed == 0);
  Line.set("attempted", Res.Attempted);
  Line.set("failed", Res.Failed);
  Line.set("metrics", std::move(Metrics));
  std::printf("%s\n", Line.dump().c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *V = Argv[++I];
    if (Arg == "--workload")
      O.Workload = V;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::atof(V);
    else if (Arg == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (Arg == "--serve-bin")
      O.ServeBin = V;
    else if (Arg == "--work-dir")
      O.WorkDir = V;
    else if (Arg == "--trace-out")
      O.TraceOut = V;
    else
      return usage(("unknown option " + Arg).c_str());
  }
  if (O.Seconds <= 0 || O.WorkDir.empty())
    return usage("need --seconds > 0 and --work-dir");

  try {
    UntracedRun Run;
    if (O.Workload == "cold-batch")
      Run = runColdBatch(O);
    else if (O.Workload == "edit-loop")
      Run = runEditLoop(O);
    else if (O.Workload == "multi-tenant")
      Run = runMultiTenant(O);
    else
      return usage(("unknown workload " + O.Workload).c_str());
    if (!O.Trace) {
      printResult(Run.Result);
      return 0;
    }
    RunResult Traced = runTraced(O, Run);
    printResult(Traced);
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "spidey_bench: %s\n", E.what());
    return 1;
  }
}
