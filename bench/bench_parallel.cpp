//===-- bench/bench_parallel.cpp - Parallel componential scaling -*- C++ -*-===//
///
/// \file
/// Measures the parallel componential analysis (§7.1 step 1 fanned out
/// across a worker pool) on multi-component corpus programs: wall time,
/// derived constraints per second, and maximum constraint-system size per
/// thread count, plus the speedup relative to one thread.
///
/// With --json the numbers are emitted as machine-readable JSON (consumed
/// by bench/run_benches.sh to produce BENCH_componential.json). The
/// constraint-file cache is disabled throughout so every run measures the
/// full derive+close+simplify pipeline.
///
//===----------------------------------------------------------------------===//

#include "bench_util.h"

#include "componential/componential.h"
#include "componential/parallel.h"
#include "corpus/corpus.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

using namespace spidey;
using namespace spidey::bench;

namespace {

struct Run {
  unsigned Threads = 1;
  double WallMs = 0;
  double ConstraintsPerSec = 0;
  size_t MaxConstraints = 0;
  size_t CombinedConstraints = 0;
  double Speedup = 1.0;
  ComponentialRunInfo Info; ///< solver telemetry of the best repeat
};

struct ProgramResult {
  std::string Name;
  size_t Components = 0;
  size_t Lines = 0;
  std::vector<Run> Runs;
  bool Deterministic = true;
};

constexpr int Repeats = 3;

ProgramResult benchProgram(const char *Name,
                           const std::vector<unsigned> &ThreadCounts) {
  std::vector<SourceFile> Files = generateProgram(benchmarkConfig(Name));
  Program P = parseOrDie(Files);

  ProgramResult Result;
  Result.Name = Name;
  Result.Components = P.Components.size();
  Result.Lines = lineCount(Files);

  std::string Reference;
  for (unsigned Threads : ThreadCounts) {
    Run R;
    R.Threads = Threads;
    R.WallMs = 1e300;
    for (int Rep = 0; Rep < Repeats; ++Rep) {
      ComponentialOptions Opts;
      Opts.Threads = Threads;
      ComponentialAnalyzer CA(P, Opts);
      double Ms = timeMs([&] { CA.run(); });
      if (Ms < R.WallMs) {
        R.WallMs = Ms;
        size_t Raw = 0;
        for (const ComponentRunStats &CS : CA.componentStats())
          Raw += CS.RawConstraints;
        R.ConstraintsPerSec = Ms > 0 ? Raw / (Ms / 1000.0) : 0;
        R.MaxConstraints = CA.maxConstraints();
        R.CombinedConstraints = CA.combined().size();
        R.Info = CA.runInfo();
      }
      if (Rep == 0) {
        // The combined system must be identical for every thread count.
        std::string Str = CA.combined().str();
        if (Reference.empty())
          Reference = std::move(Str);
        else if (Str != Reference)
          Result.Deterministic = false;
      }
    }
    R.Speedup =
        Result.Runs.empty() ? 1.0 : Result.Runs.front().WallMs / R.WallMs;
    Result.Runs.push_back(R);
  }
  return Result;
}

void printTable(const ProgramResult &R) {
  std::printf("-- %s: %zu lines, %zu components --\n", R.Name.c_str(),
              R.Lines, R.Components);
  std::printf("  %8s %10s %16s %12s %10s\n", "threads", "wall ms",
              "constraints/s", "max constr", "speedup");
  for (const Run &Run : R.Runs)
    std::printf("  %8u %10.1f %16.0f %12zu %9.2fx\n", Run.Threads,
                Run.WallMs, Run.ConstraintsPerSec, Run.MaxConstraints,
                Run.Speedup);
  if (!R.Runs.empty()) {
    const ComponentialRunInfo &Info = R.Runs.front().Info;
    std::printf("  phases (1 thread): derive %.1f ms, merge %.1f ms, "
                "close %.1f ms\n",
                Info.DeriveMs, Info.MergeMs, Info.CloseMs);
    std::printf("%s", Info.Closure.str().c_str());
  }
  if (!R.Deterministic)
    std::printf("  !! combined system differed across thread counts\n");
  std::printf("\n");
}

void printJson(const std::vector<ProgramResult> &Results) {
  std::printf("{\n");
  std::printf("  \"benchmark\": \"componential-parallel\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              WorkerPool::defaultThreadCount());
  std::printf("  \"repeats\": %d,\n", Repeats);
  std::printf("  \"programs\": [\n");
  for (size_t I = 0; I < Results.size(); ++I) {
    const ProgramResult &R = Results[I];
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", R.Name.c_str());
    std::printf("      \"components\": %zu,\n", R.Components);
    std::printf("      \"lines\": %zu,\n", R.Lines);
    std::printf("      \"deterministic_across_threads\": %s,\n",
                R.Deterministic ? "true" : "false");
    std::printf("      \"runs\": [\n");
    for (size_t J = 0; J < R.Runs.size(); ++J) {
      const Run &Run = R.Runs[J];
      const ClosureStats &CS = Run.Info.Closure;
      std::printf(
          "        {\"threads\": %u, \"wall_ms\": %.2f, "
          "\"constraints_per_sec\": %.0f, \"max_constraints\": %zu, "
          "\"combined_constraints\": %zu, \"speedup\": %.3f,\n"
          "         \"derive_ms\": %.2f, \"merge_ms\": %.2f, "
          "\"close_ms\": %.2f,\n"
          "         \"stats\": {\"tasks_drained\": %llu, "
          "\"combines_attempted\": %llu, \"combines_inserted\": %llu, "
          "\"dedup_hits\": %llu, \"dedup_hit_rate\": %.4f, "
          "\"eps_edges\": %llu, \"eps_sccs_collapsed\": %llu, "
          "\"vars_unified\": %llu, \"cycle_search_steps\": %llu, "
          "\"peak_worklist_depth\": %llu},\n"
          "         \"derive\": {\"schemas\": %llu, "
          "\"instantiations\": %llu, \"instantiated_constraints\": %llu, "
          "\"intern_hits\": %llu, \"bulk_cloned_constraints\": %llu}}%s\n",
          Run.Threads, Run.WallMs, Run.ConstraintsPerSec, Run.MaxConstraints,
          Run.CombinedConstraints, Run.Speedup, Run.Info.DeriveMs,
          Run.Info.MergeMs, Run.Info.CloseMs,
          (unsigned long long)CS.TasksDrained,
          (unsigned long long)CS.CombinesAttempted,
          (unsigned long long)CS.CombinesInserted,
          (unsigned long long)CS.DedupHits, CS.dedupHitRate(),
          (unsigned long long)CS.EpsEdges,
          (unsigned long long)CS.EpsSccsCollapsed,
          (unsigned long long)CS.VarsUnified,
          (unsigned long long)CS.CycleSearchSteps,
          (unsigned long long)CS.PeakWorklistDepth,
          (unsigned long long)Run.Info.Derive.SchemasCreated,
          (unsigned long long)Run.Info.Derive.Instantiations,
          (unsigned long long)Run.Info.Derive.InstantiatedConstraints,
          (unsigned long long)Run.Info.Derive.SchemaInternHits,
          (unsigned long long)Run.Info.Derive.BulkClonedConstraints,
          J + 1 < R.Runs.size() ? "," : "");
    }
    std::printf("      ]\n");
    std::printf("    }%s\n", I + 1 < Results.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  std::vector<std::string> Only;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--only") == 0 && I + 1 < argc)
      Only.push_back(argv[++I]); // restrict to named programs (CI smoke)
  }

  std::vector<unsigned> ThreadCounts = {1, 2, 4,
                                        WorkerPool::defaultThreadCount()};
  std::sort(ThreadCounts.begin(), ThreadCounts.end());
  ThreadCounts.erase(std::unique(ThreadCounts.begin(), ThreadCounts.end()),
                     ThreadCounts.end());

  std::vector<ProgramResult> Results;
  for (const char *Name : {"scanner", "zodiac", "sba"}) {
    if (!Only.empty() &&
        std::find(Only.begin(), Only.end(), Name) == Only.end())
      continue;
    Results.push_back(benchProgram(Name, ThreadCounts));
  }

  if (Json) {
    printJson(Results);
  } else {
    std::printf("== Parallel componential analysis: per-thread scaling "
                "(cache disabled) ==\n\n");
    for (const ProgramResult &R : Results)
      printTable(R);
  }
  bool AllDeterministic = true;
  for (const ProgramResult &R : Results)
    AllDeterministic = AllDeterministic && R.Deterministic;
  return AllDeterministic ? 0 : 1;
}
