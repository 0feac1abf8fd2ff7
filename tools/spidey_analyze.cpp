//===-- tools/spidey_analyze.cpp - Analysis CLI ---------------*- C++ -*-===//
///
/// \file
/// The `spidey-analyze` command line: run the componential (default) or
/// whole-program set-based analysis over a list of .ss source files — one
/// component per file — and print the MrSpidey-style check summary, plus
/// solver telemetry with --stats.
///
///   spidey-analyze a.ss b.ss main.ss             # componential
///   spidey-analyze --whole main.ss               # standard whole-program
///   spidey-analyze --threads 8 --stats *.ss      # parallel + telemetry
///   spidey-analyze --cache-dir .spidey *.ss      # reuse constraint files
///
/// Exit code: 0 on success (even with unsafe checks), 2 on usage errors,
/// 1 when a file cannot be read or the program does not parse.
///
//===----------------------------------------------------------------------===//

#include "componential/componential.h"
#include "debugger/checks.h"
#include "lang/parser.h"
#include "query/query_engine.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace spidey;

namespace {

void usage() {
  std::cout <<
      R"(spidey-analyze — set-based analysis over Scheme source files

usage: spidey-analyze [options] file.ss...
  --whole            whole-program analysis (default: componential)
  --threads N        worker threads for the componential step 1
                     (default 0 = hardware concurrency; 1 = sequential)
  --parallel-close   close the merged system with the sharded parallel
                     fixpoint (byte-identical output; shards default to
                     the worker-thread count)
  --close-shards N   shard count for the parallel close; implies
                     --parallel-close (1 = sequential engine)
  --simplify ALG     per-component simplifier: none, empty, unreachable,
                     e-removal (default), hopcroft
  --cache-dir DIR    constraint-file cache directory (default: disabled)
  --stats            print solver telemetry (ClosureStats, phase times)
  --help             this text
)";
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool simplifyFromName(const std::string &Name, SimplifyAlgorithm &Out) {
  for (SimplifyAlgorithm Alg :
       {SimplifyAlgorithm::None, SimplifyAlgorithm::Empty,
        SimplifyAlgorithm::Unreachable, SimplifyAlgorithm::EpsilonRemoval,
        SimplifyAlgorithm::Hopcroft})
    if (Name == simplifyAlgorithmName(Alg)) {
      Out = Alg;
      return true;
    }
  return false;
}

/// Strict decimal parse: digits only, no sign, no trailing junk, no
/// overflow — `--threads abc` must be a usage error, not thread count 0.
bool parseUint(const char *Text, uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  uint64_t V = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(*P - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Whole = false;
  bool Stats = false;
  ComponentialOptions Opts;
  Opts.Threads = 0;
  std::vector<std::string> Paths;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "spidey-analyze: " << Arg << " needs a value\n";
        std::exit(2);
      }
      return Argv[++I];
    };
    auto NextUint = [&]() -> uint64_t {
      const char *Text = Next();
      uint64_t V;
      if (!parseUint(Text, V)) {
        std::cerr << "spidey-analyze: " << Arg
                  << " needs a non-negative integer, got '" << Text << "'\n";
        std::exit(2);
      }
      return V;
    };
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (Arg == "--whole") {
      Whole = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--threads") {
      Opts.Threads = static_cast<unsigned>(NextUint());
    } else if (Arg == "--parallel-close") {
      Opts.ParallelClose = true;
    } else if (Arg == "--close-shards") {
      Opts.ParallelClose = true;
      Opts.CloseShards = static_cast<unsigned>(NextUint());
    } else if (Arg == "--simplify") {
      std::string Name = Next();
      if (!simplifyFromName(Name, Opts.Simplify)) {
        std::cerr << "spidey-analyze: unknown simplifier '" << Name
                  << "' (none, empty, unreachable, e-removal, hopcroft)\n";
        return 2;
      }
    } else if (Arg == "--cache-dir") {
      Opts.CacheDir = Next();
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "spidey-analyze: unknown option " << Arg << "\n";
      usage();
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty()) {
    usage();
    return 2;
  }

  std::vector<SourceFile> Files;
  for (const std::string &Path : Paths) {
    SourceFile F;
    F.Name = Path;
    if (!readFile(Path, F.Text)) {
      std::cerr << "spidey-analyze: cannot read " << Path << "\n";
      return 1;
    }
    Files.push_back(std::move(F));
  }

  Program P;
  DiagnosticEngine Diags;
  if (!parseProgram(P, Diags, Files)) {
    std::cerr << Diags.str();
    return 1;
  }

  if (Whole) {
    Analysis A = analyzeProgram(P);
    DebugReport Report = runChecks(P, A.Maps, *A.System);
    std::cout << Report.summary(P);
    std::cout << "constraints: " << A.System->size() << " over "
              << A.System->numTouchedVars() << " variables\n";
    if (Stats) {
      std::cout << "closure stats:\n" << A.System->stats().str();
      std::printf("derive stats: schemas %llu, instantiations %llu, "
                  "instantiated constraints %llu, intern hits %llu, "
                  "bulk-cloned constraints %llu\n",
                  (unsigned long long)A.Stats.SchemasCreated,
                  (unsigned long long)A.Stats.Instantiations,
                  (unsigned long long)A.Stats.InstantiatedConstraints,
                  (unsigned long long)A.Stats.SchemaInternHits,
                  (unsigned long long)A.Stats.BulkClonedConstraints);
    }
    return 0;
  }

  ComponentialAnalyzer CA(P, Opts);
  CA.run();

  // Step 3 per component, through the same sweep the serve daemon's
  // check-summary runs: reconstruct full precision for each component and
  // keep the component's own verdicts (the focused-component view of
  // §7.1, swept over every component).
  QueryEngine Queries;
  Queries.rebind(P, CA, /*Tok=*/nullptr, /*Volatile=*/false,
                 /*AllowVerdictCache=*/false, CA.optionsFingerprint());
  std::cout << Queries.checkSummary().Summary;

  size_t Reused = 0, FileBytes = 0;
  for (const ComponentRunStats &CS : CA.componentStats()) {
    Reused += CS.ReusedFile ? 1 : 0;
    FileBytes += CS.FileBytes;
  }
  std::cout << "components: " << P.Components.size() << " (" << Reused
            << " from cache), combined constraints: " << CA.combined().size()
            << ", max system: " << CA.maxConstraints() << "\n";
  if (!Opts.CacheDir.empty())
    std::cout << "constraint files: " << FileBytes << " bytes in "
              << Opts.CacheDir << "\n";
  if (Stats) {
    const ComponentialRunInfo &Info = CA.runInfo();
    std::printf("phases: derive %.1f ms, merge %.1f ms, close %.1f ms\n",
                Info.DeriveMs, Info.MergeMs, Info.CloseMs);
    std::cout << "closure stats:\n" << Info.Closure.str();
    std::printf("derive stats: schemas %llu, instantiations %llu, "
                "instantiated constraints %llu, intern hits %llu, "
                "bulk-cloned constraints %llu\n",
                (unsigned long long)Info.Derive.SchemasCreated,
                (unsigned long long)Info.Derive.Instantiations,
                (unsigned long long)Info.Derive.InstantiatedConstraints,
                (unsigned long long)Info.Derive.SchemaInternHits,
                (unsigned long long)Info.Derive.BulkClonedConstraints);
  }
  return 0;
}
