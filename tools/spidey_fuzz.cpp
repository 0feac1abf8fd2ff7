//===-- tools/spidey_fuzz.cpp - Differential fuzzing CLI ------*- C++ -*-===//
///
/// \file
/// The `spidey-fuzz` command-line harness.
///
///   spidey-fuzz --iters 500 --seed 42            # fuzz every oracle
///   spidey-fuzz --oracles soundness,threads ...  # a subset
///   spidey-fuzz --replay repro.ss                # replay a reproducer
///   spidey-fuzz --emit 123                       # print program for seed
///
/// On a violation the tool prints the seed, the oracle, the diagnosis and
/// the minimized reproducer, writes the reproducer to --out DIR (if
/// given), and exits 1. Exit 0 means every iteration passed every oracle.
///
//===----------------------------------------------------------------------===//

#include "fuzz/fuzzer.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace spidey;

namespace {

void usage() {
  std::cout <<
      R"(spidey-fuzz — differential fuzzing of the set-based analysis

usage: spidey-fuzz [options]
  --iters N          iterations (default 100)
  --seed N           base seed (default 1; per-iteration seeds derive from it)
  --oracles LIST     comma-separated subset of: soundness,simplify,
                     componential,threads,closure,chaos,query
                     (default: all seven)
  --fuel N           machine step budget for the soundness oracle
  --threads N        thread count compared against 1 (default 4)
  --depth N          selector-path probe depth (default 4)
  --max-components N generator knob: max files per program (default 3)
  --max-violations N stop after N violations (default 5)
  --no-shrink        skip delta-debugging of violating programs
  --out DIR          write minimized reproducers to DIR
  --replay FILE      replay a reproducer (or plain .ss program) and exit
  --emit SEED        print the generated program for SEED and exit
  --quiet            suppress progress logging
)";
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return End && *End == '\0';
}

int replay(const std::string &Path, FuzzOptions &Opts) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "spidey-fuzz: cannot read " << Path << "\n";
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string OracleDirective;
  std::vector<SourceFile> Files = parseReproducer(Buf.str(), OracleDirective);

  // A reproducer names its oracle; otherwise run every enabled one.
  uint32_t Mask = Opts.OracleMask;
  Oracle Single;
  if (!OracleDirective.empty() && oracleFromName(OracleDirective, Single))
    Mask = 1u << static_cast<unsigned>(Single);

  bool AnyViolation = false;
  for (unsigned OI = 0; OI < NumOracles; ++OI) {
    if (!(Mask & (1u << OI)))
      continue;
    Oracle O = static_cast<Oracle>(OI);
    OracleVerdict V = checkOracle(O, Files, Opts.Oracle);
    if (!V.Parsed) {
      std::cout << "[" << oracleName(O) << "] does not parse:\n"
                << V.Message << "\n";
      AnyViolation = true;
      continue;
    }
    std::cout << "[" << oracleName(O) << "] "
              << (V.Violation ? "VIOLATION: " + V.Message : "ok") << "\n";
    AnyViolation |= V.Violation;
  }
  return AnyViolation ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Opts;
  std::string OutDir;
  std::string ReplayPath;
  bool Quiet = false;
  uint64_t EmitSeed = 0;
  bool Emit = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "spidey-fuzz: " << Arg << " needs a value\n";
        std::exit(2);
      }
      return Argv[++I];
    };
    uint64_t N;
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (Arg == "--iters") {
      if (!parseUnsigned(Next(), N))
        return 2;
      Opts.Iters = N;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Next(), N))
        return 2;
      Opts.Seed = static_cast<unsigned>(N);
    } else if (Arg == "--fuel") {
      if (!parseUnsigned(Next(), N))
        return 2;
      Opts.Oracle.Fuel = N;
    } else if (Arg == "--threads") {
      if (!parseUnsigned(Next(), N))
        return 2;
      Opts.Oracle.Threads = static_cast<unsigned>(N);
    } else if (Arg == "--depth") {
      if (!parseUnsigned(Next(), N))
        return 2;
      Opts.Oracle.Depth = static_cast<unsigned>(N);
    } else if (Arg == "--max-components") {
      if (!parseUnsigned(Next(), N))
        return 2;
      Opts.Gen.MaxComponents = static_cast<unsigned>(N);
    } else if (Arg == "--max-violations") {
      if (!parseUnsigned(Next(), N))
        return 2;
      Opts.MaxViolations = N;
    } else if (Arg == "--oracles") {
      std::string List = Next();
      Opts.OracleMask = 0;
      std::istringstream LS(List);
      std::string Name;
      while (std::getline(LS, Name, ',')) {
        Oracle O;
        if (!oracleFromName(Name, O)) {
          std::cerr << "spidey-fuzz: unknown oracle '" << Name << "'\n";
          return 2;
        }
        Opts.OracleMask |= 1u << static_cast<unsigned>(O);
      }
      if (!Opts.OracleMask) {
        std::cerr << "spidey-fuzz: --oracles selected nothing\n";
        return 2;
      }
    } else if (Arg == "--no-shrink") {
      Opts.Shrink = false;
    } else if (Arg == "--out") {
      OutDir = Next();
    } else if (Arg == "--replay") {
      ReplayPath = Next();
    } else if (Arg == "--emit") {
      if (!parseUnsigned(Next(), N))
        return 2;
      EmitSeed = N;
      Emit = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else {
      std::cerr << "spidey-fuzz: unknown option '" << Arg << "'\n";
      usage();
      return 2;
    }
  }

  if (Emit) {
    FuzzGenConfig Gen = Opts.Gen;
    Gen.Seed = static_cast<unsigned>(EmitSeed);
    for (const SourceFile &F : generateFuzzProgram(Gen))
      std::cout << ";;; file: " << F.Name << "\n" << F.Text;
    return 0;
  }
  if (!ReplayPath.empty())
    return replay(ReplayPath, Opts);

  if (!Quiet)
    Opts.Log = [](const std::string &Message) {
      std::cerr << Message << "\n";
    };

  FuzzSummary Summary = runFuzz(Opts);

  std::cout << "spidey-fuzz: " << Summary.Iterations << " iteration(s), "
            << Summary.Violations.size() << " violation(s)\n";
  for (unsigned OI = 0; OI < NumOracles; ++OI)
    if (Summary.OracleRuns[OI])
      std::cout << "  " << oracleName(static_cast<Oracle>(OI)) << ": "
                << Summary.OracleRuns[OI] << " run(s)\n";

  if (!OutDir.empty() && !Summary.Violations.empty())
    std::filesystem::create_directories(OutDir);

  for (const FuzzViolation &V : Summary.Violations) {
    std::string Repro = formatReproducer(V);
    std::cout << "\n=== VIOLATION [" << V.OracleName << "] seed "
              << V.ProgramSeed << " (iteration " << V.Iteration << ")\n"
              << V.Message << "\n--- minimized reproducer (replay with "
              << "spidey-fuzz --replay FILE) ---\n"
              << Repro;
    if (!OutDir.empty()) {
      std::string Path = OutDir + "/repro-" + V.OracleName + "-seed" +
                         std::to_string(V.ProgramSeed) + ".ss";
      std::ofstream Out(Path);
      Out << Repro;
      std::cout << "--- written to " << Path << "\n";
    }
  }
  return Summary.ok() ? 0 : 1;
}
