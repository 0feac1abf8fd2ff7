//===-- tests/cache_test.cpp - Constraint-cache hardening ------*- C++ -*-===//
///
/// \file
/// Regressions for the constraint-file cache: analysis-options
/// fingerprinting, atomic writes under concurrent analyzers, collision-
/// proof cache file names, external-set (interface) invalidation of
/// dependents, and name-based relinking when a definition moves between
/// components.
///
//===----------------------------------------------------------------------===//

#include "componential/componential.h"
#include "test_util.h"

#include <filesystem>
#include <fstream>
#include <thread>

using namespace spidey;
using namespace spidey::test;

namespace {

namespace fs = std::filesystem;

/// A scratch cache directory, wiped on construction and destruction.
struct ScratchDir {
  explicit ScratchDir(const char *Tag)
      : Path((fs::temp_directory_path() / Tag).string()) {
    fs::remove_all(Path);
  }
  ~ScratchDir() { fs::remove_all(Path); }
  std::string Path;
};

/// Kind names of the constants reaching a top-level define's variable.
std::vector<std::string> kindsAt(const Program &P, const AnalysisMaps &Maps,
                                 const ConstraintSystem &S,
                                 const std::string &Name) {
  Symbol Sym = const_cast<Program &>(P).Syms.intern(Name);
  for (VarId V = 0; V < P.numVars(); ++V) {
    if (!P.var(V).TopLevel || P.var(V).Name != Sym)
      continue;
    std::vector<std::string> Out;
    for (Constant C : S.constantsOf(Maps.varVar(V)))
      Out.push_back(constKindName(S.context().Constants.kind(C)));
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }
  return {"<no such define>"};
}

const std::vector<SourceFile> TwoFiles = {
    {"lib.ss", "(define (twice f) (lambda (x) (f (f x))))"
               "(define inc (lambda (n) (+ n 1)))"},
    {"main.ss", "(define go ((twice inc) 1))"},
};

std::string readText(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeText(const std::string &Path, const std::string &Text) {
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Satellite 1: the cache key must include the analysis options.
//===----------------------------------------------------------------------===//

TEST(Cache, FingerprintSeparatesConfigs) {
  std::string A = componentialFingerprint(SimplifyAlgorithm::EpsilonRemoval,
                                          AnalysisOptions{});
  std::string B =
      componentialFingerprint(SimplifyAlgorithm::Hopcroft, AnalysisOptions{});
  EXPECT_NE(A, B);
  std::string C = componentialFingerprint(
      SimplifyAlgorithm::EpsilonRemoval,
      polyAnalysisOptions(PolyMode::Smart, SimplifyAlgorithm::EpsilonRemoval));
  EXPECT_NE(A, C);
  // Fingerprints are whitespace-free (they live on one header line).
  for (char Ch : A + B + C)
    EXPECT_FALSE(std::isspace(static_cast<unsigned char>(Ch)));
}

TEST(Cache, OptionsMismatchForcesRederivation) {
  ScratchDir Dir("spidey_cache_opts_test");

  ComponentialOptions Simple;
  Simple.CacheDir = Dir.Path;
  Simple.Simplify = SimplifyAlgorithm::EpsilonRemoval;
  {
    Parsed R = parseFiles(TwoFiles);
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialAnalyzer CA(*R.Prog, Simple);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats())
      EXPECT_FALSE(CS.ReusedFile);
  }
  // Same sources, same cache dir, different simplifier: every file must
  // be rejected with an options mismatch, not silently reused.
  {
    ComponentialOptions Other = Simple;
    Other.Simplify = SimplifyAlgorithm::Hopcroft;
    Parsed R = parseFiles(TwoFiles);
    ComponentialAnalyzer CA(*R.Prog, Other);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats()) {
      EXPECT_FALSE(CS.ReusedFile);
      EXPECT_EQ(CS.Cache, CacheOutcome::MissOptions);
    }
  }
  // Different derivation options (polymorphic analysis) likewise.
  {
    ComponentialOptions Poly = Simple;
    Poly.Derive =
        polyAnalysisOptions(PolyMode::Smart, SimplifyAlgorithm::EpsilonRemoval);
    Parsed R = parseFiles(TwoFiles);
    ComponentialAnalyzer CA(*R.Prog, Poly);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats())
      EXPECT_EQ(CS.Cache, CacheOutcome::MissOptions);
  }
  // The poly run overwrote the files under its own fingerprint, so the
  // original configuration rederives rather than trusting them.
  {
    Parsed R = parseFiles(TwoFiles);
    ComponentialAnalyzer CA(*R.Prog, Simple);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats())
      EXPECT_EQ(CS.Cache, CacheOutcome::MissOptions);
  }
}

//===----------------------------------------------------------------------===//
// Satellite 2: cache writes are atomic (temp file + rename).
//===----------------------------------------------------------------------===//

TEST(Cache, ConcurrentAnalyzersShareOneCacheDir) {
  ScratchDir Dir("spidey_cache_race_test");
  ComponentialOptions Opts;
  Opts.CacheDir = Dir.Path;

  // Two analyzers over the same sources race on the same cache dir. Each
  // thread parses its own Program (the analyzer interns symbols into it).
  auto Racer = [&]() {
    for (int Round = 0; Round < 4; ++Round) {
      Parsed R = parseFiles(TwoFiles);
      ASSERT_TRUE(R.Ok);
      ComponentialAnalyzer CA(*R.Prog, Opts);
      CA.run();
      auto Full = CA.reconstruct(1);
      EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "go"),
                std::vector<std::string>{"num"});
    }
  };
  std::thread T1(Racer), T2(Racer);
  T1.join();
  T2.join();

  // Readers never see a torn file, and no temp files are left behind.
  size_t Files = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir.Path)) {
    EXPECT_EQ(E.path().string().find(".tmp."), std::string::npos)
        << "leftover temp file " << E.path();
    ++Files;
  }
  EXPECT_EQ(Files, TwoFiles.size());

  Parsed R = parseFiles(TwoFiles);
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  for (const ComponentRunStats &CS : CA.componentStats())
    EXPECT_EQ(CS.Cache, CacheOutcome::Hit);
}

TEST(Cache, TornFileIsRederivedAndRepaired) {
  ScratchDir Dir("spidey_cache_torn_test");
  ComponentialOptions Opts;
  Opts.CacheDir = Dir.Path;
  {
    Parsed R = parseFiles(TwoFiles);
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
  }
  // Simulate a torn write (the bug this PR fixes could produce one):
  // truncate lib.ss's constraint file mid-body.
  std::string Torn = Dir.Path + "/" + componentCacheFileName("lib.ss");
  {
    std::ifstream In(Torn, std::ios::binary);
    ASSERT_TRUE(In.good());
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(Text.size(), 40u);
    std::ofstream Out(Torn, std::ios::binary | std::ios::trunc);
    Out << Text.substr(0, Text.size() / 2);
  }
  Parsed R = parseFiles(TwoFiles);
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_EQ(CA.componentStats()[0].Cache, CacheOutcome::MissCorrupt);
  EXPECT_EQ(CA.componentStats()[1].Cache, CacheOutcome::Hit);
  auto Full = CA.reconstruct(1);
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "go"),
            std::vector<std::string>{"num"});

  // The rederivation repaired the file in place.
  Parsed R2 = parseFiles(TwoFiles);
  ComponentialAnalyzer CA2(*R2.Prog, Opts);
  CA2.run();
  EXPECT_EQ(CA2.componentStats()[0].Cache, CacheOutcome::Hit);
}

TEST(Cache, CorruptBodyRederivesToColdBytes) {
  // A cached file whose header passes every reuse check but whose body
  // does not decode must leave no trace in the shared context: the
  // re-derived component merges exactly as in a cold run, so the warm
  // combined system keeps the cold bytes (flow variable ids included).
  const std::vector<SourceFile> Files = {
      {"lib.ss", "(define (first p) (car p))(define alias first)"
                 "(define (pick x) (if (pair? x) (car x) x))"},
      {"main.ss", "(define r (alias (cons 1 2)))(define q (first (cons 3 4)))"
                  "(define s (pick 5))"},
  };
  ComponentialOptions Opts;
  Opts.MergeViaFiles = true;
  std::string Cold;
  {
    Parsed R = parseFiles(Files);
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    Cold = CA.combined().str();
  }

  const std::vector<std::pair<const char *, std::string (*)(std::string)>>
      Corruptions = {
          {"truncated to 3/4",
           [](std::string T) { return T.substr(0, T.size() * 3 / 4); }},
          {"vu op replaced by zz",
           [](std::string T) {
             size_t P = T.find("\nvu ");
             if (P != std::string::npos)
               T.replace(P + 1, 2, "zz");
             return T;
           }},
      };
  for (const auto &[What, Corrupt] : Corruptions) {
    ScratchDir Dir("spidey_cache_corrupt_body_test");
    Opts.CacheDir = Dir.Path;
    {
      Parsed R = parseFiles(Files);
      ComponentialAnalyzer CA(*R.Prog, Opts);
      CA.run();
    }
    std::string Path = Dir.Path + "/" + componentCacheFileName("lib.ss");
    std::string Text = readText(Path);
    std::string Bad = Corrupt(Text);
    ASSERT_NE(Bad, Text) << What;
    // The header (through the externals) survives, so only the body fails.
    ASSERT_LT(Text.find("\nselectors "), Bad.size()) << What;
    writeText(Path, Bad);

    Parsed R = parseFiles(Files);
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    EXPECT_EQ(CA.componentStats()[0].Cache, CacheOutcome::MissCorrupt)
        << What;
    EXPECT_FALSE(CA.componentStats()[0].ReusedFile) << What;
    EXPECT_EQ(CA.componentStats()[1].Cache, CacheOutcome::Hit) << What;
    EXPECT_FALSE(CA.runInfo().MergedOffText) << What;
    EXPECT_EQ(CA.combined().str(), Cold) << What;
  }
}

TEST(Cache, HostileVarsCountIsRederived) {
  // A header whose hash, options and externals all match but whose vars
  // count is absurd must be rejected before anything is allocated, not
  // thrown through run().
  ScratchDir Dir("spidey_cache_hostile_vars_test");
  ComponentialOptions Opts;
  Opts.CacheDir = Dir.Path;
  {
    Parsed R = parseFiles(TwoFiles);
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
  }
  std::string Path = Dir.Path + "/" + componentCacheFileName("lib.ss");
  std::string Text = readText(Path);
  size_t P = Text.find("\nvars ");
  ASSERT_NE(P, std::string::npos);
  Text.replace(P, Text.find('\n', P + 1) - P, "\nvars 4611686018427387904");
  writeText(Path, Text);

  Parsed R = parseFiles(TwoFiles);
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_EQ(CA.componentStats()[0].Cache, CacheOutcome::MissCorrupt);
  EXPECT_FALSE(CA.componentStats()[0].ReusedFile);
  EXPECT_EQ(CA.componentStats()[1].Cache, CacheOutcome::Hit);
  auto Full = CA.reconstruct(1);
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "go"),
            std::vector<std::string>{"num"});
}

TEST(Cache, UncreatableCacheDirBehavesLikeFailingWrites) {
  // A cache directory under a regular file cannot be created. The run
  // must not throw: loads miss, writes are dropped, and the combined
  // system is that of a run without a cache.
  ScratchDir Dir("spidey_cache_uncreatable_test");
  fs::create_directories(Dir.Path);
  const std::string File = Dir.Path + "/plain-file";
  writeText(File, "not a directory");
  ComponentialOptions Opts;
  std::string Want;
  {
    Parsed R = parseFiles(TwoFiles);
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    Want = CA.combined().str();
  }
  Opts.CacheDir = File + "/c";
  Parsed R = parseFiles(TwoFiles);
  ComponentialAnalyzer CA(*R.Prog, Opts);
  EXPECT_NO_THROW(CA.run());
  EXPECT_EQ(CA.combined().str(), Want);
  for (const ComponentRunStats &CS : CA.componentStats())
    EXPECT_EQ(CS.Cache, CacheOutcome::MissNoEntry);
  EXPECT_FALSE(fs::exists(Opts.CacheDir));
}

//===----------------------------------------------------------------------===//
// Satellite 3: cache file names must not collide across component names.
//===----------------------------------------------------------------------===//

TEST(Cache, FileNamesDifferForPunctuationVariants) {
  EXPECT_NE(componentCacheFileName("a-b.ss"), componentCacheFileName("a_b.ss"));
  EXPECT_NE(componentCacheFileName("a.b.ss"), componentCacheFileName("a-b.ss"));
  // Deterministic across calls (the name is the cache key).
  EXPECT_EQ(componentCacheFileName("lib/util.ss"),
            componentCacheFileName("lib/util.ss"));
}

TEST(Cache, CollidingNamesKeepSeparateEntries) {
  ScratchDir Dir("spidey_cache_collide_test");
  const std::vector<SourceFile> Files = {
      {"a-b.ss", "(define from-dash 'dash)"},
      {"a_b.ss", "(define from-under \"under\")"},
      {"main.ss", "(define d from-dash)(define u from-under)"},
  };
  ComponentialOptions Opts;
  Opts.CacheDir = Dir.Path;
  {
    Parsed R = parseFiles(Files);
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
  }
  // Before the fix both components mapped to a_b_ss.scf: the second write
  // clobbered the first, so one of them could never cache-hit (worse, a
  // hash match against the wrong component's file was possible). Now both
  // must hit, and with the right contents.
  Parsed R = parseFiles(Files);
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_EQ(CA.componentStats()[0].Cache, CacheOutcome::Hit);
  EXPECT_EQ(CA.componentStats()[1].Cache, CacheOutcome::Hit);
  auto Full = CA.reconstruct(2);
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "d"),
            std::vector<std::string>{"sym"});
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "u"),
            std::vector<std::string>{"str"});
}

//===----------------------------------------------------------------------===//
// Dependent invalidation: a cached file is only valid for the external
// set the current program requires of its component.
//===----------------------------------------------------------------------===//

TEST(Cache, NewForeignReferenceInvalidatesProvider) {
  ScratchDir Dir("spidey_cache_dependent_test");
  ComponentialOptions Opts;
  Opts.CacheDir = Dir.Path;

  const std::vector<SourceFile> Before = {
      {"provider.ss", "(define f 1)(define g 'gee)"},
      {"client.ss", "(define use-f f)"},
  };
  {
    Parsed R = parseFiles(Before);
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    // g is component-internal here, so provider.ss's constraint file was
    // simplified with externals {f} and may know nothing about g.
  }
  // The client starts referencing g. provider.ss's own source is
  // unchanged (same hash), but its required interface grew, so its
  // cached file must be invalidated — reusing it would silently lose
  // g's value flow.
  std::vector<SourceFile> After = Before;
  After[1].Text = "(define use-f f)(define use-g g)";
  Parsed R = parseFiles(After);
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_EQ(CA.componentStats()[0].Cache, CacheOutcome::MissExternals);
  EXPECT_EQ(CA.componentStats()[1].Cache, CacheOutcome::MissStaleHash);
  auto Full = CA.reconstruct(1);
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "use-g"),
            std::vector<std::string>{"sym"});

  // And the refreshed files serve the new program on a rerun.
  Parsed R2 = parseFiles(After);
  ComponentialAnalyzer CA2(*R2.Prog, Opts);
  CA2.run();
  EXPECT_EQ(CA2.componentStats()[0].Cache, CacheOutcome::Hit);
  EXPECT_EQ(CA2.componentStats()[1].Cache, CacheOutcome::Hit);
  auto Full2 = CA2.reconstruct(1);
  EXPECT_EQ(kindsAt(*R2.Prog, CA2.maps(), *Full2, "use-g"),
            std::vector<std::string>{"sym"});
}

//===----------------------------------------------------------------------===//
// Satellite 4: duplicate top-level definitions across components.
//===----------------------------------------------------------------------===//

TEST(Cache, DuplicateTopLevelAcrossComponentsIsRejected) {
  // Top-level defines share one program-wide letrec scope, so a second
  // component redefining f is a scoping error, not a shadow.
  Parsed R = parseFiles({{"one.ss", "(define f 1)"},
                         {"two.ss", "(define f 'two)"},
                         {"main.ss", "(define r f)"}});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diags.str().find("duplicate top-level definition"),
            std::string::npos)
      << R.Diags.str();
}

TEST(Cache, RelinkBindsTheCurrentPrograms) {
  // A cached client file names its external `f`. When f's definition
  // moves to a different component between runs, the name-based relink
  // must bind the *current* program's f, and the result must agree with
  // a fresh no-cache derivation.
  ScratchDir Dir("spidey_cache_relink_test");
  ComponentialOptions Opts;
  Opts.CacheDir = Dir.Path;

  {
    Parsed R = parseFiles({{"alpha.ss", "(define f 1)"},
                           {"beta.ss", "(define unrelated 'be)"},
                           {"client.ss", "(define r f)"}});
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    auto Full = CA.reconstruct(2);
    EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "r"),
              std::vector<std::string>{"num"});
  }
  // f moves from alpha.ss to beta.ss and changes kind. client.ss is
  // untouched: same hash, same external set {f}, so its file is reused —
  // and must pick up the new f.
  const std::vector<SourceFile> Moved = {
      {"alpha.ss", "(define was-f 0)"},
      {"beta.ss", "(define unrelated 'be)(define f \"now a string\")"},
      {"client.ss", "(define r f)"}};
  Parsed R = parseFiles(Moved);
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_EQ(CA.componentStats()[2].Cache, CacheOutcome::Hit);

  Parsed Fresh = parseFiles(Moved);
  ComponentialAnalyzer FreshCA(*Fresh.Prog, {});
  FreshCA.run();
  auto Full = CA.reconstruct(2);
  auto FreshFull = FreshCA.reconstruct(2);
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "r"),
            kindsAt(*Fresh.Prog, FreshCA.maps(), *FreshFull, "r"));
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "r"),
            std::vector<std::string>{"str"});
}
