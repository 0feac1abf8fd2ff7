//===-- tests/componential_test.cpp - §7.1 componential tests --*- C++ -*-===//

#include "componential/componential.h"
#include "test_util.h"

#include <filesystem>

using namespace spidey;
using namespace spidey::test;

namespace {

const std::vector<SourceFile> ThreeFiles = {
    {"list.ss", "(define (first p) (car p))"
                "(define (second p) (car (cdr p)))"},
    {"data.ss", "(define good (cons 1 (cons 'two '())))"
                "(define bad 42)"},
    {"main.ss", "(define r1 (first good))"
                "(define r2 (second good))"
                "(define r3 (first bad))"},
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

} // namespace

TEST(Componential, MatchesWholeProgramOnExports) {
  Parsed R = parseFiles(ThreeFiles);
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  Analysis Whole = analyzeProgram(*R.Prog);

  for (SimplifyAlgorithm Alg :
       {SimplifyAlgorithm::Empty, SimplifyAlgorithm::Unreachable,
        SimplifyAlgorithm::EpsilonRemoval, SimplifyAlgorithm::Hopcroft}) {
    ComponentialOptions Opts;
    Opts.Simplify = Alg;
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    // The combined system preserves the cross-referenced interface...
    for (const char *Name : {"good", "bad", "first", "second"})
      EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), CA.combined(), Name),
                kindsAt(*R.Prog, Whole.Maps, *Whole.System, Name))
          << Name << " with " << simplifyAlgorithmName(Alg);
    // ... and reconstruction recovers component-internal definitions.
    auto Full = CA.reconstruct(2);
    for (const char *Name : {"r1", "r2", "r3"})
      EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, Name),
                kindsAt(*R.Prog, Whole.Maps, *Whole.System, Name))
          << Name << " with " << simplifyAlgorithmName(Alg);
  }
}

TEST(Componential, CombinedIsSmallerThanWhole) {
  Parsed R = parseFiles(ThreeFiles);
  Analysis Whole = analyzeProgram(*R.Prog);
  ComponentialOptions Opts;
  Opts.Simplify = SimplifyAlgorithm::EpsilonRemoval;
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_LT(CA.combined().size(), Whole.System->size());
}

TEST(Componential, ReconstructRecoversLabels) {
  Parsed R = parseFiles(ThreeFiles);
  Analysis Whole = analyzeProgram(*R.Prog);
  ComponentialOptions Opts;
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  // Reconstruct main.ss and compare every expression label against the
  // whole-program analysis.
  auto Full = CA.reconstruct(2);
  const Component &Main = R.Prog->Components[2];
  for (const TopForm &F : Main.Forms) {
    SetVar L1 = CA.maps().exprVar(F.Body);
    SetVar L2 = Whole.Maps.exprVar(F.Body);
    std::vector<std::string> A, B;
    for (Constant C : Full->constantsOf(L1))
      A.push_back(constKindName(CA.combined().context().Constants.kind(C)));
    for (Constant C : Whole.System->constantsOf(L2))
      B.push_back(constKindName(Whole.Ctx->Constants.kind(C)));
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    EXPECT_EQ(A, B);
  }
}

// reconstruct() copies the closed combined system and continues its
// closure. When a token cut the combined close short, the copy is closed
// first, so every reconstruct still matches one from an uncut run —
// wherever in the close the budget ran out.
TEST(Componential, ReconstructAfterCutShortCloseMatchesUncutRun) {
  // The work must sit in the combined close, so every flow crosses files:
  // 40 closures flow into `f`, 30 filtered reads of `f` feed a sink (one
  // representative with 1,200 combines, past the drain's poll stride), and
  // a 60-link chain with one define per file makes many small
  // representatives (past the drain's forced-poll interval).
  std::string Fns = "(define f ";
  for (int I = 0; I < 40; ++I)
    Fns += "(if (zero? " + std::to_string(I) + ") (lambda (a) " +
           std::to_string(I) + ") ";
  Fns += "#f" + std::string(41, ')');
  std::string Uses, Sink = "(define sink (list";
  for (int I = 0; I < 30; ++I) {
    std::string N = std::to_string(I);
    Uses += "(define g" + N + " (if (procedure? f) f " + N + "))";
    Sink += " g" + N;
  }
  Sink += "))";
  std::vector<SourceFile> Files = {{"fns.ss", Fns},
                                   {"uses.ss", Uses},
                                   {"sink.ss", Sink},
                                   {"c0.ss", "(define c0 (cons 1 2))"}};
  for (int I = 1; I < 60; ++I) {
    std::string N = std::to_string(I), Prev = std::to_string(I - 1);
    Files.push_back({"c" + N + ".ss", "(define c" + N + " (cons c" + Prev +
                                          " (car c" + Prev + ")))"});
  }
  const std::vector<uint32_t> Focus = {0, 1, 2, 62};

  Parsed UncutP = parseFiles(Files);
  ASSERT_TRUE(UncutP.Ok) << UncutP.Diags.str();
  ComponentialOptions Opts;
  Opts.Threads = 1; // deterministic charge order
  ComponentialAnalyzer Uncut(*UncutP.Prog, Opts);
  Uncut.run();
  const uint64_t Total = Uncut.runInfo().Closure.CombinesAttempted;
  std::vector<std::string> Want;
  for (uint32_t I : Focus)
    Want.push_back(Uncut.reconstruct(I)->str());

  enum class Trip { Derive, Close, None };
  struct Run {
    Parsed P;
    CancelToken Tok;
    std::unique_ptr<ComponentialAnalyzer> CA;
  };
  auto runWith = [&](uint64_t Budget, Run &R) {
    R.P = parseFiles(Files);
    R.Tok.setWorkBudget(Budget);
    ComponentialOptions O = Opts;
    O.Cancel = &R.Tok;
    R.CA = std::make_unique<ComponentialAnalyzer>(*R.P.Prog, O);
    R.CA->run();
    for (const ComponentRunStats &CS : R.CA->componentStats())
      if (CS.TimedOut)
        return Trip::Derive;
    return R.CA->runInfo().CloseConverged ? Trip::None : Trip::Close;
  };
  // The smallest budget under which every component derives and merges.
  uint64_t Lo = 1, Hi = Total + 1;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    Run Probe;
    if (runWith(Mid, Probe) == Trip::Derive)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }

  // Cut the combined close at budgets spread over its work.
  unsigned CutShort = 0;
  for (uint64_t Budget = Lo; Budget <= Total; Budget += (Total - Lo) / 24 + 1) {
    Run Cut;
    if (runWith(Budget, Cut) != Trip::Close)
      continue;
    ++CutShort;
    ASSERT_TRUE(Cut.CA->combined().closureCancelled());
    Cut.Tok.rearm(0, 0);
    for (size_t K = 0; K < Focus.size(); ++K) {
      auto Full = Cut.CA->reconstruct(Focus[K]);
      EXPECT_FALSE(Full->closureCancelled()) << "budget " << Budget;
      EXPECT_EQ(Full->str(), Want[K])
          << "budget " << Budget << ", component " << Focus[K];
    }
  }
  EXPECT_GT(CutShort, 1u);
}

TEST(Componential, ConstraintFilesRoundTrip) {
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "spidey_cache_test").string();
  fs::remove_all(Dir);

  Parsed R1 = parseFiles(ThreeFiles);
  ComponentialOptions Opts;
  Opts.CacheDir = Dir;
  {
    ComponentialAnalyzer CA(*R1.Prog, Opts);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats()) {
      EXPECT_FALSE(CS.ReusedFile);
      EXPECT_GT(CS.FileBytes, 0u);
    }
  }
  // Second run: every component is loaded from its constraint file, and
  // the results agree with a fresh whole-program analysis.
  Parsed R2 = parseFiles(ThreeFiles);
  Analysis Whole = analyzeProgram(*R2.Prog);
  {
    ComponentialAnalyzer CA(*R2.Prog, Opts);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats())
      EXPECT_TRUE(CS.ReusedFile);
    for (const char *Name : {"good", "first"})
      EXPECT_EQ(kindsAt(*R2.Prog, CA.maps(), CA.combined(), Name),
                kindsAt(*R2.Prog, Whole.Maps, *Whole.System, Name))
          << Name;
    auto Full = CA.reconstruct(2);
    for (const char *Name : {"r1", "r3"})
      EXPECT_EQ(kindsAt(*R2.Prog, CA.maps(), *Full, Name),
                kindsAt(*R2.Prog, Whole.Maps, *Whole.System, Name))
          << Name;
  }
  fs::remove_all(Dir);
}

TEST(Componential, EditedComponentIsReanalyzed) {
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "spidey_cache_edit_test").string();
  fs::remove_all(Dir);

  ComponentialOptions Opts;
  Opts.CacheDir = Dir;
  {
    Parsed R = parseFiles(ThreeFiles);
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
  }
  // Edit main.ss: add a string-valued define. The component's foreign
  // references are unchanged, so the other components' interfaces (and
  // hence their cached files) stay valid.
  std::vector<SourceFile> Edited = ThreeFiles;
  Edited[2].Text = "(define r1 (first good))"
                   "(define r2 (second good))"
                   "(define r3 (first bad))"
                   "(define r4 \"changed\")";
  Parsed R = parseFiles(Edited);
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_TRUE(CA.componentStats()[0].ReusedFile);
  EXPECT_EQ(CA.componentStats()[0].Cache, CacheOutcome::Hit);
  EXPECT_TRUE(CA.componentStats()[1].ReusedFile);
  EXPECT_FALSE(CA.componentStats()[2].ReusedFile);
  EXPECT_EQ(CA.componentStats()[2].Cache, CacheOutcome::MissStaleHash);
  auto Full = CA.reconstruct(2);
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "r4"),
            std::vector<std::string>{"str"});
  fs::remove_all(Dir);
}

TEST(Componential, CrossComponentUnits) {
  Parsed R = parseFiles(
      {{"a.ss", "(define u1 (unit (import i) (export f)"
                "            (define f (lambda (x) (cons i x)))))"},
       {"b.ss", "(define seed 7)"
                "(define g (invoke u1 seed))"
                "(define out (g 'payload))"}});
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  Analysis Whole = analyzeProgram(*R.Prog);
  ComponentialAnalyzer CA(*R.Prog, {});
  CA.run();
  auto Full = CA.reconstruct(1);
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "out"),
            kindsAt(*R.Prog, Whole.Maps, *Whole.System, "out"));
  EXPECT_EQ(kindsAt(*R.Prog, CA.maps(), *Full, "out"),
            std::vector<std::string>{"pair"});
}

TEST(Componential, PolyOptionsBuildSchedules) {
  Parsed R = parseOk("(define (id x) x) (id 1) (id 'a)");
  for (SimplifyAlgorithm Alg :
       {SimplifyAlgorithm::Empty, SimplifyAlgorithm::EpsilonRemoval}) {
    Analysis A =
        analyzeProgram(*R.Prog, polyAnalysisOptions(PolyMode::Smart, Alg));
    EXPECT_EQ(kindsOf(A, lastTopExpr(*R.Prog)),
              std::vector<std::string>{"sym"})
        << simplifyAlgorithmName(Alg);
    EXPECT_GT(A.Stats.Instantiations, 0u);
  }
}
