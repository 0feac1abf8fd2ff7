//===-- tests/parallel_test.cpp - Parallel componential tests --*- C++ -*-===//

#include "componential/componential.h"
#include "componential/parallel.h"
#include "corpus/corpus.h"
#include "test_util.h"

#include <atomic>
#include <filesystem>
#include <stdexcept>

using namespace spidey;
using namespace spidey::test;

namespace {

/// A multi-component corpus program large enough that the worker pool
/// actually interleaves components.
Parsed corpusProgramFor(const char *Name) {
  Parsed R = parseFiles(generateProgram(benchmarkConfig(Name)));
  EXPECT_TRUE(R.Ok) << R.Diags.str();
  return R;
}

/// The constants of every top-level define, as one renderable string.
std::string topLevelConstants(const Program &P, const AnalysisMaps &Maps,
                              const ConstraintSystem &S) {
  std::string Out;
  for (const Component &C : P.Components)
    for (const TopForm &F : C.Forms) {
      if (F.DefVar == NoVar || Maps.VarVar[F.DefVar] == NoSetVar)
        continue;
      Out += P.Syms.name(P.var(F.DefVar).Name);
      Out += ":";
      for (Constant K : S.constantsOf(Maps.VarVar[F.DefVar])) {
        Out += " ";
        Out += S.context().Constants.str(K, P.Syms);
      }
      Out += "\n";
    }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===
// WorkerPool
//===----------------------------------------------------------------------===

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
  std::vector<std::atomic<int>> Hits(257);
  parallelFor(Pool, 257, [&](uint32_t I) { ++Hits[I]; });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(WorkerPool, ReusableAfterWait) {
  WorkerPool Pool(2);
  std::atomic<int> Sum{0};
  parallelFor(Pool, 10, [&](uint32_t I) { Sum += int(I); });
  EXPECT_EQ(Sum.load(), 45);
  parallelFor(Pool, 10, [&](uint32_t I) { Sum += int(I); });
  EXPECT_EQ(Sum.load(), 90);
}

TEST(WorkerPool, PropagatesJobExceptions) {
  WorkerPool Pool(3);
  EXPECT_THROW(parallelFor(Pool, 8,
                           [&](uint32_t I) {
                             if (I == 5)
                               throw std::runtime_error("job failed");
                           }),
               std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> Ran{0};
  parallelFor(Pool, 4, [&](uint32_t) { ++Ran; });
  EXPECT_EQ(Ran.load(), 4);
}

//===----------------------------------------------------------------------===
// Determinism: the combined closed system must be identical for every
// thread count (the merge commits file images in component order).
//===----------------------------------------------------------------------===

TEST(ParallelComponential, DeterministicAcrossThreadCounts) {
  Parsed R = corpusProgramFor("scanner");
  ASSERT_GE(R.Prog->Components.size(), 4u);

  std::string Reference;
  std::string ReferenceConsts;
  for (unsigned Threads : {1u, 2u, WorkerPool::defaultThreadCount()}) {
    ComponentialOptions Opts;
    Opts.Threads = Threads;
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    std::string Str = CA.combined().str();
    std::string Consts =
        topLevelConstants(*R.Prog, CA.maps(), CA.combined());
    EXPECT_FALSE(Str.empty());
    if (Reference.empty()) {
      Reference = std::move(Str);
      ReferenceConsts = std::move(Consts);
    } else {
      EXPECT_EQ(Str, Reference) << "thread count " << Threads;
      EXPECT_EQ(Consts, ReferenceConsts) << "thread count " << Threads;
    }
  }
}

TEST(ParallelComponential, DeterministicAcrossSimplifyAlgorithms) {
  // Same property per simplification algorithm: the algorithm changes the
  // combined system, but the thread count never does.
  Parsed R = corpusProgramFor("scanner");
  for (SimplifyAlgorithm Alg :
       {SimplifyAlgorithm::None, SimplifyAlgorithm::Empty,
        SimplifyAlgorithm::EpsilonRemoval}) {
    std::string Reference;
    for (unsigned Threads : {1u, 4u}) {
      ComponentialOptions Opts;
      Opts.Simplify = Alg;
      Opts.Threads = Threads;
      ComponentialAnalyzer CA(*R.Prog, Opts);
      CA.run();
      std::string Str = CA.combined().str();
      if (Reference.empty())
        Reference = std::move(Str);
      else
        EXPECT_EQ(Str, Reference)
            << simplifyAlgorithmName(Alg) << " with " << Threads
            << " threads";
    }
  }
}

TEST(ParallelComponential, ParallelMatchesWholeProgram) {
  // Thread fan-out must not change what the analysis computes: compare a
  // 4-thread componential run against the whole-program analysis on the
  // cross-component interface.
  Parsed R = parseFiles(
      {{"lib.ss", "(define (wrap x) (cons x '()))"},
       {"use.ss", "(define boxed (wrap 7))"
                  "(define got (car boxed))"}});
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  Analysis Whole = analyzeProgram(*R.Prog);
  ComponentialOptions Opts;
  Opts.Threads = 4;
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  auto Full = CA.reconstruct(1);
  EXPECT_EQ(topLevelConstants(*R.Prog, CA.maps(), *Full),
            topLevelConstants(*R.Prog, Whole.Maps, *Whole.System));
}

//===----------------------------------------------------------------------===
// Constraint-file cache under the parallel runner.
//===----------------------------------------------------------------------===

TEST(ParallelComponential, CacheRelinkAcrossCrossReferences) {
  // Regression for the external re-link path: several components whose
  // interfaces reference each other, analyzed twice through the file
  // cache. Every file must be reused, and every cross-referenced define
  // must keep the constants of a fresh run.
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "spidey_parallel_cache_test").string();
  fs::remove_all(Dir);

  const std::vector<SourceFile> Files = {
      {"a.ss", "(define base (cons 1 'one))"
               "(define (tagof p) (cdr p))"},
      {"b.ss", "(define (reuse) (tagof base))"
               "(define picked (reuse))"},
      {"c.ss", "(define both (cons picked base))"},
  };

  std::string Fresh;
  {
    Parsed R = parseFiles(Files);
    ASSERT_TRUE(R.Ok) << R.Diags.str();
    ComponentialOptions Opts;
    Opts.CacheDir = Dir;
    Opts.Threads = 4;
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    Fresh = topLevelConstants(*R.Prog, CA.maps(), CA.combined());
    for (const ComponentRunStats &CS : CA.componentStats())
      EXPECT_FALSE(CS.ReusedFile);
  }
  {
    Parsed R = parseFiles(Files);
    ComponentialOptions Opts;
    Opts.CacheDir = Dir;
    Opts.Threads = 4;
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats())
      EXPECT_TRUE(CS.ReusedFile);
    EXPECT_EQ(topLevelConstants(*R.Prog, CA.maps(), CA.combined()), Fresh);
  }
  fs::remove_all(Dir);
}

TEST(ParallelComponential, CacheWorksOnCorpusAcrossThreadCounts) {
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "spidey_parallel_corpus_cache").string();
  fs::remove_all(Dir);

  Parsed R = corpusProgramFor("scanner");
  std::string Fresh;
  {
    ComponentialOptions Opts;
    Opts.CacheDir = Dir;
    Opts.Threads = 4;
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    Fresh = topLevelConstants(*R.Prog, CA.maps(), CA.combined());
  }
  // Reload with a different thread count; reuse must not change results.
  {
    Parsed R2 = corpusProgramFor("scanner");
    ComponentialOptions Opts;
    Opts.CacheDir = Dir;
    Opts.Threads = 2;
    ComponentialAnalyzer CA(*R2.Prog, Opts);
    CA.run();
    for (const ComponentRunStats &CS : CA.componentStats())
      EXPECT_TRUE(CS.ReusedFile);
    EXPECT_EQ(topLevelConstants(*R2.Prog, CA.maps(), CA.combined()), Fresh);
  }
  fs::remove_all(Dir);
}
