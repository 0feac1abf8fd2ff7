//===-- tests/bulk_clone_test.cpp - Derive fast path tests -----*- C++ -*-===//
//
// The bulk-clone instantiation path (compiled schema images replayed into
// a bulk-reserved variable range, DESIGN.md §10) must be observationally
// indistinguishable from the classic per-constraint substitution walk:
// same systems byte for byte, same variable numbering, same statistics.
// The classic path stays available behind AnalysisOptions::BulkClone as
// the differential oracle exercised here.
//
//===----------------------------------------------------------------------===//

#include "componential/componential.h"
#include "corpus/corpus.h"
#include "test_util.h"

using namespace spidey;
using namespace spidey::test;

namespace {

/// Sources with let/define polymorphism shapes that stress the image
/// compiler: nested schemas, recursion knots, checks inside schema
/// bodies, filters, structures, and duplicated bindings.
const char *PolySources[] = {
    "(define (id x) x) (id 'a) (id 1) (id #t)",
    "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))"
    "(len (list 1 2 3)) (len (list 'a 'b))",
    "(let ([id (lambda (x) x)]) (begin (id 'a) (id 1)))",
    "(let ([f (lambda (x) (let ([g (lambda (y) y)]) (g x)))])"
    "  (begin (f 1) (f 'a)))",
    "(define (first p) (car p)) (first (cons 1 2)) (first (cons 'a 'b))",
    "(define (sel p a b) (if (pair? p) a b)) (sel (cons 1 2) 'x \"y\")",
    "(define-struct pt (x y))"
    "(define (get-x p) (pt-x p)) (get-x (make-pt 1 2))",
    "(let ([one 1] [two 1] [three 1]) (+ one (+ two three)))",
};

/// Whole-program analysis under both instantiation paths; returns the
/// rendered systems (their text embeds every bound and variable number).
std::pair<std::string, std::string> bothPaths(const Program &P,
                                              AnalysisOptions Opts,
                                              DeriveStats *NewStats = nullptr) {
  Opts.BulkClone = false;
  Analysis Old = analyzeProgram(P, Opts);
  Opts.BulkClone = true;
  Analysis New = analyzeProgram(P, Opts);
  EXPECT_EQ(Old.Stats.SchemasCreated, New.Stats.SchemasCreated);
  EXPECT_EQ(Old.Stats.Instantiations, New.Stats.Instantiations);
  EXPECT_EQ(Old.Stats.InstantiatedConstraints,
            New.Stats.InstantiatedConstraints);
  if (NewStats)
    *NewStats = New.Stats;
  return {Old.System->str(), New.System->str()};
}

} // namespace

TEST(BulkClone, ByteIdenticalOnPolySources) {
  for (const char *Src : PolySources) {
    Parsed R = parseOk(Src);
    ASSERT_TRUE(R.Ok);
    for (PolyMode Mode : {PolyMode::Copy, PolyMode::Smart}) {
      AnalysisOptions Opts =
          polyAnalysisOptions(Mode, SimplifyAlgorithm::EpsilonRemoval);
      auto [OldStr, NewStr] = bothPaths(*R.Prog, Opts);
      EXPECT_EQ(OldStr, NewStr) << "source: " << Src;
    }
  }
}

TEST(BulkClone, ByteIdenticalOnGeneratedProgram) {
  // A multi-component corpus program: schemas with cross-component
  // references, filters, and every derivation shape the generator emits.
  Parsed R = parseFiles(generateProgram(benchmarkConfig("scanner")));
  ASSERT_TRUE(R.Ok);
  for (PolyMode Mode : {PolyMode::Copy, PolyMode::Smart}) {
    AnalysisOptions Opts =
        polyAnalysisOptions(Mode, SimplifyAlgorithm::EpsilonRemoval);
    auto [OldStr, NewStr] = bothPaths(*R.Prog, Opts);
    EXPECT_EQ(OldStr, NewStr);
  }
}

TEST(BulkClone, CombinedSystemByteIdenticalComponential) {
  // The per-component derive runs in private contexts; the combined
  // system merged from their images must not depend on the instantiation
  // path either.
  Parsed R = parseFiles(generateProgram(benchmarkConfig("scanner")));
  ASSERT_TRUE(R.Ok);
  ComponentialOptions Opts;
  Opts.Derive =
      polyAnalysisOptions(PolyMode::Smart, SimplifyAlgorithm::EpsilonRemoval);
  Opts.Threads = 1;
  Opts.Derive.BulkClone = false;
  ComponentialAnalyzer Old(*R.Prog, Opts);
  Old.run();
  Opts.Derive.BulkClone = true;
  ComponentialAnalyzer New(*R.Prog, Opts);
  New.run();
  EXPECT_EQ(Old.combined().str(), New.combined().str());
  EXPECT_EQ(New.runInfo().Derive.SchemasCreated,
            Old.runInfo().Derive.SchemasCreated);
  EXPECT_GT(New.runInfo().Derive.BulkClonedConstraints, 0u);
  EXPECT_EQ(Old.runInfo().Derive.BulkClonedConstraints, 0u);
}

TEST(BulkClone, InternHitsOnDuplicatedBindings) {
  // Literal-valued bindings compile to identical images (their records
  // mention only interned basic constants and the dense quantified
  // numbering), so duplicates share one image.
  Parsed R = parseOk("(let ([one 1] [two 1] [three 1] [sym 'a] [sym2 'a])"
                     "  (begin one two three sym sym2))");
  ASSERT_TRUE(R.Ok);
  AnalysisOptions Opts =
      polyAnalysisOptions(PolyMode::Copy, SimplifyAlgorithm::EpsilonRemoval);
  Analysis A = analyzeProgram(*R.Prog, Opts);
  EXPECT_EQ(A.Stats.SchemasCreated, 5u);
  // one/two/three share an image (2 hits), sym/sym2 share another (1 hit).
  EXPECT_EQ(A.Stats.SchemaInternHits, 3u);
}

TEST(BulkClone, InternHitsAcrossComponents) {
  // Duplicated library bindings in different files: one Deriver handles
  // the whole program, so structurally identical schemas from different
  // components share an image. (Lambdas carry site tags with source
  // locations and never collide; location-free values do.)
  std::vector<SourceFile> Files = {
      {"a.ss", "(define lib-a (let ([default 1]) default))"},
      {"b.ss", "(define lib-b (let ([default 1]) default))"},
  };
  Parsed R = parseFiles(Files);
  ASSERT_TRUE(R.Ok);
  AnalysisOptions Opts =
      polyAnalysisOptions(PolyMode::Copy, SimplifyAlgorithm::EpsilonRemoval);
  Analysis A = analyzeProgram(*R.Prog, Opts);
  EXPECT_GE(A.Stats.SchemasCreated, 2u);
  EXPECT_GE(A.Stats.SchemaInternHits, 1u);
}

TEST(BulkClone, RederivationByteIdentical) {
  // Re-deriving a component with the same Deriver (the serve loop's warm
  // path does this) reuses cached expression variables, so the second
  // pass generalizes nothing. Both instantiation paths must agree on
  // that shape too.
  Parsed R = parseOk("(define (id x) x) (id 'a) (id 1)");
  ASSERT_TRUE(R.Ok);
  AnalysisOptions Opts =
      polyAnalysisOptions(PolyMode::Copy, SimplifyAlgorithm::EpsilonRemoval);
  std::string Strs[2];
  for (bool Bulk : {false, true}) {
    Opts.BulkClone = Bulk;
    ConstraintContext Ctx;
    AnalysisMaps Maps;
    Deriver D(*R.Prog, Ctx, Maps, Opts);
    ConstraintSystem S1(Ctx), S2(Ctx);
    D.deriveComponent(0, S1);
    D.deriveComponent(0, S2);
    Strs[Bulk] = S1.str() + "====\n" + S2.str();
  }
  EXPECT_EQ(Strs[0], Strs[1]);
}

TEST(BulkClone, MonoUnaffected) {
  // Mono mode creates no schemas; the flag must be inert.
  Parsed R = parseOk("(define (id x) x) (id 'a) (id 1)");
  ASSERT_TRUE(R.Ok);
  AnalysisOptions Opts; // Mono
  auto [OldStr, NewStr] = bothPaths(*R.Prog, Opts);
  EXPECT_EQ(OldStr, NewStr);
  Analysis A = analyzeProgram(*R.Prog, Opts);
  EXPECT_EQ(A.Stats.SchemasCreated, 0u);
  EXPECT_EQ(A.Stats.BulkClonedConstraints, 0u);
}
