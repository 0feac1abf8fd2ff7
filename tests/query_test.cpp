//===-- tests/query_test.cpp - Demand-driven query layer -----------------===//
//
// The query subsystem behind serve's flow / check-summary commands
// (DESIGN.md §12): the persistent FlowIndex must agree edge-for-edge with
// the per-request FlowGraph browser it replaced, reachability must honor
// the cancellation token, and the QueryEngine's memoized answers must be
// byte-identical to the legacy whole-program paths.
//
//===----------------------------------------------------------------------===//

#include "componential/componential.h"
#include "debugger/checks.h"
#include "debugger/flow.h"
#include "query/flow_index.h"
#include "query/query_engine.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace spidey;
using namespace spidey::test;

namespace {

std::vector<SetVar> listOf(FlowIndex::Neighbors N) {
  return std::vector<SetVar>(N.begin(), N.end());
}

/// Asserts every neighbor list and count the index reports equals the
/// browser's (whose lists are sorted and deduplicated), for every
/// variable of the (closed) system — the equivalence the serve loop's
/// sublinear path rests on.
void expectIndexMatchesGraph(const ConstraintSystem &S) {
  FlowGraph FG(S);
  FlowIndex FI;
  FI.build(S);
  for (SetVar V : S.variables()) {
    EXPECT_EQ(listOf(FI.parents(V)), FG.parents(V)) << "var " << V;
    EXPECT_EQ(listOf(FI.children(V)), FG.children(V)) << "var " << V;
    FlowIndex::Reach Anc = FI.ancestors(V, nullptr);
    FlowIndex::Reach Desc = FI.descendants(V, nullptr);
    EXPECT_TRUE(Anc.Complete);
    EXPECT_TRUE(Desc.Complete);
    EXPECT_EQ(Anc.Count, FG.ancestors(V).size()) << "var " << V;
    EXPECT_EQ(Desc.Count, FG.descendants(V).size()) << "var " << V;
  }
}

TEST(FlowIndex, MatchesFlowGraphOnHandBuiltSystem) {
  ConstraintContext Ctx;
  ConstraintSystem S{Ctx};
  // A diamond with a filter edge, a self-contained pair, and an isolated
  // variable: a ≤ b, a ≤ c, b ≤ d, c ≤ d (filtered), e ≤ f.
  SetVar A = Ctx.freshVar(), B = Ctx.freshVar(), C = Ctx.freshVar();
  SetVar D = Ctx.freshVar(), E = Ctx.freshVar(), F = Ctx.freshVar();
  Ctx.freshVar(); // isolated
  S.addConstLower(A, Ctx.Constants.basic(ConstKind::Num));
  S.addVarUpper(A, B);
  // The same pair again as a filter edge: one ε-edge, counted once in
  // both directions.
  S.addFilterUpper(A, kindBit(ConstKind::Num), B);
  S.addVarUpper(A, C);
  S.addVarUpper(B, D);
  S.addFilterUpper(C, kindBit(ConstKind::Num), D);
  S.addVarUpper(E, F);
  expectIndexMatchesGraph(S);

  FlowIndex FI;
  FI.build(S);
  EXPECT_EQ(FI.children(A).size(), 2u);
  EXPECT_EQ(FI.parents(B).size(), 1u);
  EXPECT_EQ(FI.parents(D).size(), 2u);
  EXPECT_EQ(FI.descendants(A, nullptr).Count, 3u); // b, c, d — not a itself
  EXPECT_EQ(FI.ancestors(D, nullptr).Count, 3u);
  EXPECT_EQ(FI.descendants(F, nullptr).Count, 0u);
  // Out-of-range probes (NoSetVar) answer empty, not UB.
  EXPECT_EQ(FI.children(NoSetVar).size(), 0u);
  EXPECT_EQ(FI.parents(NoSetVar).size(), 0u);
  FlowIndex::Reach R = FI.descendants(NoSetVar, nullptr);
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.Count, 0u);
}

TEST(FlowIndex, MatchesFlowGraphOnAnalyzedProgram) {
  std::vector<SourceFile> Files = {
      {"lib.ss", "(define (twice f x) (f (f x)))\n"
                 "(define (inc n) (+ n 1))\n"},
      {"main.ss", "(define four (twice inc 2))\n"
                  "(define pair (cons four '()))\n"
                  "(display (car pair))\n"}};
  Parsed PR = parseFiles(Files);
  ASSERT_TRUE(PR.Ok) << PR.Diags.str();
  ComponentialOptions CO;
  CO.Threads = 1;
  ComponentialAnalyzer CA(*PR.Prog, CO);
  CA.run();
  expectIndexMatchesGraph(CA.combined());
}

TEST(FlowIndex, RebuildAfterClearMatchesAgain) {
  ConstraintContext Ctx;
  ConstraintSystem S{Ctx};
  SetVar A = Ctx.freshVar(), B = Ctx.freshVar();
  S.addVarUpper(A, B);
  FlowIndex FI;
  FI.build(S);
  ASSERT_TRUE(FI.built());
  FI.clear();
  EXPECT_FALSE(FI.built());
  EXPECT_EQ(FI.children(A).size(), 0u);
  S.addVarUpper(B, A); // now a cycle
  FI.build(S);
  // The start variable is excluded even when a cycle leads back to it,
  // matching FlowGraph's ancestors/descendants contract.
  EXPECT_EQ(FI.descendants(A, nullptr).Count, FlowGraph(S).descendants(A).size());
  EXPECT_EQ(FI.descendants(A, nullptr).Count, 1u);
}

TEST(FlowIndex, CancellationReturnsPartialCountThenRecovers) {
  // A 64-node chain: a0 ≤ a1 ≤ ... ≤ a63. A tiny budget must cut the
  // walk short (Complete=false, partial count); a disarmed token must
  // then see the full chain.
  ConstraintContext Ctx;
  ConstraintSystem S{Ctx};
  constexpr unsigned N = 64;
  std::vector<SetVar> Vars;
  for (unsigned I = 0; I < N; ++I)
    Vars.push_back(Ctx.freshVar());
  for (unsigned I = 0; I + 1 < N; ++I)
    S.addVarUpper(Vars[I], Vars[I + 1]);
  FlowIndex FI;
  FI.build(S);

  CancelToken Tok;
  Tok.rearm(/*DeadlineMs=*/0, /*BudgetUnits=*/5);
  FlowIndex::Reach Partial = FI.descendants(Vars[0], &Tok);
  EXPECT_FALSE(Partial.Complete);
  EXPECT_LT(Partial.Count, N - 1);
  EXPECT_TRUE(Tok.cancelled());

  Tok.rearm(0, 0); // disarm: the same token must serve a full walk again
  FlowIndex::Reach Full = FI.descendants(Vars[0], &Tok);
  EXPECT_TRUE(Full.Complete);
  EXPECT_EQ(Full.Count, size_t(N - 1));
  EXPECT_EQ(FI.ancestors(Vars[N - 1], &Tok).Count, size_t(N - 1));
}

//===----------------------------------------------------------------------===
// QueryEngine against the legacy whole-program paths.
//===----------------------------------------------------------------------===

struct QueryEngineTest : ::testing::Test {
  std::vector<SourceFile> Files = {
      {"a.ss", "(define one 1)\n"
               "(define (add x y) (+ x y))\n"},
      {"b.ss", "(define three (add one 2))\n"
               "(define lst (cons three '()))\n"},
      {"c.ss", "(display (car lst))\n"
               "(display (car three))\n"}}; // (car three): unsafe check

  Parsed PR;
  std::unique_ptr<ComponentialAnalyzer> CA;
  QueryEngine QE;

  void analyze() {
    PR = parseFiles(Files);
    ASSERT_TRUE(PR.Ok) << PR.Diags.str();
    ComponentialOptions CO;
    CO.Threads = 1;
    CA = std::make_unique<ComponentialAnalyzer>(*PR.Prog, CO);
    CA->run();
    QE.rebind(*PR.Prog, *CA, /*Tok=*/nullptr, /*Volatile=*/false,
              /*AllowVerdictCache=*/true, CA->optionsFingerprint());
  }

  /// The pre-demand-driven summary: a full reconstruct sweep.
  DebugReport legacySweep() {
    DebugReport Report;
    for (uint32_t I = 0; I < PR.Prog->Components.size(); ++I) {
      std::unique_ptr<ConstraintSystem> Full = CA->reconstruct(I);
      DebugReport Part = runChecks(*PR.Prog, CA->maps(), *Full);
      for (CheckResult &CR : Part.Results)
        if (CR.Loc.File == I)
          Report.Results.push_back(std::move(CR));
    }
    return Report;
  }
};

TEST_F(QueryEngineTest, FlowMatchesFlowGraphForEveryTopLevelName) {
  analyze();
  const ConstraintSystem &S = CA->combined();
  FlowGraph FG(S);
  for (VarId V = 0; V < PR.Prog->numVars(); ++V) {
    const VarInfo &Info = PR.Prog->var(V);
    if (!Info.TopLevel)
      continue;
    std::string Name = PR.Prog->Syms.name(Info.Name);
    QueryEngine::FlowAnswer Ans = QE.flow(Name);
    ASSERT_TRUE(Ans.Found) << Name;
    EXPECT_FALSE(Ans.Degraded);
    SetVar A = CA->maps().varVar(V);
    if (Ans.Var != A)
      continue; // a shadowing later definition; first wins
    EXPECT_EQ(Ans.Parents, FG.parents(A).size()) << Name;
    EXPECT_EQ(Ans.Children, FG.children(A).size()) << Name;
    EXPECT_EQ(Ans.Ancestors, FG.ancestors(A).size()) << Name;
    EXPECT_EQ(Ans.Descendants, FG.descendants(A).size()) << Name;
  }
  EXPECT_FALSE(QE.flow("query-test-no-such-name").Found);
  // One index build and one name-index build served every query above.
  EXPECT_EQ(QE.stats().IndexBuilds, 1u);
  EXPECT_EQ(QE.stats().NameIndexBuilds, 1u);
}

TEST_F(QueryEngineTest, SummaryBytesMatchLegacySweep) {
  analyze();
  DebugReport Legacy = legacySweep();
  QueryEngine::SummaryAnswer Ans = QE.checkSummary();
  EXPECT_FALSE(Ans.Partial);
  EXPECT_EQ(Ans.Possible, Legacy.numPossible());
  EXPECT_EQ(Ans.Unsafe, Legacy.numUnsafe());
  EXPECT_GT(Ans.Unsafe, 0u) << "(car three) should flag";
  EXPECT_EQ(Ans.Summary, Legacy.summary(*PR.Prog));
  EXPECT_EQ(Ans.Rechecked, PR.Prog->Components.size());
  EXPECT_EQ(Ans.Reused, 0u);
}

TEST_F(QueryEngineTest, WarmSummaryReusesEveryVerdict) {
  analyze();
  QueryEngine::SummaryAnswer Cold = QE.checkSummary();
  QueryEngine::SummaryAnswer Warm = QE.checkSummary();
  EXPECT_EQ(Warm.Summary, Cold.Summary);
  EXPECT_EQ(Warm.Rechecked, 0u);
  EXPECT_EQ(Warm.Reused, PR.Prog->Components.size());
}

TEST_F(QueryEngineTest, EditRechecksExactlyTheDirtiedComponent) {
  analyze();
  QE.checkSummary();
  // Append a self-contained define to the last file: no other component's
  // source or external regions change, so exactly one recheck.
  Files.back().Text += "(define query-probe 42)\n";
  analyze(); // fresh generation, same engine — memo caches survive rebind
  QueryEngine::SummaryAnswer Ans = QE.checkSummary();
  EXPECT_EQ(Ans.Rechecked, 1u);
  EXPECT_EQ(Ans.Reused, PR.Prog->Components.size() - 1);
  EXPECT_EQ(Ans.Summary, legacySweep().summary(*PR.Prog));
}

TEST_F(QueryEngineTest, InterfaceEditInvalidatesDependentVerdicts) {
  analyze();
  QE.checkSummary();
  // Changing `one` to a pair changes the region feeding add/three/lst:
  // every dependent component must be rechecked, and the new summary must
  // still match the legacy sweep (the (car three) complaint disappears —
  // three is now built from a pair-typed operand, still a num via +, but
  // the digests over its region changed either way).
  Files[0].Text = "(define one 1)\n"
                  "(define (add x y) (+ x y))\n"
                  "(define extra (cons 1 '()))\n";
  analyze();
  QueryEngine::SummaryAnswer Ans = QE.checkSummary();
  EXPECT_GE(Ans.Rechecked, 1u);
  EXPECT_EQ(Ans.Summary, legacySweep().summary(*PR.Prog));
}

TEST_F(QueryEngineTest, FlowMemoHitsAcrossGenerations) {
  analyze();
  QueryEngine::FlowAnswer First = QE.flow("one");
  ASSERT_TRUE(First.Found);
  EXPECT_FALSE(First.FromSummary);

  // Same generation: the memo answers.
  QueryEngine::FlowAnswer Again = QE.flow("one");
  EXPECT_TRUE(Again.FromSummary);
  EXPECT_EQ(Again.Var, First.Var);
  EXPECT_EQ(Again.Ancestors, First.Ancestors);

  // A new generation with identical sources: digests are stable, so the
  // memo still answers without touching the flow index.
  analyze();
  uint64_t HitsBefore = QE.stats().FlowMemoHits;
  QueryEngine::FlowAnswer Warm = QE.flow("one");
  EXPECT_TRUE(Warm.FromSummary);
  EXPECT_EQ(QE.stats().FlowMemoHits, HitsBefore + 1);
  EXPECT_EQ(Warm.Descendants, First.Descendants);
}

TEST_F(QueryEngineTest, ConstantOnlyEditInvalidatesTheFlowMemo) {
  analyze();
  QueryEngine::FlowAnswer Before = QE.flow("one");
  ASSERT_EQ(Before.Kinds, std::vector<std::string>{"num"});
  QE.checkSummary();
  // The same bounds with another constant in them: the region digest has
  // to move, or the memo would serve the old kinds.
  Files[0].Text = "(define one \"one\")\n"
                  "(define (add x y) (+ x y))\n";
  analyze();
  QueryEngine::FlowAnswer After = QE.flow("one");
  EXPECT_FALSE(After.FromSummary);
  EXPECT_EQ(After.Kinds, std::vector<std::string>{"str"});
  EXPECT_EQ(QE.checkSummary().Summary, legacySweep().summary(*PR.Prog));
}

TEST_F(QueryEngineTest, VolatileGenerationNeverTouchesMemo) {
  analyze();
  QE.checkSummary();
  QE.flow("one");
  uint64_t HitsBefore = QE.stats().FlowMemoHits;
  uint64_t ReusedBefore = QE.stats().VerdictsReused;
  // Rebind the same generation as volatile (the degraded-analyze path):
  // answers still flow, but no memo reads or writes.
  QE.rebind(*PR.Prog, *CA, nullptr, /*Volatile=*/true,
            /*AllowVerdictCache=*/true, CA->optionsFingerprint());
  QueryEngine::FlowAnswer Ans = QE.flow("one");
  EXPECT_TRUE(Ans.Found);
  EXPECT_FALSE(Ans.FromSummary);
  QueryEngine::SummaryAnswer Sum = QE.checkSummary();
  EXPECT_EQ(Sum.Reused, 0u);
  EXPECT_EQ(QE.stats().FlowMemoHits, HitsBefore);
  EXPECT_EQ(QE.stats().VerdictsReused, ReusedBefore);
  // Back to non-volatile: the caches are intact and answer again.
  QE.rebind(*PR.Prog, *CA, nullptr, /*Volatile=*/false,
            /*AllowVerdictCache=*/true, CA->optionsFingerprint());
  EXPECT_TRUE(QE.flow("one").FromSummary);
}

TEST_F(QueryEngineTest, CancelledFlowDegradesThenRecoversExactly) {
  PR = parseFiles(Files);
  ASSERT_TRUE(PR.Ok) << PR.Diags.str();
  ComponentialOptions CO;
  CO.Threads = 1;
  CA = std::make_unique<ComponentialAnalyzer>(*PR.Prog, CO);
  CA->run();
  CancelToken Tok;
  QE.rebind(*PR.Prog, *CA, &Tok, /*Volatile=*/false,
            /*AllowVerdictCache=*/true, CA->optionsFingerprint());

  Tok.rearm(0, 0);
  QueryEngine::FlowAnswer Exact = QE.flow("three");
  ASSERT_TRUE(Exact.Found);
  ASSERT_FALSE(Exact.Degraded);

  // A pre-cancelled token degrades the walk; the answer is not memoized.
  Tok.rearm(0, 1);
  Tok.cancel();
  QueryEngine::FlowAnswer Degraded = QE.flow("lst");
  EXPECT_TRUE(Degraded.Found);
  EXPECT_TRUE(Degraded.Degraded);
  EXPECT_FALSE(Degraded.FromSummary);
  EXPECT_GE(QE.stats().DegradedQueries, 1u);

  // Next in-budget query: exact again, and exact equals the first run.
  Tok.rearm(0, 0);
  QueryEngine::FlowAnswer Recovered = QE.flow("three");
  EXPECT_FALSE(Recovered.Degraded);
  EXPECT_EQ(Recovered.Ancestors, Exact.Ancestors);
  EXPECT_EQ(Recovered.Descendants, Exact.Descendants);

  // A cancelled summary sweep answers partial and completes next time.
  Tok.cancel();
  QueryEngine::SummaryAnswer Partial = QE.checkSummary();
  EXPECT_TRUE(Partial.Partial);
  Tok.rearm(0, 0);
  QueryEngine::SummaryAnswer Full = QE.checkSummary();
  EXPECT_FALSE(Full.Partial);
  EXPECT_EQ(Full.Summary, legacySweep().summary(*PR.Prog));
}

} // namespace
