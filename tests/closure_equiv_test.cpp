//===-- tests/closure_equiv_test.cpp - Engine vs. reference ----*- C++ -*-===//
///
/// Property test for the incremental closure engine: the least solution it
/// computes (constantsOf for every variable) must be identical to the one
/// the naive sweep-to-fixpoint ReferenceClosure computes, on
///
///  - randomly generated raw constraint systems (closing adders and the
///    raw-adds+close() path both), and
///  - systems derived from fuzz-generated and corpus-generated programs.
///
//===----------------------------------------------------------------------===//

#include "analysis/analysis.h"
#include "constraints/reference_closure.h"
#include "corpus/corpus.h"
#include "fuzz/fuzzgen.h"
#include "test_util.h"

#include <functional>
#include <random>
#include <sstream>

using namespace spidey;
using namespace spidey::test;

namespace {

/// One random constraint, chosen over a fixed small var/selector/constant
/// universe.
struct RandomConstraint {
  enum class Kind : uint8_t { ConstLB, SelLB, VarUB, SelUB, FilterUB };
  Kind K;
  SetVar A, B;
  Constant C;
  Selector S;
  KindMask M;
};

/// \p NumCs random constraints over the variables \p Vars.
std::vector<RandomConstraint>
randomConstraintsOver(ConstraintContext &Ctx, const std::vector<SetVar> &Vars,
                      uint32_t NumCs, std::mt19937 &Rng) {
  auto Pick = [&](uint32_t N) { return Rng() % N; };
  const uint32_t NumVars = static_cast<uint32_t>(Vars.size());

  // A polarity-mixed selector palette and a kind-diverse constant palette.
  std::vector<Selector> Sels = {Ctx.Car,      Ctx.Cdr, Ctx.Rng,
                                Ctx.BoxPlus,  Ctx.BoxMinus,
                                Ctx.VecMinus, Ctx.dom(0), Ctx.dom(1)};
  std::vector<Constant> Consts = {
      Ctx.Constants.basic(ConstKind::Num),
      Ctx.Constants.basic(ConstKind::Nil),
      Ctx.Constants.basic(ConstKind::True),
      Ctx.Constants.basic(ConstKind::Pair),
      Ctx.Constants.makeTag(ConstKind::FnTag, 1, SourceLoc{}),
      Ctx.Constants.basic(ConstKind::BoxTag),
  };
  std::vector<KindMask> Masks = {
      AnyKindMask,
      kindBit(ConstKind::Pair),
      kindBit(ConstKind::Num) | kindBit(ConstKind::True),
      kindBit(ConstKind::FnTag) | kindBit(ConstKind::BoxTag),
  };

  std::vector<RandomConstraint> Out;
  for (uint32_t I = 0; I < NumCs; ++I) {
    RandomConstraint C;
    C.K = static_cast<RandomConstraint::Kind>(Pick(5));
    C.A = Vars[Pick(NumVars)];
    C.B = Vars[Pick(NumVars)];
    C.C = Consts[Pick(static_cast<uint32_t>(Consts.size()))];
    C.S = Sels[Pick(static_cast<uint32_t>(Sels.size()))];
    C.M = Masks[Pick(static_cast<uint32_t>(Masks.size()))];
    Out.push_back(C);
  }
  return Out;
}

std::vector<RandomConstraint> randomConstraints(ConstraintContext &Ctx,
                                                unsigned Seed) {
  std::mt19937 Rng(Seed);
  uint32_t NumVars = 4 + Rng() % 9;
  std::vector<SetVar> Vars;
  for (uint32_t I = 0; I < NumVars; ++I)
    Vars.push_back(Ctx.freshVar());
  uint32_t NumCs = 15 + Rng() % 46;
  return randomConstraintsOver(Ctx, Vars, NumCs, Rng);
}

void feedEngine(ConstraintSystem &S, const std::vector<RandomConstraint> &Cs,
                bool Raw) {
  for (const RandomConstraint &C : Cs) {
    switch (C.K) {
    case RandomConstraint::Kind::ConstLB:
      Raw ? S.addConstLowerRaw(C.A, C.C) : S.addConstLower(C.A, C.C);
      break;
    case RandomConstraint::Kind::SelLB:
      Raw ? S.addSelLowerRaw(C.A, C.S, C.B) : S.addSelLower(C.A, C.S, C.B);
      break;
    case RandomConstraint::Kind::VarUB:
      Raw ? S.addVarUpperRaw(C.A, C.B) : S.addVarUpper(C.A, C.B);
      break;
    case RandomConstraint::Kind::SelUB:
      Raw ? S.addSelUpperRaw(C.A, C.S, C.B) : S.addSelUpper(C.A, C.S, C.B);
      break;
    case RandomConstraint::Kind::FilterUB:
      Raw ? S.addFilterUpperRaw(C.A, C.M, C.B) : S.addFilterUpper(C.A, C.M, C.B);
      break;
    }
  }
  if (Raw)
    S.close();
}

void feedReference(ReferenceClosure &R,
                   const std::vector<RandomConstraint> &Cs) {
  for (const RandomConstraint &C : Cs) {
    switch (C.K) {
    case RandomConstraint::Kind::ConstLB:
      R.addConstLower(C.A, C.C);
      break;
    case RandomConstraint::Kind::SelLB:
      R.addSelLower(C.A, C.S, C.B);
      break;
    case RandomConstraint::Kind::VarUB:
      R.addVarUpper(C.A, C.B);
      break;
    case RandomConstraint::Kind::SelUB:
      R.addSelUpper(C.A, C.S, C.B);
      break;
    case RandomConstraint::Kind::FilterUB:
      R.addFilterUpper(C.A, C.M, C.B);
      break;
    }
  }
  R.close();
}

/// variables() by its definition: every variable with a bound, plus the
/// far side of every SelLB lower bound and of every upper bound,
/// ascending.
std::vector<SetVar> variablesByDefinition(const ConstraintSystem &S) {
  std::vector<SetVar> Out;
  for (SetVar V = 0; V < S.context().numVars(); ++V) {
    const std::vector<LowerBound> &Lows = S.lowerBounds(V);
    const std::vector<UpperBound> &Ups = S.upperBounds(V);
    if (!Lows.empty() || !Ups.empty())
      Out.push_back(V);
    for (const LowerBound &L : Lows)
      if (L.K == LowerBound::Kind::SelLB)
        Out.push_back(L.Other);
    for (const UpperBound &U : Ups)
      Out.push_back(U.Other);
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

/// Asserts that \p S and its clone list exactly the variables the
/// definition names.
void expectVariablesAsDefined(const ConstraintSystem &S,
                              const std::string &What) {
  std::vector<SetVar> Want = variablesByDefinition(S);
  EXPECT_EQ(S.variables(), Want) << What;
  EXPECT_EQ(S.clone().variables(), Want) << What << " (clone)";
}

/// Asserts that engine and reference agree on constantsOf for every
/// variable either side mentions.
void expectSameSolution(const ConstraintSystem &S, const ReferenceClosure &R,
                        const char *What, unsigned Seed) {
  std::vector<SetVar> Vars = S.variables();
  for (SetVar V : R.variables())
    Vars.push_back(V);
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  for (SetVar V : Vars)
    EXPECT_EQ(S.constantsOf(V), R.constantsOf(V))
        << What << " seed " << Seed << ": least solutions differ at v" << V;
}

} // namespace

//===----------------------------------------------------------------------===
// Random raw systems, via the closing adders (online path).
//===----------------------------------------------------------------------===

TEST(ClosureEquiv, RandomSystemsOnline) {
  for (unsigned Seed = 1; Seed <= 25; ++Seed) {
    ConstraintContext Ctx;
    std::vector<RandomConstraint> Cs = randomConstraints(Ctx, Seed);
    ConstraintSystem S(Ctx);
    feedEngine(S, Cs, /*Raw=*/false);
    ReferenceClosure R(Ctx);
    feedReference(R, Cs);
    expectSameSolution(S, R, "online", Seed);
  }
}

//===----------------------------------------------------------------------===
// The same systems via raw adds + close() (offline Tarjan path).
//===----------------------------------------------------------------------===

TEST(ClosureEquiv, RandomSystemsOffline) {
  for (unsigned Seed = 1; Seed <= 25; ++Seed) {
    ConstraintContext Ctx;
    std::vector<RandomConstraint> Cs = randomConstraints(Ctx, Seed);
    ConstraintSystem S(Ctx);
    feedEngine(S, Cs, /*Raw=*/true);
    ReferenceClosure R(Ctx);
    feedReference(R, Cs);
    expectSameSolution(S, R, "offline", Seed);
  }
}

//===----------------------------------------------------------------------===
// Online and offline closure of the same raw system must agree with each
// other, too (the engine against itself). Bound lists keep insertion
// order, which legitimately differs between the two paths, so compare the
// closed systems as sets of rendered constraints.
//===----------------------------------------------------------------------===

namespace {
std::vector<std::string> sortedLines(const std::string &S) {
  std::vector<std::string> Lines;
  std::istringstream In(S);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}
} // namespace

TEST(ClosureEquiv, OnlineMatchesOffline) {
  for (unsigned Seed = 100; Seed <= 110; ++Seed) {
    ConstraintContext Ctx;
    std::vector<RandomConstraint> Cs = randomConstraints(Ctx, Seed);
    ConstraintSystem Online(Ctx), Offline(Ctx);
    feedEngine(Online, Cs, /*Raw=*/false);
    feedEngine(Offline, Cs, /*Raw=*/true);
    EXPECT_EQ(sortedLines(Online.str()), sortedLines(Offline.str()))
        << "seed " << Seed;
    EXPECT_EQ(Online.size(), Offline.size()) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===
// Derived systems: fuzz-generated programs.
//===----------------------------------------------------------------------===

TEST(ClosureEquiv, FuzzProgramSystems) {
  for (unsigned Seed = 1; Seed <= 8; ++Seed) {
    FuzzGenConfig Cfg;
    Cfg.Seed = Seed;
    Parsed P = parseFiles(generateFuzzProgram(Cfg));
    ASSERT_TRUE(P.Ok) << P.Diags.str();
    Analysis A = analyzeProgram(*P.Prog);
    ReferenceClosure R(*A.Ctx);
    R.absorb(*A.System);
    R.close();
    expectSameSolution(*A.System, R, "fuzz program", Seed);
  }
}

//===----------------------------------------------------------------------===
// Derived systems: a small corpus program.
//===----------------------------------------------------------------------===

TEST(ClosureEquiv, CorpusProgramSystem) {
  GeneratorConfig Cfg;
  Cfg.Seed = 7;
  Cfg.NumComponents = 2;
  Cfg.TargetLines = 80;
  Parsed P = parseFiles(generateProgram(Cfg));
  ASSERT_TRUE(P.Ok) << P.Diags.str();
  Analysis A = analyzeProgram(*P.Prog);
  ReferenceClosure R(*A.Ctx);
  R.absorb(*A.System);
  R.close();
  expectSameSolution(*A.System, R, "corpus program", Cfg.Seed);
}

//===----------------------------------------------------------------------===
// variables() against its definition, on every corpus above and on the
// clones of those systems.
//===----------------------------------------------------------------------===

TEST(ClosureEquiv, VariablesMatchesItsDefinition) {
  for (unsigned Seed = 1; Seed <= 25; ++Seed)
    for (bool Raw : {false, true}) {
      ConstraintContext Ctx;
      std::vector<RandomConstraint> Cs = randomConstraints(Ctx, Seed);
      ConstraintSystem S(Ctx);
      feedEngine(S, Cs, Raw);
      expectVariablesAsDefined(S, std::string(Raw ? "offline" : "online") +
                                      " seed " + std::to_string(Seed));
    }
  for (unsigned Seed = 1; Seed <= 8; ++Seed) {
    FuzzGenConfig Cfg;
    Cfg.Seed = Seed;
    Parsed P = parseFiles(generateFuzzProgram(Cfg));
    ASSERT_TRUE(P.Ok) << P.Diags.str();
    Analysis A = analyzeProgram(*P.Prog);
    expectVariablesAsDefined(*A.System,
                             "fuzz program seed " + std::to_string(Seed));
  }
  GeneratorConfig Cfg;
  Cfg.Seed = 7;
  Cfg.NumComponents = 2;
  Cfg.TargetLines = 80;
  Parsed P = parseFiles(generateProgram(Cfg));
  ASSERT_TRUE(P.Ok) << P.Diags.str();
  Analysis A = analyzeProgram(*P.Prog);
  expectVariablesAsDefined(*A.System, "corpus program");
}

TEST(ClosureEquiv, VariablesMergesFarSideVariablesWithoutBounds) {
  // v1 and v5 carry no bound of their own: v1 is the far side of a SelLB
  // lower bound, below two slot owners, and v5, the highest id
  // mentioned, the far side of an upper bound past every slot. v4 is
  // unmentioned.
  ConstraintContext Ctx;
  std::vector<SetVar> V;
  for (int I = 0; I < 6; ++I)
    V.push_back(Ctx.freshVar());
  ConstraintSystem S(Ctx);
  S.addVarUpper(V[0], V[5]);
  S.addConstLower(V[2], Ctx.Constants.basic(ConstKind::Num));
  S.addSelLower(V[2], Ctx.Car, V[1]);
  S.addVarUpper(V[3], V[2]);
  std::vector<SetVar> Want = {V[0], V[1], V[2], V[3], V[5]};
  EXPECT_EQ(S.variables(), Want);
  EXPECT_EQ(S.numTouchedVars(), 3u); // v0, v2, v3 own slots
  expectVariablesAsDefined(S, "hand-built");
}

//===----------------------------------------------------------------------===
// clone(): a copy of a closed system continues the online closure from the
// fixpoint (the componential step-3 reconstruct builds on it). Table-driven
// over the corpora above: each case is a base system built with raw adds
// and close(), plus a further batch of random constraints over its
// variables.
//===----------------------------------------------------------------------===

namespace {

struct CloneCase {
  std::string What;
  ConstraintContext *Ctx;
  /// Raw adds of the base constraints, then close() under whatever token
  /// the system carries.
  std::function<void(ConstraintSystem &)> BuildClosed;
  std::vector<RandomConstraint> Batch;
};

void forEachCloneCase(const std::function<void(const CloneCase &)> &Fn) {
  for (unsigned Seed = 1; Seed <= 25; ++Seed) {
    ConstraintContext Ctx;
    std::vector<RandomConstraint> Cs = randomConstraints(Ctx, Seed);
    std::vector<RandomConstraint> Base(Cs.begin(), Cs.begin() + Cs.size() / 2);
    std::vector<RandomConstraint> Batch(Cs.begin() + Cs.size() / 2, Cs.end());
    Fn({"random seed " + std::to_string(Seed), &Ctx,
        [&](ConstraintSystem &S) { feedEngine(S, Base, /*Raw=*/true); },
        Batch});
  }
  auto Derived = [&](const std::string &What, const Parsed &P,
                     unsigned Seed) {
    ASSERT_TRUE(P.Ok) << P.Diags.str();
    Analysis A = analyzeProgram(*P.Prog);
    std::mt19937 Rng(Seed);
    std::vector<RandomConstraint> Batch =
        randomConstraintsOver(*A.Ctx, A.System->variables(), 40, Rng);
    Fn({What, A.Ctx.get(),
        [&](ConstraintSystem &S) {
          S.absorbRaw(*A.System);
          S.close();
        },
        Batch});
  };
  for (unsigned Seed = 1; Seed <= 8; ++Seed) {
    FuzzGenConfig Cfg;
    Cfg.Seed = Seed;
    Derived("fuzz program seed " + std::to_string(Seed),
            parseFiles(generateFuzzProgram(Cfg)), Seed);
  }
  GeneratorConfig Cfg;
  Cfg.Seed = 7;
  Cfg.NumComponents = 2;
  Cfg.TargetLines = 80;
  Derived("corpus program", parseFiles(generateProgram(Cfg)), Cfg.Seed);
}

/// The reference fixpoint of every bound \p S holds plus a batch.
ReferenceClosure referenceOf(const ConstraintSystem &S,
                             const std::vector<RandomConstraint> &Batch) {
  ReferenceClosure R(S.context());
  R.absorb(S);
  feedReference(R, Batch);
  return R;
}

void expectZeroStats(const ClosureStats &St, const std::string &What) {
  EXPECT_EQ(St.TasksDrained, 0u) << What;
  EXPECT_EQ(St.CombinesAttempted, 0u) << What;
  EXPECT_EQ(St.CombinesInserted, 0u) << What;
  EXPECT_EQ(St.DedupHits, 0u) << What;
  EXPECT_EQ(St.EpsEdges, 0u) << What;
  EXPECT_EQ(St.EpsSccsCollapsed, 0u) << What;
  EXPECT_EQ(St.VarsUnified, 0u) << What;
  EXPECT_EQ(St.CycleSearchSteps, 0u) << What;
  EXPECT_EQ(St.PeakWorklistDepth, 0u) << What;
}

} // namespace

TEST(ClosureEquiv, CloneOfClosedSystemRendersIdentically) {
  forEachCloneCase([](const CloneCase &C) {
    ConstraintSystem S(*C.Ctx);
    C.BuildClosed(S);
    ConstraintSystem Copy = S.clone();
    EXPECT_EQ(Copy.str(), S.str()) << C.What;
    EXPECT_EQ(Copy.size(), S.size()) << C.What;
    EXPECT_EQ(Copy.variables(), S.variables()) << C.What;
  });
}

TEST(ClosureEquiv, CloneContinuesTheClosureFromTheFixpoint) {
  forEachCloneCase([](const CloneCase &C) {
    ConstraintSystem S(*C.Ctx);
    C.BuildClosed(S);
    const std::string Before = S.str();

    ConstraintSystem Copy = S.clone();
    feedEngine(Copy, C.Batch, /*Raw=*/false);
    // The long way round: re-insert every bound and close again.
    ConstraintSystem Rebuilt(*C.Ctx);
    Rebuilt.absorbRaw(S);
    Rebuilt.close();
    feedEngine(Rebuilt, C.Batch, /*Raw=*/false);

    EXPECT_EQ(Copy.str(), Rebuilt.str()) << C.What;
    EXPECT_EQ(Copy.size(), Rebuilt.size()) << C.What;
    expectSameSolution(Copy, referenceOf(S, C.Batch), C.What.c_str(), 0);
    EXPECT_EQ(S.str(), Before) << C.What << ": the source changed";
  });
}

TEST(ClosureEquiv, CloneOfCutShortCloseResumesToTheFixpoint) {
  unsigned CutShort = 0;
  forEachCloneCase([&](const CloneCase &C) {
    ConstraintSystem Full(*C.Ctx);
    C.BuildClosed(Full);
    // A budget of half the full close's work trips mid-drain whenever the
    // close polls at all (large enough systems); smaller ones finish.
    CancelToken Budget;
    Budget.setWorkBudget(Full.stats().CombinesAttempted / 2 + 1);
    ConstraintSystem Cut(*C.Ctx);
    Cut.setCancel(&Budget);
    C.BuildClosed(Cut);
    if (!Cut.closureCancelled())
      return;
    ++CutShort;

    ConstraintSystem Copy = Cut.clone();
    CancelToken Fresh;
    Copy.setCancel(&Fresh);
    Copy.close();
    EXPECT_FALSE(Copy.closureCancelled()) << C.What;
    EXPECT_EQ(Copy.str(), Full.str()) << C.What;
    // Every bound of the cut system is real, so the reference closure of
    // it is the base's fixpoint.
    expectSameSolution(Copy, referenceOf(Cut, {}), C.What.c_str(), 0);
  });
  EXPECT_GT(CutShort, 0u) << "no corpus system was large enough to cut";
}

TEST(ClosureEquiv, CloneStartsWithZeroStatsAndChargesNoSourceToken) {
  unsigned WouldCharge = 0;
  forEachCloneCase([&](const CloneCase &C) {
    // Cut the source's close short at its first poll, then give it a
    // counting token: finishing the close on a clone that had kept the
    // source's token would charge it.
    CancelToken Stop;
    Stop.cancel();
    ConstraintSystem S(*C.Ctx);
    S.setCancel(&Stop);
    C.BuildClosed(S);
    CancelToken Counting;
    S.setCancel(&Counting);

    ConstraintSystem Copy = S.clone();
    expectZeroStats(Copy.stats(), C.What);
    EXPECT_FALSE(Copy.closureCancelled()) << C.What;
    Copy.close();
    feedEngine(Copy, C.Batch, /*Raw=*/false);
    EXPECT_FALSE(Copy.closureCancelled()) << C.What;
    EXPECT_EQ(Counting.workUsed(), 0u) << C.What;
    // A drain charges its token at least every 64 tasks or 1024 combines.
    const ClosureStats &Work = Copy.stats();
    WouldCharge += Work.CombinesAttempted &&
                   (Work.TasksDrained >= 64 || Work.CombinesAttempted >= 1024);

    ConstraintSystem Closed(*C.Ctx);
    C.BuildClosed(Closed);
    feedEngine(Closed, C.Batch, /*Raw=*/false);
    EXPECT_EQ(Copy.str(), Closed.str()) << C.What;
  });
  EXPECT_GT(WouldCharge, 0u) << "no clone did enough work to be charged";
}
