//===-- tests/constraints_test.cpp - Θ closure tests -----------*- C++ -*-===//
///
/// Unit tests for the constraint engine: the five closure rules of
/// fig. 2.3/3.1, incrementality, deduplication, raw-add + close, and the
/// constraint-file round trip.
///
//===----------------------------------------------------------------------===//

#include "constraints/constraint_system.h"
#include "constraints/serialize.h"

#include <gtest/gtest.h>

#include <random>

using namespace spidey;

namespace {

struct Fixture : ::testing::Test {
  ConstraintContext Ctx;
  ConstraintSystem S{Ctx};
  Constant CNum = Ctx.Constants.basic(ConstKind::Num);
  Constant CNil = Ctx.Constants.basic(ConstKind::Nil);

  SetVar fresh() { return Ctx.freshVar(); }
};

} // namespace

TEST_F(Fixture, RuleS1PropagatesConstants) {
  // c ≤ β, β ≤ γ  ⟹  c ≤ γ
  SetVar B = fresh(), G = fresh();
  S.addConstLower(B, CNum);
  S.addVarUpper(B, G);
  EXPECT_TRUE(S.hasConstLower(G, CNum));
}

TEST_F(Fixture, RuleS1WorksInEitherOrder) {
  SetVar B = fresh(), G = fresh();
  S.addVarUpper(B, G);
  S.addConstLower(B, CNum);
  EXPECT_TRUE(S.hasConstLower(G, CNum));
}

TEST_F(Fixture, RuleS2PropagatesRangeBounds) {
  // α ≤ rng(β), β ≤ γ  ⟹  α ≤ rng(γ); then rng(γ) ≤ δ gives α ≤ δ.
  SetVar A = fresh(), B = fresh(), G = fresh(), D = fresh();
  S.addSelLower(B, Ctx.Rng, A);
  S.addVarUpper(B, G);
  S.addSelUpper(G, Ctx.Rng, D);
  S.addConstLower(A, CNum);
  EXPECT_TRUE(S.hasConstLower(D, CNum));
}

TEST_F(Fixture, RuleS3PropagatesDomainBounds) {
  // dom(β) ≤ α, β ≤ γ  ⟹  dom(γ) ≤ α; then δ ≤ dom(γ) gives δ ≤ α.
  SetVar A = fresh(), B = fresh(), G = fresh(), D = fresh();
  S.addSelLower(B, Ctx.dom(0), A);
  S.addVarUpper(B, G);
  S.addSelUpper(G, Ctx.dom(0), D);
  S.addConstLower(D, CNil);
  EXPECT_TRUE(S.hasConstLower(A, CNil));
}

TEST_F(Fixture, RuleS4ConnectsRangeToCallSite) {
  // α ≤ rng(β) and rng(β) ≤ γ  ⟹  α ≤ γ.
  SetVar A = fresh(), B = fresh(), G = fresh();
  S.addSelLower(B, Ctx.Rng, A);
  S.addSelUpper(B, Ctx.Rng, G);
  S.addConstLower(A, CNum);
  EXPECT_TRUE(S.hasConstLower(G, CNum));
}

TEST_F(Fixture, RuleS5ConnectsActualToFormal) {
  // dom(β) ≤ α and γ ≤ dom(β)  ⟹  γ ≤ α.
  SetVar A = fresh(), B = fresh(), G = fresh();
  S.addSelLower(B, Ctx.dom(0), A);
  S.addSelUpper(B, Ctx.dom(0), G);
  S.addConstLower(G, CNum);
  EXPECT_TRUE(S.hasConstLower(A, CNum));
}

TEST_F(Fixture, FullApplicationFlow) {
  // Model ((λx.x) 1): t ≤ f, dom(f) ≤ x, x ≤ rng(f),
  //                   arg ≤ dom(f), rng(f) ≤ r, num ≤ arg.
  SetVar F = fresh(), X = fresh(), Arg = fresh(), R = fresh();
  Constant T = Ctx.Constants.makeTag(ConstKind::FnTag, 1, {});
  S.addConstLower(F, T);
  S.addSelLower(F, Ctx.dom(0), X);
  S.addSelLower(F, Ctx.Rng, X); // body is x itself
  S.addSelUpper(F, Ctx.dom(0), Arg);
  S.addSelUpper(F, Ctx.Rng, R);
  S.addConstLower(Arg, CNum);
  EXPECT_TRUE(S.hasConstLower(X, CNum));
  EXPECT_TRUE(S.hasConstLower(R, CNum));
}

TEST_F(Fixture, NoSpuriousMixingOfSelectors) {
  SetVar A = fresh(), B = fresh(), G = fresh();
  S.addSelLower(B, Ctx.Rng, A);
  S.addSelUpper(B, Ctx.Car, G); // different selector: no rule applies
  S.addConstLower(A, CNum);
  EXPECT_FALSE(S.hasConstLower(G, CNum));
}

TEST_F(Fixture, TransitiveChains) {
  std::vector<SetVar> Vars;
  for (int I = 0; I < 50; ++I)
    Vars.push_back(fresh());
  for (int I = 0; I + 1 < 50; ++I)
    S.addVarUpper(Vars[I], Vars[I + 1]);
  S.addConstLower(Vars[0], CNum);
  EXPECT_TRUE(S.hasConstLower(Vars[49], CNum));
}

TEST_F(Fixture, CyclesTerminate) {
  SetVar A = fresh(), B = fresh();
  S.addVarUpper(A, B);
  S.addVarUpper(B, A);
  S.addSelLower(A, Ctx.Rng, A); // α ≤ rng(α): self-recursive structure
  S.addConstLower(A, CNum);
  EXPECT_TRUE(S.hasConstLower(B, CNum));
}

TEST_F(Fixture, DeduplicationKeepsSizeStable) {
  SetVar A = fresh(), B = fresh();
  S.addVarUpper(A, B);
  size_t Size = S.size();
  S.addVarUpper(A, B);
  EXPECT_EQ(S.size(), Size);
}

TEST_F(Fixture, RawAddThenCloseMatchesIncremental) {
  // Build the same system raw+close and incrementally; compare contents.
  ConstraintSystem Inc{Ctx};
  std::mt19937 Rng(42);
  std::vector<SetVar> Vars;
  for (int I = 0; I < 30; ++I)
    Vars.push_back(fresh());
  auto Pick = [&] { return Vars[Rng() % Vars.size()]; };
  for (int I = 0; I < 200; ++I) {
    switch (Rng() % 4) {
    case 0: {
      SetVar A = Pick();
      Constant C = Rng() % 2 ? CNum : CNil;
      S.addConstLowerRaw(A, C);
      Inc.addConstLower(A, C);
      break;
    }
    case 1: {
      SetVar A = Pick(), B = Pick();
      S.addVarUpperRaw(A, B);
      Inc.addVarUpper(A, B);
      break;
    }
    case 2: {
      SetVar A = Pick(), B = Pick();
      Selector Sel = Rng() % 2 ? Ctx.Rng : Ctx.dom(0);
      S.addSelLowerRaw(A, Sel, B);
      Inc.addSelLower(A, Sel, B);
      break;
    }
    default: {
      SetVar A = Pick(), B = Pick();
      Selector Sel = Rng() % 2 ? Ctx.Rng : Ctx.dom(0);
      S.addSelUpperRaw(A, Sel, B);
      Inc.addSelUpper(A, Sel, B);
      break;
    }
    }
  }
  S.close();
  EXPECT_EQ(S.size(), Inc.size());
  auto Lines = [](const std::string &Text) {
    std::vector<std::string> Out;
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t End = Text.find('\n', Pos);
      Out.push_back(Text.substr(Pos, End - Pos));
      Pos = End == std::string::npos ? Text.size() : End + 1;
    }
    std::sort(Out.begin(), Out.end());
    return Out;
  };
  EXPECT_EQ(Lines(S.str()), Lines(Inc.str()));
}

TEST_F(Fixture, AbsorbRawThenCloseCombinesSystems) {
  ConstraintSystem S2{Ctx};
  SetVar A = fresh(), B = fresh();
  S.addConstLower(A, CNum);
  S2.addVarUpper(A, B);
  ConstraintSystem Combined{Ctx};
  Combined.absorbRaw(S);
  Combined.absorbRaw(S2);
  Combined.close();
  EXPECT_TRUE(Combined.hasConstLower(B, CNum));
}

TEST_F(Fixture, ConstantsOfReturnsSorted) {
  SetVar A = fresh();
  S.addConstLower(A, CNil);
  S.addConstLower(A, CNum);
  auto Cs = S.constantsOf(A);
  ASSERT_EQ(Cs.size(), 2u);
  EXPECT_LE(Cs[0], Cs[1]);
}

TEST(Serialize, RoundTripPreservesSolution) {
  ConstraintContext Ctx;
  SymbolTable Syms;
  ConstraintSystem S{Ctx};
  SetVar F = Ctx.freshVar(), X = Ctx.freshVar(), R = Ctx.freshVar();
  Constant T = Ctx.Constants.makeTag(ConstKind::FnTag, 1, {0, 3, 7},
                                     Syms.intern("id"));
  S.addConstLower(F, T);
  S.addSelLower(F, Ctx.dom(0), X);
  S.addSelLower(F, Ctx.Rng, X);
  std::string Text = serializeConstraints(
      S, {{"fn", F}, {"res", R}}, Syms, hashSource("src"), "fp-test");

  ConstraintImage Img;
  std::string Error;
  ASSERT_TRUE(decodeConstraintFile(Text, Img, Error)) << Error;
  EXPECT_EQ(Img.SourceHash, hashSource("src"));
  EXPECT_EQ(Img.OptionsFingerprint, "fp-test");
  ASSERT_EQ(Img.Externals.size(), 2u);
  EXPECT_EQ(Img.Externals[0].first, "fn");

  // Re-link: apply the function to a number and check the flow works.
  ConstraintContext Ctx2;
  ConstraintSystem S2{Ctx2};
  SetVar F2 = commitConstraintImage(Img, Syms, S2) + Img.Externals[0].second;
  S2.close();
  SetVar Arg = Ctx2.freshVar(), Out = Ctx2.freshVar();
  S2.addSelUpper(F2, Ctx2.dom(0), Arg);
  S2.addSelUpper(F2, Ctx2.Rng, Out);
  S2.addConstLower(Arg, Ctx2.Constants.basic(ConstKind::Num));
  EXPECT_TRUE(S2.hasConstLower(Out, Ctx2.Constants.basic(ConstKind::Num)));

  // Tag metadata survives.
  auto Consts = S2.constantsOf(F2);
  ASSERT_EQ(Consts.size(), 1u);
  const ConstantInfo &I = Ctx2.Constants.info(Consts[0]);
  EXPECT_EQ(I.K, ConstKind::FnTag);
  EXPECT_EQ(I.Arity, 1u);
  EXPECT_EQ(I.Loc.Line, 3u);
  EXPECT_EQ(Syms.name(I.Label), "id");
}

TEST(Serialize, RejectsGarbage) {
  ConstraintImage Img;
  std::string Error;
  EXPECT_FALSE(decodeConstraintFile("not a file", Img, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Serialize, HashDiffersOnDifferentSources) {
  EXPECT_NE(hashSource("a"), hashSource("b"));
  EXPECT_EQ(hashSource("same"), hashSource("same"));
}
