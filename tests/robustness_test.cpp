//===-- tests/robustness_test.cpp - Failure-injection tests ----*- C++ -*-===//
///
/// Failure injection: corrupted/truncated constraint files, stale caches,
/// entailment budget exhaustion, and parser error resilience. The library
/// must degrade gracefully (fall back to re-derivation, report Unknown,
/// collect diagnostics) rather than crash or silently mis-analyze.
///
//===----------------------------------------------------------------------===//

#include "componential/componential.h"
#include "constraints/serialize.h"
#include "rtg/entail.h"
#include "test_util.h"

#include <filesystem>
#include <fstream>

using namespace spidey;
using namespace spidey::test;

namespace {

std::string serializeSample(ConstraintContext &Ctx, SymbolTable &Syms) {
  ConstraintSystem S(Ctx);
  SetVar A = Ctx.freshVar(), B = Ctx.freshVar();
  S.addConstLower(A, Ctx.Constants.basic(ConstKind::Num));
  S.addVarUpper(A, B);
  S.addSelLower(B, Ctx.Rng, A);
  S.addSelUpper(B, Ctx.dom(0), A);
  S.addFilterUpper(A, kindBit(ConstKind::Num), B);
  return serializeConstraints(S, {{"a", A}, {"b", B}}, Syms, "h", "fp");
}

/// Decodes \p Text and commits it into a system over \p Ctx; returns the
/// system's size.
size_t roundTrip(const std::string &Text, SymbolTable &Syms,
                 ConstraintContext &Ctx) {
  ConstraintImage Img;
  std::string Error;
  EXPECT_TRUE(decodeConstraintFile(Text, Img, Error)) << Error;
  ConstraintSystem Out(Ctx);
  commitConstraintImage(Img, Syms, Out);
  return Out.size();
}

} // namespace

TEST(Robustness, TruncatedConstraintFilesRejected) {
  ConstraintContext Ctx;
  SymbolTable Syms;
  std::string Text = serializeSample(Ctx, Syms);
  // Every strict prefix must be rejected or parse without crashing;
  // prefixes cut before the constraint section can never yield all the
  // constraints.
  size_t ConstraintSection = Text.find("\nconstraints");
  for (size_t Cut = 0; Cut < Text.size(); Cut += 7) {
    ConstraintImage Img;
    std::string Error;
    bool Ok = decodeConstraintFile(Text.substr(0, Cut), Img, Error);
    if (Cut < ConstraintSection) {
      EXPECT_FALSE(Ok && !Img.Records.empty()) << "cut at " << Cut;
    }
  }
  // The full text round-trips with every constraint intact.
  ConstraintContext Ctx2;
  EXPECT_EQ(roundTrip(Text, Syms, Ctx2), 6u); // 5 written + 1 closure-derived
}

TEST(Robustness, CorruptedFieldsRejected) {
  ConstraintContext Ctx;
  SymbolTable Syms;
  std::string Text = serializeSample(Ctx, Syms);
  auto Expect = [&](const std::string &Mutated) {
    ConstraintImage Img;
    std::string Error;
    EXPECT_FALSE(decodeConstraintFile(Mutated, Img, Error));
    EXPECT_FALSE(Error.empty());
  };
  Expect("wrong-magic 2\n" + Text.substr(Text.find("hash")));
  Expect("spidey-constraint-file 999\n" + Text.substr(Text.find("hash")));
  {
    // Missing options line (a version-1 file) is rejected, not misparsed.
    std::string T = Text;
    size_t P = T.find("options ");
    ASSERT_NE(P, std::string::npos);
    size_t End = T.find('\n', P);
    T.erase(P, End - P + 1);
    Expect(T);
  }
  {
    // Out-of-range variable index.
    std::string T = Text;
    size_t P = T.rfind("vu ");
    if (P != std::string::npos)
      T.replace(P, 5, "vu 99");
    Expect(T);
  }
  {
    // Bad constraint op.
    std::string T = Text;
    size_t P = T.rfind("cl ");
    if (P != std::string::npos)
      T.replace(P, 2, "zz");
    Expect(T);
  }
}

TEST(Robustness, HostileConstraintFilesRejectedWithDiagnostic) {
  ConstraintContext Ctx;
  SymbolTable Syms;
  std::string Text = serializeSample(Ctx, Syms);
  // Every mutation below must be rejected with a non-empty diagnostic —
  // and in particular must not crash (SelectorTable::intern asserts
  // polarity consistency, so a raw intern of a flipped selector aborts).
  auto Expect = [&](const std::string &Mutated, const char *What) {
    ConstraintImage Img;
    std::string Error;
    EXPECT_FALSE(decodeConstraintFile(Mutated, Img, Error)) << What;
    EXPECT_FALSE(Error.empty()) << What;
  };
  auto Replace = [&](const std::string &From, const std::string &To) {
    std::string T = Text;
    size_t P = T.find(From);
    EXPECT_NE(P, std::string::npos) << From;
    T.replace(P, From.size(), To);
    return T;
  };

  // Duplicate external entries.
  Expect(Replace("  a ", "  b "), "duplicate external key");
  // Out-of-range variable id in an external entry.
  {
    std::string T = Text;
    size_t P = T.find("  a ");
    ASSERT_NE(P, std::string::npos);
    T.replace(P, 5, "  a 7"); // sample has fewer than 8 vars
    Expect(T, "external var id out of range");
  }
  // Unknown selector name.
  Expect(Replace("  rng +", "  wat +"), "unknown selector");
  // Known selector with flipped polarity (would trip the intern assert).
  Expect(Replace("  rng +", "  rng -"), "selector polarity mismatch");
  Expect(Replace("  dom0 -", "  dom0 +"), "dom polarity mismatch");
  // Other format versions (past or future) are rejected, not misparsed.
  Expect(Replace("spidey-constraint-file 2", "spidey-constraint-file 1"),
         "old version");
  Expect(Replace("spidey-constraint-file 2", "spidey-constraint-file 3"),
         "future version");
  Expect(Replace("spidey-constraint-file 2", "spidey-constraint-file 999"),
         "far-future version");
  // Counts no text of this size could hold (2^62) are rejected before
  // anything is allocated for them.
  Expect(Replace("vars 2", "vars 4611686018427387904"), "huge vars count");
  Expect(Replace("selectors 2", "selectors 4611686018427387904"),
         "huge selectors count");
  Expect(Replace("constants 1", "constants 4611686018427387904"),
         "huge constants count");
}

TEST(Robustness, SelectorFamiliesRoundTrip) {
  // Every selector family the deriver can emit serializes and loads back.
  ConstraintContext Ctx;
  SymbolTable Syms;
  ConstraintSystem S(Ctx);
  SetVar A = Ctx.freshVar(), B = Ctx.freshVar();
  std::vector<Selector> Sels = {
      Ctx.Rng,
      Ctx.Car,
      Ctx.Cdr,
      Ctx.BoxPlus,
      Ctx.BoxMinus,
      Ctx.VecPlus,
      Ctx.VecMinus,
      Ctx.Ue,
      Ctx.Ui,
      Ctx.ClObj,
      Ctx.dom(0),
      Ctx.dom(3),
      Ctx.ivarPlus(Syms.intern("count"), Syms),
      Ctx.ivarMinus(Syms.intern("count"), Syms),
      Ctx.Selectors.intern("sfld+point.x", Polarity::Monotone,
                           kindBit(ConstKind::StructTag)),
      Ctx.Selectors.intern("sfld-point.x", Polarity::AntiMonotone,
                           kindBit(ConstKind::StructTag)),
  };
  for (Selector Sel : Sels) {
    if (Ctx.Selectors.isMonotone(Sel))
      S.addSelLowerRaw(A, Sel, B);
    else
      S.addSelUpperRaw(A, Sel, B);
  }
  std::string Text = serializeConstraints(S, {{"a", A}}, Syms, "h", "fp");
  ConstraintContext Ctx2;
  EXPECT_EQ(roundTrip(Text, Syms, Ctx2), S.size());
}

TEST(Robustness, GarbageCacheFileFallsBackToDerivation) {
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "spidey_garbage_cache").string();
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  Parsed R = parseFiles({{"only.ss", "(define v (cons 1 2))"}});
  ComponentialOptions Opts;
  Opts.CacheDir = Dir;
  // Plant a garbage cache file where the component's file would live.
  {
    std::ofstream Out(Dir + "/" + componentCacheFileName("only.ss"));
    Out << "total nonsense\n";
  }
  ComponentialAnalyzer CA(*R.Prog, Opts);
  CA.run();
  EXPECT_FALSE(CA.componentStats()[0].ReusedFile);
  // And the analysis is still right.
  SetVar V = CA.maps().varVar(R.Prog->Components[0].Forms[0].DefVar);
  auto Full = CA.reconstruct(0);
  auto Consts = Full->constantsOf(V);
  ASSERT_EQ(Consts.size(), 1u);
  EXPECT_EQ(CA.context().Constants.kind(Consts[0]), ConstKind::Pair);
  fs::remove_all(Dir);
}

TEST(Robustness, StaleHashForcesRederivation) {
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "spidey_stale_cache").string();
  fs::remove_all(Dir);
  {
    Parsed R = parseFiles({{"c.ss", "(define v 1)"}});
    ComponentialOptions Opts;
    Opts.CacheDir = Dir;
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
  }
  {
    Parsed R = parseFiles({{"c.ss", "(define v 'changed)"}});
    ComponentialOptions Opts;
    Opts.CacheDir = Dir;
    ComponentialAnalyzer CA(*R.Prog, Opts);
    CA.run();
    EXPECT_FALSE(CA.componentStats()[0].ReusedFile);
  }
  fs::remove_all(Dir);
}

TEST(Robustness, EntailmentBudgetReportsUnknown) {
  // A system large enough that a 1-node budget exhausts immediately.
  ConstraintContext Ctx;
  ConstraintSystem S(Ctx);
  std::vector<SetVar> E;
  for (int I = 0; I < 6; ++I) {
    SetVar A = Ctx.freshVar(), B = Ctx.freshVar();
    S.addSelLower(A, Ctx.Rng, B);
    S.addSelLower(B, Ctx.Rng, A);
    S.addConstLower(A, Ctx.Constants.basic(ConstKind::Num));
    E.push_back(A);
  }
  EntailOptions Opts;
  Opts.NodeBudget = 1;
  EXPECT_EQ(entails(S, S, E, Opts), Decision::Unknown);
  // With a real budget the self-entailment holds.
  EXPECT_EQ(entails(S, S, E), Decision::Yes);
}

TEST(Robustness, ParserCollectsDiagnosticsWithoutCrashing) {
  const char *BadPrograms[] = {
      "(",
      ")",
      "(define)",
      "(lambda)",
      "(lambda x x)",
      "(let ([x]) x)",
      "(letrec x)",
      "(if)",
      "(cond [else 1] [#t 2])",
      "(unit (export nope))",
      "(invoke 1 2)",
      "(class)",
      "(ivar 1)",
      "(set-ivar! 1 2)",
      "(: 1 2 3)",
      "(quote)",
      "((()))",
      "#\\toolong",
      "\"unterminated",
  };
  for (const char *Source : BadPrograms) {
    Parsed R = parse(Source);
    EXPECT_FALSE(R.Ok) << Source;
    EXPECT_TRUE(R.Diags.hasErrors()) << Source;
  }
}

TEST(Robustness, MachineSurvivesPathologicalPrograms) {
  // Self-application and other classics terminate via fuel or faults, not
  // crashes.
  {
    Parsed R = parseOk("((lambda (f) (f f)) (lambda (f) (f f)))");
    Machine M(*R.Prog);
    M.setFuel(50'000);
    EXPECT_EQ(M.runProgram().St, RunResult::Status::OutOfFuel);
  }
  {
    Parsed R = parseOk("(define (grow l) (grow (cons 1 l))) (grow '())");
    Machine M(*R.Prog);
    M.setFuel(50'000);
    EXPECT_EQ(M.runProgram().St, RunResult::Status::OutOfFuel);
  }
}

TEST(Robustness, AnalysisOfPathologicalProgramsTerminates) {
  // The analysis is total even where evaluation diverges.
  Parsed R = parseOk("((lambda (f) (f f)) (lambda (f) (f f)))");
  Analysis A = analyzeProgram(*R.Prog);
  EXPECT_GT(A.System->size(), 0u);
  Parsed R2 = parseOk("(define (grow l) (grow (cons 1 l))) (grow '())");
  Analysis A2 = analyzeProgram(*R2.Prog);
  EXPECT_EQ(kindsOf(A2, lastTopExpr(*R2.Prog)), std::vector<std::string>{})
      << "grow never returns";
}
