//===-- fuzz/oracles.cpp --------------------------------------*- C++ -*-===//

#include "fuzz/oracles.h"

#include "componential/componential.h"
#include "constraints/reference_closure.h"
#include "debugger/checks.h"
#include "debugger/flow.h"
#include "interp/machine.h"
#include "serve/serve.h"
#include "simplify/simplify.h"
#include "support/faultinject.h"

#include <algorithm>
#include <unordered_set>

#include <map>
#include <set>
#include <sstream>

using namespace spidey;

const char *spidey::oracleName(Oracle O) {
  switch (O) {
  case Oracle::Soundness:
    return "soundness";
  case Oracle::Simplify:
    return "simplify";
  case Oracle::Componential:
    return "componential";
  case Oracle::Threads:
    return "threads";
  case Oracle::Closure:
    return "closure";
  case Oracle::Chaos:
    return "chaos";
  case Oracle::Query:
    return "query";
  }
  return "?";
}

bool spidey::oracleFromName(std::string_view Name, Oracle &Out) {
  for (unsigned I = 0; I < NumOracles; ++I)
    if (Name == oracleName(static_cast<Oracle>(I))) {
      Out = static_cast<Oracle>(I);
      return true;
    }
  return false;
}

namespace {

struct ParsedProgram {
  Program Prog;
  bool Ok = false;
  std::string Error;
};

ParsedProgram parseIt(const std::vector<SourceFile> &Files) {
  ParsedProgram R;
  DiagnosticEngine Diags;
  R.Ok = parseProgram(R.Prog, Diags, Files);
  if (!R.Ok)
    R.Error = Diags.str();
  return R;
}

/// Renders the constant set of a group of variables, canonically (sorted,
/// deduplicated, by display string — comparable across contexts).
std::string constsOf(const ConstraintSystem &S, const std::set<SetVar> &Vs,
                     const SymbolTable &Syms) {
  std::set<std::string> Names;
  for (SetVar V : Vs)
    for (Constant C : S.constantsOf(V))
      Names.insert(S.context().Constants.str(C, Syms));
  std::string Out = "{";
  for (const std::string &N : Names)
    Out += " " + N;
  return Out + " }";
}

/// Appends "<path> = {consts}" lines for \p Vs and, recursively, for the
/// variable groups one monotone selector below, to \p Depth; returns true
/// if the subtree contains any constant. Grouping by selector *name* makes
/// the profile a pure function of the observable flow, independent of
/// variable numbering — so profiles of systems in different contexts
/// (whole-program vs. componential) are comparable. Constant-free subtrees
/// are pruned: a selector edge to a provably empty set is observationally
/// identical to no edge, and simplification is free to drop it.
bool probe(const ConstraintSystem &S, const SymbolTable &Syms,
           const std::set<SetVar> &Vs, unsigned Depth, const std::string &Path,
           std::string &Out, bool Root = true) {
  std::string Line = Path + " = " + constsOf(S, Vs, Syms) + "\n";
  bool NonEmpty = Line.find('{') + 2 != Line.find('}'); // "{ }" is empty
  std::string KidsOut;
  if (Depth > 0) {
    const SelectorTable &Sels = S.context().Selectors;
    std::map<std::string, std::set<SetVar>> Kids;
    for (SetVar V : Vs)
      for (const LowerBound &L : S.lowerBounds(V))
        if (L.K == LowerBound::Kind::SelLB && Sels.isMonotone(L.Sel))
          Kids[Sels.name(L.Sel)].insert(L.Other);
    for (const auto &[Name, Group] : Kids)
      NonEmpty |=
          probe(S, Syms, Group, Depth - 1, Path + "." + Name, KidsOut, false);
  }
  if (Root || NonEmpty)
    Out += Line + KidsOut;
  return NonEmpty;
}

/// The observable profile of a closed system at one component's top-level
/// definitions: constants per define, plus selector-path constants to
/// \p Depth.
std::string profileComponent(const Program &P, const Component &C,
                             const AnalysisMaps &Maps,
                             const ConstraintSystem &S, unsigned Depth) {
  std::string Out;
  for (const TopForm &F : C.Forms) {
    if (F.DefVar == NoVar || Maps.VarVar[F.DefVar] == NoSetVar)
      continue;
    probe(S, P.Syms, {Maps.VarVar[F.DefVar]}, Depth,
          P.Syms.name(P.var(F.DefVar).Name), Out);
  }
  return Out;
}

/// Whole-program profile: every component's definitions.
std::string profile(const Program &P, const AnalysisMaps &Maps,
                    const ConstraintSystem &S, unsigned Depth) {
  std::string Out;
  for (const Component &C : P.Components)
    Out += profileComponent(P, C, Maps, S, Depth);
  return Out;
}

/// The verdicts of one file's check sites in \p S, one line per site in
/// site order — comparable across contexts, as profiles are.
std::string verdictsOf(const Program &P, const AnalysisMaps &Maps,
                       const ConstraintSystem &S, uint32_t File) {
  DebugReport R = runChecks(P, Maps, S, File);
  std::sort(R.Results.begin(), R.Results.end(),
            [](const CheckResult &A, const CheckResult &B) {
              return A.Site < B.Site;
            });
  std::ostringstream OS;
  for (const CheckResult &CR : R.Results)
    OS << CR.What << " check at " << CR.Loc.Line << ":" << CR.Loc.Col
       << (CR.Safe ? " safe\n" : " unsafe\n");
  return OS.str();
}

/// First line where two profiles disagree, for the violation message.
std::string firstDiff(const std::string &A, const std::string &B) {
  std::istringstream SA(A), SB(B);
  std::string LA, LB;
  for (;;) {
    bool HA = static_cast<bool>(std::getline(SA, LA));
    bool HB = static_cast<bool>(std::getline(SB, LB));
    if (!HA && !HB)
      return "(identical?)";
    if (!HA || !HB || LA != LB)
      return "'" + (HA ? LA : std::string("<missing>")) + "' vs '" +
             (HB ? LB : std::string("<missing>")) + "'";
  }
}

//===----------------------------------------------------------------------===
// Oracle 1: soundness against the evaluator.
//===----------------------------------------------------------------------===

OracleVerdict checkSoundness(const Program &P, const OracleOptions &Opts) {
  struct Config {
    const char *Name;
    AnalysisOptions Opts;
  };
  std::vector<Config> Configs;
  Configs.push_back({"mono+split", {}});
  {
    AnalysisOptions O;
    O.IfSplitting = false;
    Configs.push_back({"mono", O});
  }
  {
    AnalysisOptions O;
    O.Poly = PolyMode::Copy;
    Configs.push_back({"copy+split", O});
  }

  OracleVerdict V;
  for (const Config &C : Configs) {
    Analysis A = analyzeProgram(P, C.Opts);
    const ConstantTable &Consts = A.Ctx->Constants;

    Machine M(P);
    M.setInput(Opts.Input);
    M.setFuel(Opts.Fuel);
    std::ostringstream Diag;
    size_t Violations = 0;
    M.Trace = [&](ExprId E, const Value &Val) {
      ConstKind Want = valueAbstractKind(Val);
      for (Constant K : A.sba(E))
        if (Consts.kind(K) == Want)
          return;
      if (Violations++ == 0) {
        Diag << "[" << C.Name << "] label " << P.exprToString(E)
             << " produced " << constKindName(Want)
             << " but sba predicts only {";
        for (Constant K : A.sba(E))
          Diag << " " << constKindName(Consts.kind(K));
        Diag << " }";
      }
    };
    RunResult Out = M.runProgram();
    if (Violations) {
      V.Violation = true;
      V.Message = Diag.str();
      return V;
    }
    if (Out.St == RunResult::Status::Fault) {
      DebugReport Rep = runChecks(P, A.Maps, *A.System);
      bool Flagged = false;
      for (const CheckResult &CR : Rep.Results)
        if (CR.Site == Out.FaultSite && !CR.Safe)
          Flagged = true;
      if (!Flagged) {
        V.Violation = true;
        V.Message = std::string("[") + C.Name + "] fault at " +
                    P.exprToString(Out.FaultSite) + " (" + Out.Message +
                    ") not flagged as unsafe";
        return V;
      }
    }
  }
  return V;
}

//===----------------------------------------------------------------------===
// Oracle 2: simplification equivalence.
//===----------------------------------------------------------------------===

std::vector<SetVar> topLevelSetVars(const Program &P,
                                    const AnalysisMaps &Maps) {
  std::vector<SetVar> E;
  for (const Component &C : P.Components)
    for (const TopForm &F : C.Forms)
      if (F.DefVar != NoVar && Maps.VarVar[F.DefVar] != NoSetVar)
        E.push_back(Maps.VarVar[F.DefVar]);
  return E;
}

OracleVerdict checkSimplify(const Program &P, const OracleOptions &Opts) {
  OracleVerdict V;
  Analysis A = analyzeProgram(P);
  std::vector<SetVar> E = topLevelSetVars(P, A.Maps);
  // "None" is the identity baseline: the closed whole-program system.
  std::string Reference = profile(P, A.Maps, *A.System, Opts.Depth);
  for (SimplifyAlgorithm Alg :
       {SimplifyAlgorithm::Empty, SimplifyAlgorithm::Unreachable,
        SimplifyAlgorithm::EpsilonRemoval, SimplifyAlgorithm::Hopcroft}) {
    ConstraintSystem Simplified = simplifyConstraints(*A.System, E, Alg);
    Simplified.close();
    std::string Got = profile(P, A.Maps, Simplified, Opts.Depth);
    if (Got != Reference) {
      V.Violation = true;
      V.Message = std::string(simplifyAlgorithmName(Alg)) +
                  " changed observables: " + firstDiff(Reference, Got);
      return V;
    }
  }
  return V;
}

//===----------------------------------------------------------------------===
// Oracle 3: whole-program vs. componential agreement.
//===----------------------------------------------------------------------===

OracleVerdict checkComponential(const Program &P, const OracleOptions &Opts) {
  OracleVerdict V;
  Analysis Whole = analyzeProgram(P);

  // The combined system intentionally only preserves the cross-referenced
  // interface; full precision for a component's own definitions requires
  // step-3 reconstruction. Compare each component's reconstructed system
  // against the whole-program analysis at that component's definitions
  // and check sites.
  ComponentialOptions CO;
  CO.Threads = 1;
  ComponentialAnalyzer CA(P, CO);
  CA.run();
  for (uint32_t I = 0; I < P.Components.size(); ++I) {
    const Component &C = P.Components[I];
    std::string Reference =
        profileComponent(P, C, Whole.Maps, *Whole.System, Opts.Depth);
    std::unique_ptr<ConstraintSystem> Full = CA.reconstruct(I);
    std::string Got = profileComponent(P, C, CA.maps(), *Full, Opts.Depth);
    if (Got != Reference) {
      V.Violation = true;
      V.Message = "whole-program and reconstructed component " + C.Name +
                  " disagree: " + firstDiff(Reference, Got);
      return V;
    }
    std::string WantChecks = verdictsOf(P, Whole.Maps, *Whole.System, I);
    std::string GotChecks = verdictsOf(P, CA.maps(), *Full, I);
    if (GotChecks != WantChecks) {
      V.Violation = true;
      V.Message = "whole-program and reconstructed component " + C.Name +
                  " disagree on check verdicts: " +
                  firstDiff(WantChecks, GotChecks);
      return V;
    }
  }
  return V;
}

//===----------------------------------------------------------------------===
// Oracle 4: thread determinism of the parallel combiner.
//===----------------------------------------------------------------------===

OracleVerdict checkThreads(const Program &P, const OracleOptions &Opts) {
  OracleVerdict V;
  std::string Systems[2];
  unsigned Threads[2] = {1, Opts.Threads < 2 ? 4 : Opts.Threads};
  for (int I = 0; I < 2; ++I) {
    ComponentialOptions CO;
    CO.Threads = Threads[I];
    ComponentialAnalyzer CA(P, CO);
    CA.run();
    Systems[I] = CA.combined().str();
  }
  if (Systems[0] != Systems[1]) {
    size_t At = 0;
    while (At < Systems[0].size() && At < Systems[1].size() &&
           Systems[0][At] == Systems[1][At])
      ++At;
    V.Violation = true;
    V.Message = "combined systems differ between Threads=1 and Threads=" +
                std::to_string(Threads[1]) + " at byte " +
                std::to_string(At);
  }
  return V;
}

//===----------------------------------------------------------------------===
// Oracle 5: closure engine vs. the naive reference fixpoint.
//===----------------------------------------------------------------------===

OracleVerdict checkClosure(const Program &P, const OracleOptions &Opts) {
  (void)Opts;
  OracleVerdict V;
  Analysis A = analyzeProgram(P);
  // The reference starts from exactly the bounds the engine presents, so
  // after the naive close it can only be a superset; any growth means the
  // incremental engine stopped short of the Θ fixpoint.
  ReferenceClosure Ref(*A.Ctx);
  Ref.absorb(*A.System);
  Ref.close();
  for (SetVar Var : Ref.variables()) {
    std::vector<Constant> Got = A.System->constantsOf(Var);
    std::vector<Constant> Want = Ref.constantsOf(Var);
    if (Got != Want) {
      std::ostringstream OS;
      OS << "closure missed constants of v" << Var << ": engine {";
      for (Constant C : Got)
        OS << " " << A.Ctx->Constants.str(C, P.Syms);
      OS << " } vs reference {";
      for (Constant C : Want)
        OS << " " << A.Ctx->Constants.str(C, P.Syms);
      OS << " }";
      V.Violation = true;
      V.Message = OS.str();
      return V;
    }
  }
  return V;
}

//===----------------------------------------------------------------------===
// Oracle 6: chaos — the serve session under full fault injection.
//===----------------------------------------------------------------------===

/// Disarms the global injector on every exit path: a chaos run must never
/// leak armed fault sites into the next oracle or fuzz iteration.
struct FaultScope {
  ~FaultScope() { FaultInjector::instance().reset(); }
};

OracleVerdict checkChaos(const std::vector<SourceFile> &Files,
                         const OracleOptions &Opts) {
  (void)Opts;
  FaultScope Scope;
  OracleVerdict V;

  // The deterministic fault schedule assumes one worker thread.
  ServeOptions SO;
  SO.Threads = 1;

  // Fault-free cold reference. An empty text means the analysis itself
  // failed; that is the componential oracle's territory, not chaos.
  FaultInjector::instance().reset();
  ServeSession Cold(SO);
  Cold.setFiles(Files);
  std::string Reference = Cold.combinedText();
  if (Reference.empty())
    return V;

  // Seed the schedule from the program text so each fuzz iteration sees a
  // different — but replayable — fault pattern.
  uint64_t Seed = 1469598103934665603ull;
  for (const SourceFile &F : Files)
    for (unsigned char C : F.Name + "\n" + F.Text + "\n")
      Seed = (Seed ^ C) * 1099511628211ull;

  ServeSession S(SO);
  S.setFiles(Files);
  std::string Spec = "seed=" + std::to_string(Seed % 999983) +
                     ",cache.*=0.3,scf.parse=0.25,store.*=0.25";
  std::string Error;
  if (!FaultInjector::instance().configure(Spec, &Error)) {
    V.Violation = true;
    V.Message = "fault spec rejected: " + Error;
    return V;
  }

  // Every response must be a JSON object with a boolean "ok"; requests
  // that cannot legitimately fail (no deadline is armed, so lost cache or
  // store entries only cost re-derivation) must answer ok:true.
  auto answer = [&](const std::string &Line, bool WantOk) {
    std::string Resp = S.handleLine(Line);
    std::string PErr;
    std::optional<json::Value> R = json::Value::parse(Resp, &PErr);
    const json::Value *Ok = R ? R->find("ok") : nullptr;
    if (!R || !Ok || !Ok->isBool()) {
      V.Violation = true;
      V.Message = "malformed response to '" + Line + "': " + Resp;
      return false;
    }
    if (WantOk && !Ok->asBool()) {
      V.Violation = true;
      V.Message = "request failed under faults: '" + Line + "' -> " + Resp;
      return false;
    }
    return true;
  };

  if (!answer(R"({"cmd":"analyze"})", true))
    return V;
  for (const SourceFile &F : Files) {
    json::Value Req = json::Value::object();
    Req.set("cmd", "edit");
    Req.set("file", F.Name);
    Req.set("text", F.Text);
    if (!answer(Req.dump(), true))
      return V;
    if (!answer(R"({"cmd":"analyze"})", true))
      return V;
  }
  if (!answer("definitely not json", false))
    return V;
  if (!answer(R"({"cmd":"stats"})", true))
    return V;
  if (!answer(R"({"cmd":"check-summary"})", true))
    return V;

  // The combined system is a pure function of the per-component file
  // texts, so even a session that analyzed *under* faults must hold the
  // cold-run bytes once the dust settles.
  FaultInjector::instance().reset();
  std::string Got = S.combinedText();
  if (Got != Reference) {
    size_t At = 0;
    while (At < Got.size() && At < Reference.size() && Got[At] == Reference[At])
      ++At;
    V.Violation = true;
    V.Message = "post-fault combined system diverged from the fault-free "
                "cold run at byte " +
                std::to_string(At);
  }
  return V;
}

//===----------------------------------------------------------------------===
// Oracle 7: query — demand-driven serve answers vs. the closed engine.
//===----------------------------------------------------------------------===

/// The ground-truth answers for one program state, computed the
/// pre-demand-driven way: a reference analyzer (Threads=1 — the same
/// deterministic numbering the serve session uses), a fresh
/// FlowGraph for the flow counts, and a full reconstruct sweep for the
/// summary. Variable ids are comparable raw because both sides number
/// identically.
struct QueryRefAnswers {
  struct FlowRef {
    SetVar Var = NoSetVar;
    std::vector<std::string> Kinds;
    size_t Parents = 0, Children = 0, Ancestors = 0, Descendants = 0;
  };
  bool Ok = false;
  std::vector<std::pair<std::string, FlowRef>> Flows;
  size_t Possible = 0, Unsafe = 0;
  std::string Summary;
};

QueryRefAnswers queryReference(const std::vector<SourceFile> &Files) {
  QueryRefAnswers R;
  ParsedProgram PP = parseIt(Files);
  if (!PP.Ok)
    return R;
  R.Ok = true;
  const Program &P = PP.Prog;
  ComponentialOptions CO;
  CO.Threads = 1;
  ComponentialAnalyzer CA(P, CO);
  CA.run();
  const ConstraintSystem &S = CA.combined();
  FlowGraph FG(S);
  std::unordered_set<std::string> Seen;
  for (VarId Vi = 0; Vi < P.numVars(); ++Vi) {
    const VarInfo &Info = P.var(Vi);
    if (!Info.TopLevel)
      continue;
    std::string Name = P.Syms.name(Info.Name);
    if (!Seen.insert(Name).second)
      continue; // first definition wins, matching the serve lookup
    QueryRefAnswers::FlowRef F;
    F.Var = CA.maps().varVar(Vi);
    for (Constant C : S.constantsOf(F.Var))
      F.Kinds.push_back(constKindName(S.context().Constants.kind(C)));
    std::sort(F.Kinds.begin(), F.Kinds.end());
    F.Kinds.erase(std::unique(F.Kinds.begin(), F.Kinds.end()),
                  F.Kinds.end());
    F.Parents = FG.parents(F.Var).size();
    F.Children = FG.children(F.Var).size();
    F.Ancestors = FG.ancestors(F.Var).size();
    F.Descendants = FG.descendants(F.Var).size();
    R.Flows.emplace_back(std::move(Name), F);
  }
  DebugReport Report;
  for (uint32_t I = 0; I < P.Components.size(); ++I) {
    std::unique_ptr<ConstraintSystem> Full = CA.reconstruct(I);
    DebugReport Part = runChecks(P, CA.maps(), *Full);
    for (CheckResult &CR : Part.Results)
      if (CR.Loc.File == I)
        Report.Results.push_back(std::move(CR));
  }
  R.Possible = Report.numPossible();
  R.Unsafe = Report.numUnsafe();
  R.Summary = Report.summary(P);
  return R;
}

OracleVerdict checkQuery(const std::vector<SourceFile> &Files,
                         const OracleOptions &Opts) {
  (void)Opts;
  OracleVerdict V;
  ServeOptions SO;
  SO.Threads = 1;
  ServeSession S(SO);
  std::vector<SourceFile> Cur = Files; // mirrors the session's edits
  S.setFiles(Cur);

  auto request = [&](const std::string &Line) -> std::optional<json::Value> {
    std::string Resp = S.handleLine(Line);
    std::string PErr;
    std::optional<json::Value> R = json::Value::parse(Resp, &PErr);
    if (!R) {
      V.Violation = true;
      V.Message = "malformed response to '" + Line + "': " + Resp;
    }
    return R;
  };

  auto compareFlow = [&](const std::string &Name,
                         const QueryRefAnswers::FlowRef &F,
                         const std::string &Phase) {
    json::Value Req = json::Value::object();
    Req.set("cmd", "flow");
    Req.set("name", Name);
    std::optional<json::Value> R = request(Req.dump());
    if (!R)
      return false;
    auto fail = [&](const std::string &What) {
      V.Violation = true;
      V.Message = "[" + Phase + "] flow \"" + Name + "\": " + What +
                  " -> " + R->dump();
      return false;
    };
    const json::Value *Ok = R->find("ok");
    if (!Ok || !Ok->asBool(false))
      return fail("request failed");
    if (R->find("degraded"))
      return fail("degraded answer with no limits armed");
    auto num = [&](const char *K) {
      const json::Value *M = R->find(K);
      return M && M->isNumber() ? M->asNumber() : -1.0;
    };
    std::vector<std::string> Kinds;
    const json::Value *KV = R->find("kinds");
    if (KV && KV->isArray())
      for (const json::Value &K : KV->items())
        Kinds.push_back(K.asString());
    if (num("var") != double(F.Var))
      return fail("var " + std::to_string(num("var")) + " vs reference " +
                  std::to_string(F.Var));
    if (Kinds != F.Kinds)
      return fail("kinds diverge from the closed engine");
    if (num("parents") != double(F.Parents) ||
        num("children") != double(F.Children) ||
        num("ancestors") != double(F.Ancestors) ||
        num("descendants") != double(F.Descendants))
      return fail("counts diverge: got " + std::to_string(num("parents")) +
                  "/" + std::to_string(num("children")) + "/" +
                  std::to_string(num("ancestors")) + "/" +
                  std::to_string(num("descendants")) + " vs reference " +
                  std::to_string(F.Parents) + "/" +
                  std::to_string(F.Children) + "/" +
                  std::to_string(F.Ancestors) + "/" +
                  std::to_string(F.Descendants));
    return true;
  };

  auto compareSummary = [&](const QueryRefAnswers &Ref,
                            const std::string &Phase) {
    std::optional<json::Value> R = request(R"({"cmd":"check-summary"})");
    if (!R)
      return false;
    auto fail = [&](const std::string &What) {
      V.Violation = true;
      V.Message = "[" + Phase + "] check-summary: " + What + " -> " +
                  R->dump();
      return false;
    };
    const json::Value *Ok = R->find("ok");
    if (!Ok || !Ok->asBool(false))
      return fail("request failed");
    if (R->find("degraded"))
      return fail("degraded answer with no limits armed");
    const json::Value *Pv = R->find("possible");
    const json::Value *Uv = R->find("unsafe");
    const json::Value *Sv = R->find("summary");
    if (!Pv || Pv->asNumber(-1) != double(Ref.Possible) ||
        !Uv || Uv->asNumber(-1) != double(Ref.Unsafe))
      return fail("possible/unsafe diverge from the reconstruct sweep");
    if (!Sv || !Sv->isString() || Sv->asString() != Ref.Summary)
      return fail("summary bytes diverge from the reconstruct sweep");
    return true;
  };

  // One full comparison of the demand-driven answers against the closed
  // engine at the current program state. Each flow is queried twice (the
  // repeat must hit the same answer through the memo path), and the
  // summary twice (the repeat exercises verdict reuse).
  auto compareCycle = [&](const std::string &Phase) {
    QueryRefAnswers Ref = queryReference(Cur);
    if (!Ref.Ok)
      return true; // edited program no longer parses: nothing to compare
    for (const auto &[Name, F] : Ref.Flows)
      if (!compareFlow(Name, F, Phase) ||
          !compareFlow(Name, F, Phase + "/warm"))
        return false;
    if (!compareSummary(Ref, Phase) ||
        !compareSummary(Ref, Phase + "/warm"))
      return false;
    return true;
  };

  if (!compareCycle("cold"))
    return V;

  // An unknown name must answer the legacy structured error.
  {
    std::optional<json::Value> R = request(
        R"({"cmd":"flow","name":"query-oracle-no-such-name"})");
    if (!R)
      return V;
    const json::Value *Ok = R->find("ok");
    if (!Ok || Ok->asBool(true) ||
        R->str("code", "") != "unknown-name") {
      V.Violation = true;
      V.Message = "unknown-name flow lost its error contract: " + R->dump();
      return V;
    }
  }

  // Per-file edit cycles: appending a fresh define dirties exactly one
  // component; every answer must still match a fresh reference (this is
  // where stale memo reuse — a wrong region digest or verdict key —
  // shows up as a divergence).
  for (size_t I = 0; I < Cur.size(); ++I) {
    Cur[I].Text +=
        "\n(define query-oracle-probe-" + std::to_string(I) + " 42)\n";
    json::Value Req = json::Value::object();
    Req.set("cmd", "edit");
    Req.set("file", Cur[I].Name);
    Req.set("text", Cur[I].Text);
    std::optional<json::Value> R = request(Req.dump());
    if (!R)
      return V;
    if (!compareCycle("edit-" + std::to_string(I)))
      return V;
  }

  // Degradation contract: a budget-starved query may answer degraded
  // (never malformed, never ok:false), and once the budget is lifted the
  // next query must answer exactly again.
  if (!request(R"({"cmd":"configure","max_constraints":1})"))
    return V;
  if (!Cur.empty()) {
    QueryRefAnswers Ref = queryReference(Cur);
    if (Ref.Ok && !Ref.Flows.empty()) {
      json::Value Req = json::Value::object();
      Req.set("cmd", "flow");
      Req.set("name", Ref.Flows.front().first);
      std::optional<json::Value> R = request(Req.dump());
      if (!R)
        return V;
      const json::Value *Ok = R->find("ok");
      if (!Ok || !Ok->isBool() || !Ok->asBool()) {
        V.Violation = true;
        V.Message = "budget-starved flow answered ok:false: " + R->dump();
        return V;
      }
      std::optional<json::Value> RS = request(R"({"cmd":"check-summary"})");
      if (!RS)
        return V;
      const json::Value *OkS = RS->find("ok");
      if (!OkS || !OkS->isBool() || !OkS->asBool()) {
        V.Violation = true;
        V.Message =
            "budget-starved check-summary answered ok:false: " + RS->dump();
        return V;
      }
    }
  }
  if (!request(R"({"cmd":"configure","max_constraints":0})"))
    return V;
  if (!compareCycle("recovered"))
    return V;

  return V;
}

} // namespace

OracleVerdict spidey::checkOracle(Oracle O,
                                  const std::vector<SourceFile> &Files,
                                  const OracleOptions &Opts) {
  ParsedProgram P = parseIt(Files);
  if (!P.Ok) {
    OracleVerdict V;
    V.Parsed = false;
    V.Message = P.Error;
    return V;
  }
  switch (O) {
  case Oracle::Soundness:
    return checkSoundness(P.Prog, Opts);
  case Oracle::Simplify:
    return checkSimplify(P.Prog, Opts);
  case Oracle::Componential:
    return checkComponential(P.Prog, Opts);
  case Oracle::Threads:
    return checkThreads(P.Prog, Opts);
  case Oracle::Closure:
    return checkClosure(P.Prog, Opts);
  case Oracle::Chaos:
    return checkChaos(Files, Opts);
  case Oracle::Query:
    return checkQuery(Files, Opts);
  }
  return {};
}
