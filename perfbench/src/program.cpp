//===-- perfbench/src/program.cpp - Inputs and reference answers -*- C++ -*-===//
///
/// \file
/// The benchmark's inputs (the seeded program and edit traces) and the
/// independent references its answers are checked against.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "componential/componential.h"
#include "constraints/const_kind.h"
#include "corpus/corpus.h"
#include "debugger/checks.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include <sys/resource.h>

using namespace spidey;

namespace perfbench {

const char *cmdName(Cmd K) {
  switch (K) {
  case Cmd::Open:
    return "open";
  case Cmd::Edit:
    return "edit";
  case Cmd::Analyze:
    return "analyze";
  case Cmd::Flow:
    return "flow";
  case Cmd::Check:
    return "check-summary";
  }
  return "?";
}

json::Value Request::toJson(const std::vector<SourceFile> &Files) const {
  json::Value R = json::Value::object();
  R.set("cmd", cmdName(K));
  switch (K) {
  case Cmd::Open: {
    json::Value Names = json::Value::array();
    for (const SourceFile &F : Files)
      Names.push(F.Name);
    R.set("files", std::move(Names));
    break;
  }
  case Cmd::Edit:
    R.set("file", Files[File].Name);
    R.set("text", Text);
    break;
  case Cmd::Flow:
    R.set("name", Name);
    break;
  default:
    break;
  }
  return R;
}

std::vector<SourceFile> benchProgram(uint64_t Seed) {
  GeneratorConfig C = benchmarkConfig("sba");
  C.Seed = static_cast<unsigned>(Seed);
  return generateProgram(C);
}

namespace {

constexpr uint64_t FnvOffset = 0xCBF29CE484222325ull;

uint64_t fnv(uint64_t H, std::string_view S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return H;
}

Program parseOrThrow(const std::vector<SourceFile> &Files) {
  Program P;
  DiagnosticEngine Diags;
  if (!parseProgram(P, Diags, Files))
    throw std::runtime_error("benchmark program failed to parse: " +
                             Diags.str());
  return P;
}

} // namespace

uint64_t programHash(const std::vector<SourceFile> &Files) {
  uint64_t H = FnvOffset;
  for (const SourceFile &F : Files) {
    H = fnv(H, F.Text);
    H = fnv(H, std::string_view("\0", 1));
  }
  return H;
}

uint64_t textHash(const std::string &Text) { return fnv(FnvOffset, Text); }

std::vector<std::string> topLevelNames(const std::vector<SourceFile> &Files) {
  Program P = parseOrThrow(Files);
  std::vector<std::string> Names;
  std::unordered_map<std::string, bool> Seen;
  for (VarId V = 0; V < P.numVars(); ++V) {
    const VarInfo &Info = P.var(V);
    if (Info.TopLevel && Seen.emplace(P.Syms.name(Info.Name), true).second)
      Names.push_back(P.Syms.name(Info.Name));
  }
  if (Names.empty())
    throw std::runtime_error("benchmark program has no top-level names");
  return Names;
}

EditPlanner::EditPlanner(uint64_t Seed, uint32_t Stream,
                         std::vector<SourceFile> Orig, bool WithUndo)
    : Rng(Seed * 0x9E3779B97F4A7C15ull ^ (uint64_t(Stream) + 1) *
                                            0xD1B54A32D192ED03ull),
      Stream(Stream), WithUndo(WithUndo), Original(std::move(Orig)),
      Current(Original), Probed(Original.size(), false),
      Names(topLevelNames(Original)) {}

Request EditPlanner::nextEdit() {
  ++Iter;
  Request R;
  R.K = Cmd::Edit;
  size_t NumProbed = std::count(Probed.begin(), Probed.end(), true);
  if (WithUndo && Rng() % 4 == 0 && NumProbed) {
    // Undo: restore a probed component's original text (a store read).
    size_t Pick = Rng() % NumProbed;
    for (uint32_t K = 0; K < Probed.size(); ++K)
      if (Probed[K] && Pick-- == 0) {
        R.File = K;
        break;
      }
    R.Text = Original[R.File].Text;
    Probed[R.File] = false;
  } else {
    // Probe: one fresh unreferenced define replaces the previous probe.
    R.File = static_cast<uint32_t>(Rng() % Original.size());
    R.Text = Original[R.File].Text + "\n(define perfbench-probe-s" +
             std::to_string(Stream) + "-" + std::to_string(Iter) + " " +
             std::to_string(Iter) + ")\n";
    Probed[R.File] = true;
  }
  R.Target = R.File;
  Current[R.File].Text = R.Text;
  return R;
}

uint32_t EditPlanner::nextComponent() {
  return static_cast<uint32_t>(Rng() % Original.size());
}

const std::string &EditPlanner::nextName() {
  return Names[Rng() % Names.size()];
}

double num(const json::Value &R, const char *Key) {
  const json::Value *M = R.find(Key);
  return M && M->isNumber() ? M->asNumber() : -1.0;
}

bool okAndClean(const json::Value &R) {
  const json::Value *Ok = R.find("ok");
  return Ok && Ok->asBool(false) && !R.find("degraded");
}

//===----------------------------------------------------------------------===//
// Reference
//===----------------------------------------------------------------------===//

struct Reference::Impl {
  Program P;
  std::unique_ptr<ComponentialAnalyzer> CA;
  std::optional<std::string> Combined;
  std::optional<std::string> Summary;
  size_t Possible = 0, Unsafe = 0;
  bool AdjBuilt = false;
  std::vector<std::vector<SetVar>> Fwd, Rev;

  void buildAdjacency() {
    if (AdjBuilt)
      return;
    const ConstraintSystem &S = CA->combined();
    auto grow = [&](SetVar V) {
      if (V >= Fwd.size()) {
        Fwd.resize(size_t(V) + 1);
        Rev.resize(size_t(V) + 1);
      }
    };
    for (SetVar A : S.variables())
      for (const UpperBound &U : S.upperBounds(A)) {
        if (U.K != UpperBound::Kind::VarUB &&
            U.K != UpperBound::Kind::FilterUB)
          continue;
        grow(std::max(A, U.Other));
        Fwd[A].push_back(U.Other);
        Rev[U.Other].push_back(A);
      }
    for (auto *Adj : {&Fwd, &Rev})
      for (std::vector<SetVar> &Row : *Adj) {
        std::sort(Row.begin(), Row.end());
        Row.erase(std::unique(Row.begin(), Row.end()), Row.end());
      }
    AdjBuilt = true;
  }

  static size_t row(const std::vector<std::vector<SetVar>> &Adj, SetVar A) {
    return A < Adj.size() ? Adj[A].size() : 0;
  }

  static size_t reach(const std::vector<std::vector<SetVar>> &Adj, SetVar A) {
    if (A >= Adj.size())
      return 0;
    std::vector<char> Seen(Adj.size(), 0);
    std::vector<SetVar> Work{A};
    Seen[A] = 1;
    size_t Count = 0;
    while (!Work.empty()) {
      SetVar V = Work.back();
      Work.pop_back();
      for (SetVar N : Adj[V])
        if (!Seen[N]) {
          Seen[N] = 1;
          ++Count;
          Work.push_back(N);
        }
    }
    return Count;
  }
};

Reference::Reference(const std::vector<SourceFile> &Files) : I(new Impl) {
  I->P = parseOrThrow(Files);
  ComponentialOptions CO;
  CO.MergeViaFiles = true;
  CO.Threads = 1;
  I->CA = std::make_unique<ComponentialAnalyzer>(I->P, CO);
  I->CA->run();
}

Reference::~Reference() = default;

const std::string &Reference::combinedText() {
  if (!I->Combined)
    I->Combined = I->CA->combined().str();
  return *I->Combined;
}

std::string Reference::checkFlow(const json::Value &R, bool WithVar) {
  const std::string &Name = R.str("name");
  Symbol Sym = I->P.Syms.lookup(Name);
  VarId Def = NoVar;
  for (VarId V = 0; Sym != InvalidSymbol && V < I->P.numVars(); ++V)
    if (I->P.var(V).TopLevel && I->P.var(V).Name == Sym) {
      Def = V;
      break;
    }
  if (Def == NoVar)
    return "flow(" + Name + "): no such top-level name in the reference";
  const ConstraintSystem &S = I->CA->combined();
  SetVar A = I->CA->maps().varVar(Def);
  std::vector<std::string> Kinds;
  for (Constant C : S.constantsOf(A))
    Kinds.push_back(constKindName(S.context().Constants.kind(C)));
  std::sort(Kinds.begin(), Kinds.end());
  Kinds.erase(std::unique(Kinds.begin(), Kinds.end()), Kinds.end());
  std::vector<std::string> Got;
  if (const json::Value *KV = R.find("kinds"))
    for (const json::Value &K : KV->items())
      Got.push_back(K.asString());
  I->buildAdjacency();
  bool Match = Got == Kinds &&
               num(R, "parents") == double(Impl::row(I->Rev, A)) &&
               num(R, "children") == double(Impl::row(I->Fwd, A)) &&
               num(R, "ancestors") == double(Impl::reach(I->Rev, A)) &&
               num(R, "descendants") == double(Impl::reach(I->Fwd, A)) &&
               (!WithVar || num(R, "var") == double(A));
  if (Match)
    return {};
  return "flow(" + Name + ") diverges from the reference BFS: " + R.dump();
}

std::string Reference::checkSummary(const json::Value &R) {
  if (!I->Summary) {
    Analysis Whole = analyzeProgram(I->P);
    DebugReport Rep = runChecks(I->P, Whole.Maps, *Whole.System);
    I->Summary = Rep.summary(I->P);
    I->Possible = Rep.numPossible();
    I->Unsafe = Rep.numUnsafe();
  }
  if (R.str("summary") == *I->Summary &&
      num(R, "possible") == double(I->Possible) &&
      num(R, "unsafe") == double(I->Unsafe))
    return {};
  return "check-summary diverges from the whole-program reference (" +
         std::to_string(num(R, "unsafe")) + " unsafe of " +
         std::to_string(num(R, "possible")) + " vs " +
         std::to_string(I->Unsafe) + " of " + std::to_string(I->Possible) +
         ")";
}

uint64_t verifyAgainstReferences(ClientLog &Log, std::string &FirstError) {
  std::vector<SourceFile> Cur = Log.Initial;
  std::unique_ptr<Reference> Initial, Exact;
  uint64_t Generation = 0, Wrong = 0;
  bool ExactIsCurrent = false;
  auto initial = [&]() -> Reference & {
    if (!Initial)
      Initial = std::make_unique<Reference>(Log.Initial);
    return *Initial;
  };
  auto exact = [&]() -> Reference & {
    if (Generation == 0)
      return initial();
    if (!ExactIsCurrent) {
      Exact = std::make_unique<Reference>(Cur);
      ExactIsCurrent = true;
    }
    return *Exact;
  };
  for (size_t K = 0; K < Log.Requests.size(); ++K) {
    const Request &Rq = Log.Requests[K];
    Outcome &Out = Log.Outcomes[K];
    if (Rq.K == Cmd::Edit && Cur[Rq.File].Text != Rq.Text) {
      Cur[Rq.File].Text = Rq.Text;
      ++Generation;
      ExactIsCurrent = false;
    }
    if (Rq.K != Cmd::Flow && Rq.K != Cmd::Check)
      continue;
    std::optional<json::Value> R = json::Value::parse(Out.Response);
    if (!R)
      continue; // already counted as failed where it was received
    // Generations 0, 1, 2, 4, 8, ... are pinned in full; the rest against
    // the initial state first.
    bool Full = (Generation & (Generation - 1)) == 0;
    std::string Err;
    if (Full) {
      Err = Rq.K == Cmd::Flow ? exact().checkFlow(*R, /*WithVar=*/true)
                              : exact().checkSummary(*R);
    } else {
      Err = Rq.K == Cmd::Flow ? initial().checkFlow(*R, /*WithVar=*/false)
                              : initial().checkSummary(*R);
      if (!Err.empty())
        Err = Rq.K == Cmd::Flow ? exact().checkFlow(*R, /*WithVar=*/true)
                                : exact().checkSummary(*R);
    }
    if (!Err.empty()) {
      if (!Out.Failed)
        ++Wrong;
      Out.Failed = true;
      if (FirstError.empty())
        FirstError = Err;
    }
  }
  return Wrong;
}

//===----------------------------------------------------------------------===//
// Statistics and process probes
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double tailPercentile(std::vector<double> V, double &Pct) {
  Pct = 0;
  if (V.size() < 11)
    return V.empty() ? 0 : *std::max_element(V.begin(), V.end());
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  Pct = 100.0 * double(N - 10) / double(N);
  return V[N - 11];
}

namespace {

double probeKernelMs() {
  Clock::time_point T0 = Clock::now();
  std::mt19937 R(12345);
  std::vector<uint32_t> V(1 << 14);
  for (uint32_t &X : V)
    X = R();
  std::sort(V.begin(), V.end());
  std::unordered_map<uint32_t, uint32_t> M;
  M.reserve(1 << 12);
  for (uint32_t I = 0; I < (1u << 13); ++I)
    M[V[(I * 2654435761u) & 0x3FFF]] += I;
  std::vector<uint32_t> Next(1 << 18);
  for (uint32_t I = 0; I < Next.size(); ++I)
    Next[I] = (I * 40503u + 12345u) & ((1u << 18) - 1);
  uint32_t P = 0, Acc = 0;
  for (int I = 0; I < (1 << 16); ++I) {
    P = Next[P];
    Acc += P;
  }
  volatile uint32_t Sink = Acc + uint32_t(M.size()) + V[7];
  (void)Sink;
  return msBetween(T0, Clock::now());
}

} // namespace

double speedProbeMs() {
  // The faster of two runs: an interrupt or a page fault only ever adds.
  return std::min(probeKernelMs(), probeKernelMs());
}

std::vector<double> speedFactors(const ClientLog &Log) {
  std::vector<double> F(Log.Requests.size(), 1.0);
  const std::vector<Iteration> &It = Log.Iterations;
  for (size_t I = 0; I < It.size(); ++I) {
    // The probes that bracket the iteration: its own and the next one's
    // (the closing probe after the last iteration).
    double Probe = I + 1 < It.size()
                       ? (It[I].ProbeMs + It[I + 1].ProbeMs) / 2
                       : It[I].ProbeMs;
    size_t End = I + 1 < It.size() ? It[I + 1].FirstRequest : F.size();
    for (size_t K = It[I].FirstRequest; K < End; ++K)
      F[K] = ReferenceProbeMs / Probe;
  }
  return F;
}

double selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

double pidPeakRssMb(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

} // namespace perfbench

