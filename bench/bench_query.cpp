//===-- bench/bench_query.cpp - Demand-driven query latency ----*- C++ -*-===//
///
/// \file
/// Measures the serve loop's demand-driven query layer (DESIGN.md §12) on
/// multi-component corpus programs, against the whole-program paths it
/// replaced:
///
///  - baseline flow: a fresh FlowGraph over the entire combined system
///    per request (what cmdFlow used to build), answering one name's full
///    payload;
///  - cold index: one FlowIndex build over the same system — the
///    per-generation cost the persistent index pays once;
///  - walk flow: a warm serve session answering a name's *first* query —
///    name-index lookup plus an index-backed reachability walk;
///  - warm flow: the same name again — the region-summary memo path;
///  - first flow: the first query of a new analysis generation (a probe
///    edit to the last file, its text restored, then analyze), on a name
///    the session has not asked before — what a user waits for after an
///    edit: the generation's region digests, flow index and name index,
///    then the walk;
///  - summary: the first check-summary (full reconstruct sweep) vs the
///    sweep after a one-component probe edit, which must re-check exactly
///    one component.
///
/// Answers are verified against the baseline payload as they are timed;
/// a divergence or an over-wide recheck fails the benchmark. With --json
/// the numbers are emitted as machine-readable JSON (consumed by
/// bench/run_benches.sh to produce BENCH_query.json; the sba flow
/// speedup and first flow are gated in CI by bench/check_perf_floor.py).
///
//===----------------------------------------------------------------------===//

#include "bench_util.h"

#include "componential/componential.h"
#include "constraints/const_kind.h"
#include "corpus/corpus.h"
#include "debugger/flow.h"
#include "query/flow_index.h"
#include "serve/serve.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

using namespace spidey;
using namespace spidey::bench;

namespace {

constexpr int Repeats = 3;
/// Memoized-path repeats: the warm query is microseconds, so a few more
/// samples cost nothing and stabilize the minimum.
constexpr int WarmRepeats = 10;

struct Result {
  std::string Name;
  size_t Components = 0;
  size_t Lines = 0;
  double BaselineFlowMs = 1e300; ///< FlowGraph rebuild + one payload
  double IndexBuildMs = 1e300;   ///< one FlowIndex build (per generation)
  double WalkFlowMs = 1e300;     ///< first query of a name, warm session
  double WarmFlowMs = 1e300;     ///< repeat query: memoized summary path
  double FirstFlowMs = 1e300;    ///< first query of a fresh generation
  double ColdSummaryMs = 1e300;  ///< first check-summary: full sweep
  double EditSummaryMs = 1e300;  ///< sweep after a 1-component probe edit
  uint64_t Rechecked = 0;        ///< of the timed edit sweep
  uint64_t Reused = 0;
  bool AnswersMatch = true;
  bool RecheckedExactlyOne = false;
};

/// The legacy flow payload, computed the pre-demand-driven way.
struct FlowPayload {
  SetVar Var = NoSetVar;
  size_t Parents = 0, Children = 0, Ancestors = 0, Descendants = 0;
};

FlowPayload payloadOf(const FlowGraph &FG, SetVar V) {
  return {V, FG.parents(V).size(), FG.children(V).size(),
          FG.ancestors(V).size(), FG.descendants(V).size()};
}

json::Value flowRequest(const std::string &Name) {
  json::Value R = json::Value::object();
  R.set("cmd", "flow");
  R.set("name", Name);
  return R;
}

double num(const json::Value &R, std::string_view Key) {
  const json::Value *M = R.find(Key);
  return M && M->isNumber() ? M->asNumber() : -1.0;
}

Result benchProgram(const char *Name) {
  std::vector<SourceFile> Files = generateProgram(benchmarkConfig(Name));

  Result Res;
  Res.Name = Name;
  Res.Components = Files.size();
  Res.Lines = lineCount(Files);

  // Reference analyzer: same deterministic numbering as the session.
  Program P = parseOrDie(Files);
  ComponentialOptions CO;
  CO.Threads = 1;
  ComponentialAnalyzer CA(P, CO);
  CA.run();
  const ConstraintSystem &S = CA.combined();

  // Top-level names in definition order, first definition winning (the
  // session's name-index contract); the last one is the legacy name
  // scan's worst case and our probe query.
  std::vector<std::pair<std::string, SetVar>> Names;
  std::unordered_set<std::string> Seen;
  for (VarId V = 0; V < P.numVars(); ++V) {
    const VarInfo &Info = P.var(V);
    if (Info.TopLevel && Seen.insert(P.Syms.name(Info.Name)).second)
      Names.emplace_back(P.Syms.name(Info.Name), CA.maps().varVar(V));
  }
  if (Names.empty()) {
    std::fprintf(stderr, "bench_query: %s has no top-level names\n", Name);
    std::exit(1);
  }
  const std::string &QueryName = Names.back().first;
  SetVar QueryVar = Names.back().second;

  // Baseline: what every flow request used to cost — a FlowGraph over the
  // whole combined system, then the payload.
  FlowPayload Ref;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    double Ms = timeMs([&] { Ref = payloadOf(FlowGraph(S), QueryVar); });
    Res.BaselineFlowMs = std::min(Res.BaselineFlowMs, Ms);
  }

  // The per-generation cost the persistent index pays once.
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    FlowIndex FI;
    double Ms = timeMs([&] { FI.build(S); });
    Res.IndexBuildMs = std::min(Res.IndexBuildMs, Ms);
  }

  // One warm session serves every query below.
  ServeOptions SO;
  SO.Threads = 1;
  ServeSession Session(SO);
  Session.setFiles(Files);
  json::Value Analyze = json::Value::object();
  Analyze.set("cmd", "analyze");
  Session.handle(Analyze);

  auto checkPayload = [&](const json::Value &R, const std::string &Query,
                          const FlowPayload &Want) {
    bool Ok = R.find("ok") && R.find("ok")->asBool() &&
              num(R, "var") == double(Want.Var) &&
              num(R, "parents") == double(Want.Parents) &&
              num(R, "children") == double(Want.Children) &&
              num(R, "ancestors") == double(Want.Ancestors) &&
              num(R, "descendants") == double(Want.Descendants);
    if (!Ok) {
      std::fprintf(stderr, "bench_query: %s flow(%s) diverged: %s\n", Name,
                   Query.c_str(), R.dump().c_str());
      Res.AnswersMatch = false;
    }
  };

  // Walk: the first query of a name on a warm session — one index-backed
  // exploration, no memo. Distinct names so every sample really walks;
  // the probe name is sampled first so its payload check stays valid.
  {
    json::Value R;
    double Ms = timeMs([&] { R = Session.handle(flowRequest(QueryName)); });
    Res.WalkFlowMs = Ms;
    checkPayload(R, QueryName, Ref);
    size_t Extra = Names.size() > 1 ? Names.size() - 1 : 0;
    for (size_t I = 0; I < std::min<size_t>(Extra, Repeats - 1); ++I) {
      const std::string &N = Names[Names.size() - 2 - I].first;
      json::Value RN;
      double MsN = timeMs([&] { RN = Session.handle(flowRequest(N)); });
      if (RN.find("memoized") == nullptr)
        Res.WalkFlowMs = std::min(Res.WalkFlowMs, MsN);
    }
  }

  // Warm: the same name again — the memoized region-summary path.
  for (int Rep = 0; Rep < WarmRepeats; ++Rep) {
    json::Value R;
    double Ms = timeMs([&] { R = Session.handle(flowRequest(QueryName)); });
    Res.WarmFlowMs = std::min(Res.WarmFlowMs, Ms);
    checkPayload(R, QueryName, Ref);
  }

  // Summary: full sweep cold, then after a one-component probe edit.
  json::Value SummaryReq = json::Value::object();
  SummaryReq.set("cmd", "check-summary");
  {
    json::Value R;
    double Ms = timeMs([&] { R = Session.handle(SummaryReq); });
    Res.ColdSummaryMs = Ms;
    if (!R.find("ok") || !R.find("ok")->asBool()) {
      std::fprintf(stderr, "bench_query: %s cold summary failed\n", Name);
      Res.AnswersMatch = false;
    }
  }
  const SourceFile &Target = Files.back();
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    json::Value Edit = json::Value::object();
    Edit.set("cmd", "edit");
    Edit.set("file", Target.Name);
    Edit.set("text", Target.Text + "\n(define query-bench-probe-" +
                         std::to_string(Rep) + " 42)");
    Session.handle(Edit);
    json::Value R;
    double Ms = timeMs([&] { R = Session.handle(SummaryReq); });
    if (Ms < Res.EditSummaryMs) {
      Res.EditSummaryMs = Ms;
      Res.Rechecked = uint64_t(num(R, "components_rechecked"));
      Res.Reused = uint64_t(num(R, "components_reused"));
    }
  }
  Res.RecheckedExactlyOne =
      Res.Rechecked == 1 && Res.Reused == Res.Components - 1;

  // First flow: a new generation over the original program (probe edit,
  // text restored, analyze), then a name no earlier request asked — so
  // nothing is memoized and the query pays the generation's set-up. The
  // walk above asked the last Repeats names; these come from the front.
  if (Names.size() < 2 * size_t(Repeats)) {
    std::fprintf(stderr, "bench_query: %s has too few top-level names\n",
                 Name);
    std::exit(1);
  }
  FlowGraph RefGraph(S);
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    json::Value Edit = json::Value::object();
    Edit.set("cmd", "edit");
    Edit.set("file", Target.Name);
    Edit.set("text", Target.Text + "\n(define query-bench-first-" +
                         std::to_string(Rep) + " 42)");
    Session.handle(Edit);
    Edit.set("text", Target.Text);
    Session.handle(Edit);
    Session.handle(Analyze);
    const std::string &FirstName = Names[Rep].first;
    json::Value R;
    double Ms = timeMs([&] { R = Session.handle(flowRequest(FirstName)); });
    Res.FirstFlowMs = std::min(Res.FirstFlowMs, Ms);
    if (R.find("memoized")) {
      std::fprintf(stderr, "bench_query: %s first flow(%s) was memoized\n",
                   Name, FirstName.c_str());
      Res.AnswersMatch = false;
    }
    checkPayload(R, FirstName, payloadOf(RefGraph, Names[Rep].second));
  }
  return Res;
}

void printTable(const std::vector<Result> &Results) {
  std::printf("== demand-driven queries: FlowGraph rebuild vs persistent "
              "index + memo (best of %d) ==\n",
              Repeats);
  std::printf("%-10s %6s %7s %10s %10s %10s %10s %10s %8s %11s %11s %9s\n",
              "program", "comps", "lines", "base ms", "index ms", "first ms",
              "walk ms", "warm ms", "speedup", "sweep ms", "edit ms",
              "recheck");
  for (const Result &R : Results)
    std::printf("%-10s %6zu %7zu %10.3f %10.3f %10.3f %10.3f %10.4f %7.0fx "
                "%11.1f %11.1f %4llu/%-4zu\n",
                R.Name.c_str(), R.Components, R.Lines, R.BaselineFlowMs,
                R.IndexBuildMs, R.FirstFlowMs, R.WalkFlowMs, R.WarmFlowMs,
                R.WarmFlowMs > 0 ? R.BaselineFlowMs / R.WarmFlowMs : 0.0,
                R.ColdSummaryMs, R.EditSummaryMs,
                static_cast<unsigned long long>(R.Rechecked), R.Components);
}

void printJson(const std::vector<Result> &Results) {
  json::Value Programs = json::Value::array();
  for (const Result &R : Results) {
    json::Value P = json::Value::object();
    P.set("name", R.Name);
    P.set("components", R.Components);
    P.set("lines", R.Lines);
    P.set("baseline_flow_ms", R.BaselineFlowMs);
    P.set("index_build_ms", R.IndexBuildMs);
    P.set("first_flow_ms", R.FirstFlowMs);
    P.set("walk_flow_ms", R.WalkFlowMs);
    P.set("warm_flow_ms", R.WarmFlowMs);
    P.set("flow_speedup",
          R.WarmFlowMs > 0 ? R.BaselineFlowMs / R.WarmFlowMs : 0.0);
    P.set("cold_summary_ms", R.ColdSummaryMs);
    P.set("edit_summary_ms", R.EditSummaryMs);
    P.set("rechecked_after_edit", R.Rechecked);
    P.set("reused_after_edit", R.Reused);
    P.set("answers_match", R.AnswersMatch);
    Programs.push(std::move(P));
  }
  json::Value Doc = json::Value::object();
  Doc.set("repeats", Repeats);
  Doc.set("programs", std::move(Programs));
  std::printf("%s\n", Doc.dump().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--json") == 0)
      Json = true;

  std::vector<Result> Results;
  bool Ok = true;
  for (const char *Name : {"scanner", "zodiac", "sba"}) {
    Results.push_back(benchProgram(Name));
    Ok &= Results.back().AnswersMatch && Results.back().RecheckedExactlyOne;
  }

  if (Json)
    printJson(Results);
  else
    printTable(Results);
  if (!Ok) {
    std::fprintf(stderr, "bench_query: answer divergence or an over-wide "
                         "recheck (see rows above)\n");
    return 1;
  }
  return 0;
}
