//===-- perfbench/src/mirror.cpp - Traced per-layer replay -----*- C++ -*-===//
///
/// \file
/// The traced run. It replays the untraced run's exact request traces
/// through a mirror of ServeSession::ensureAnalyzed and its flow and
/// check-summary commands, built from the same public calls in the same
/// order with the same options (MergeViaFiles, a fresh CancelToken per
/// analysis, the query engine rebound per generation), and records a span
/// around every call into a layer. Between requests it times standalone
/// probes the session does not expose: FlowIndex::build on the same
/// system, reconstruct() of the iteration's component, runChecks on that
/// reconstruction, and the JSON parse/dump of the request and response.
///
/// The mirror must measure the same program: its answers and final
/// combined text must equal the untraced session's, or the run fails.
/// Multi-tenant mirrors the four sessions over one shared
/// MemoryConstraintStore, each reached through the benchmark's own
/// ConstraintStore wrapper, and additionally replays the traces through
/// an in-process SessionRegistry to split socket latency into transport
/// and in-process time.
///
//===----------------------------------------------------------------------===//

#include "multitenant.h"
#include "workloads.h"

#include "debugger/checks.h"
#include "query/flow_index.h"
#include "query/query_engine.h"
#include "serve/registry.h"
#include "serve/serve.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

using namespace spidey;

namespace perfbench {

namespace {

/// The benchmark's ConstraintStore lens: attributes probes to a session
/// like SessionStoreView, and counts probes, hits, bytes loaded and the
/// time spent in load (lock wait included).
class TimedStore final : public ConstraintStore {
public:
  TimedStore(MemoryConstraintStore &Backing, uint64_t Session)
      : Backing(Backing), Session(Session) {}

  std::optional<std::string> load(const std::string &Key) override {
    Clock::time_point T0 = Clock::now();
    bool Cross = false;
    std::optional<std::string> Text = Backing.loadFor(Key, Session, &Cross);
    LoadNs.fetch_add(uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - T0)
                                  .count()),
                     std::memory_order_relaxed);
    Probes.fetch_add(1, std::memory_order_relaxed);
    if (Text) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      Bytes.fetch_add(Text->size(), std::memory_order_relaxed);
    }
    return Text;
  }
  void store(const std::string &Key, const std::string &Text) override {
    Backing.storeFor(Key, Text, Session);
  }

  struct Counts {
    uint64_t Probes = 0, Hits = 0, Bytes = 0, LoadNs = 0;
  };
  Counts counts() const {
    return {Probes.load(), Hits.load(), Bytes.load(), LoadNs.load()};
  }

private:
  MemoryConstraintStore &Backing;
  uint64_t Session;
  std::atomic<uint64_t> Probes{0}, Hits{0}, Bytes{0}, LoadNs{0};
};

/// Per-layer samples of the timed requests, by metric name.
struct Samples {
  std::map<std::string, std::vector<double>> V;
  void add(const std::string &Name, double X) { V[Name].push_back(X); }
  void merge(const Samples &O) {
    for (const auto &[K, Xs] : O.V)
      V[K].insert(V[K].end(), Xs.begin(), Xs.end());
  }
  double med(const std::string &K) const {
    auto It = V.find(K);
    return It == V.end() ? 0 : median(It->second);
  }
  double mean(const std::string &K) const {
    auto It = V.find(K);
    if (It == V.end() || It->second.empty())
      return 0;
    double S = 0;
    for (double X : It->second)
      S += X;
    return S / double(It->second.size());
  }
  double ratio(const std::string &Num, const std::string &Den) const {
    double D = mean(Den);
    return D > 0 ? mean(Num) / D : 0;
  }
};

/// One traced request: its wall time, the time its layer spans cover, and
/// the untraced latency of the same request.
struct TracedRequest {
  Cmd K;
  double WallMs = 0, LayerMs = 0, UntracedMs = 0;
};

/// The mirror of one serve session.
class MirrorSession {
public:
  MirrorSession(unsigned Threads, MemoryConstraintStore *Shared,
                uint64_t SessionId, Tracer &T)
      : Threads(Threads), View(Shared ? *Shared : OwnedStore, SessionId),
        T(T) {}

  MemoryConstraintStore &ownStore() { return OwnedStore; }
  void setFiles(std::vector<SourceFile> F) {
    Files = std::move(F);
    Dirty = true;
  }

  void edit(const Request &Rq) {
    SpanScope S(T, "serve.edit", Req);
    SourceFile &F = Files.at(Rq.File);
    if (F.Text != Rq.Text) {
      F.Text = Rq.Text;
      Dirty = true;
    }
  }

  /// ServeSession::ensureAnalyzed, call for call.
  void analyze(Samples *Out) {
    if (!Dirty && CA)
      return;
    auto NewProg = std::make_unique<Program>();
    {
      SpanScope S(T, "lang.parse", Req);
      DiagnosticEngine Diags;
      if (!parseProgram(*NewProg, Diags, Files))
        throw std::runtime_error("mirror parse failed: " + Diags.str());
    }
    {
      SpanScope S(T, "componential.teardown", Req);
      CA.reset();
      Prog = std::move(NewProg);
    }
    Token = std::make_unique<CancelToken>();
    Token->setDeadlineMs(0);
    Token->setWorkBudget(0);
    ComponentialOptions CO;
    CO.Threads = Threads;
    CO.MemStore = &View;
    CO.MergeViaFiles = true;
    CO.Cancel = Token.get();
    TimedStore::Counts Before = View.counts();
    {
      SpanScope S(T, "componential.run", Req);
      CA = std::make_unique<ComponentialAnalyzer>(*Prog, CO);
      CA->run();
    }
    const ComponentialRunInfo &Info = CA->runInfo();
    Dirty = Info.Cancelled || Info.MergedOffText;
    Rederived = Reused = 0;
    for (const ComponentRunStats &CS : CA->componentStats())
      (CS.ReusedFile ? Reused : Rederived) += 1;
    if (Out) {
      TimedStore::Counts After = View.counts();
      size_t Bytes = 0, FileBytes = 0, Raw = 0, Kept = 0;
      for (const SourceFile &F : Files)
        Bytes += F.Text.size();
      for (const ComponentRunStats &CS : CA->componentStats()) {
        FileBytes += CS.FileBytes;
        if (!CS.ReusedFile) {
          Raw += CS.RawConstraints;
          Kept += CS.SimplifiedConstraints;
        }
      }
      Out->add("lang.bytes_parsed", double(Bytes));
      Out->add("componential.derive_ms", Info.DeriveMs);
      Out->add("componential.merge_ms", Info.MergeMs);
      Out->add("componential.close_ms", Info.CloseMs);
      Out->add("componential.rederived", Rederived);
      Out->add("componential.reused", Reused);
      Out->add("analysis.bulk_cloned",
               double(Info.Derive.BulkClonedConstraints));
      Out->add("simplify.raw", double(Raw));
      Out->add("simplify.kept", double(Kept));
      Out->add("constraints.file_bytes", double(FileBytes));
      Out->add("constraints.combined", double(CA->combined().size()));
      Out->add("constraints.combines_attempted",
               double(Info.Closure.CombinesAttempted));
      Out->add("constraints.combines_inserted",
               double(Info.Closure.CombinesInserted));
      Out->add("store.probes", double(After.Probes - Before.Probes));
      Out->add("store.hits", double(After.Hits - Before.Hits));
      Out->add("store.load_ms", double(After.LoadNs - Before.LoadNs) / 1e6);
      Out->add("store.bytes_loaded", double(After.Bytes - Before.Bytes));
    }
    SpanScope S(T, "query.rebind", Req);
    Queries.rebind(*Prog, *CA, Token.get(), Dirty,
                   /*AllowVerdictCache=*/true, CA->optionsFingerprint());
  }

  QueryEngine::FlowAnswer flow(const std::string &Name, Samples *Out) {
    analyze(Out);
    Token->rearm(0, 0);
    SpanScope S(T, "query.flow", Req);
    return Queries.flow(Name);
  }

  QueryEngine::SummaryAnswer check(Samples *Out) {
    analyze(Out);
    Token->rearm(0, 0);
    SpanScope S(T, "query.check", Req);
    return Queries.checkSummary();
  }

  /// Standalone probes, outside any request span.
  void indexBuild() {
    FlowIndex FI;
    SpanScope S(T, "query.index_build", Req);
    FI.build(CA->combined());
  }
  void reconstructAndCheck(uint32_t Target, Samples &Out) {
    std::unique_ptr<ConstraintSystem> Full;
    Clock::time_point T0 = Clock::now();
    {
      SpanScope S(T, "componential.reconstruct", Req);
      Full = CA->reconstruct(Target);
    }
    Clock::time_point T1 = Clock::now();
    {
      SpanScope S(T, "debugger.checks", Req);
      runChecks(*Prog, CA->maps(), *Full);
    }
    Out.add("componential.reconstruct_ms", msBetween(T0, T1));
    Out.add("debugger.checks_ms", msBetween(T1, Clock::now()));
  }

  std::string combinedText() { return CA ? CA->combined().str() : ""; }

  /// Empty when the last analysis matches a session's analyze answer on
  /// the reuse counts and the combined system's size.
  std::string compareAnalyze(const json::Value &R) const {
    bool Same = num(R, "rederived") == Rederived &&
                num(R, "reused") == Reused &&
                num(R, "combined_constraints") == double(CA->combined().size());
    return Same ? "" : "mirror analyze differs from the session: " + R.dump();
  }

  int64_t Req = -1; ///< the request being replayed

private:
  unsigned Threads;
  MemoryConstraintStore OwnedStore;
  TimedStore View;
  Tracer &T;
  std::unique_ptr<CancelToken> Token;
  std::vector<SourceFile> Files;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ComponentialAnalyzer> CA;
  QueryEngine Queries;
  bool Dirty = true;
  double Rederived = 0, Reused = 0; ///< of the last analysis
};

std::string compareFlow(const QueryEngine::FlowAnswer &A,
                        const json::Value &R) {
  std::vector<std::string> Kinds;
  if (const json::Value *KV = R.find("kinds"))
    for (const json::Value &K : KV->items())
      Kinds.push_back(K.asString());
  bool Same = A.Found && num(R, "var") == double(A.Var) && Kinds == A.Kinds &&
              num(R, "parents") == double(A.Parents) &&
              num(R, "children") == double(A.Children) &&
              num(R, "ancestors") == double(A.Ancestors) &&
              num(R, "descendants") == double(A.Descendants) &&
              (R.find("memoized") != nullptr) == A.FromSummary;
  return Same ? "" : "mirror flow differs from the session: " + R.dump();
}

std::string compareSummary(const QueryEngine::SummaryAnswer &A,
                           const json::Value &R) {
  bool Same = !A.Partial && R.str("summary") == A.Summary &&
              num(R, "components_rechecked") == double(A.Rechecked) &&
              num(R, "components_reused") == double(A.Reused);
  return Same ? "" : "mirror check-summary differs from the session";
}

/// Replays one client's log through a mirror; returns the first mismatch.
std::string replay(const ClientLog &Log, unsigned Threads,
                   MemoryConstraintStore *Shared, uint64_t SessionId,
                   Tracer &T, Samples &Out, std::vector<TracedRequest> &Reqs,
                   std::unique_ptr<MirrorSession> &Session,
                   const std::vector<double> *InProcessMs) {
  std::string Err;
  auto fail = [&](const std::string &E) {
    if (Err.empty())
      Err = E;
  };
  for (size_t K = 0; K < Log.Requests.size(); ++K) {
    const Request &Rq = Log.Requests[K];
    const Outcome &Recorded = Log.Outcomes[K];
    if (Rq.K == Cmd::Open) {
      if (!Session || !Shared)
        Session = std::make_unique<MirrorSession>(Threads, Shared, SessionId,
                                                  T);
      Session->setFiles(Log.Initial);
      continue;
    }
    std::optional<json::Value> Resp = json::Value::parse(Recorded.Response);
    if (!Resp)
      throw std::runtime_error("unparsable recorded response");
    Samples *Timed = Rq.Timed ? &Out : nullptr;
    MirrorSession &M = *Session;
    M.Req = int64_t(K);
    int Id;
    {
      SpanScope Root(T, Rq.K == Cmd::Edit      ? "serve.edit_request"
                        : Rq.K == Cmd::Analyze ? "serve.analyze"
                        : Rq.K == Cmd::Flow    ? "serve.flow"
                                               : "serve.check-summary",
                     int64_t(K));
      Id = Root.id();
      switch (Rq.K) {
      case Cmd::Edit:
        M.edit(Rq);
        break;
      case Cmd::Analyze:
        M.analyze(Timed);
        // Set-up analyses of concurrent tenants race for the shared files,
        // so only timed ones have deterministic reuse counts.
        if (std::string E = Rq.Timed ? M.compareAnalyze(*Resp) : "";
            !E.empty())
          fail(E);
        break;
      case Cmd::Flow: {
        QueryEngine::FlowAnswer A = M.flow(Rq.Name, Timed);
        if (std::string E = compareFlow(A, *Resp); !E.empty())
          fail(E);
        break;
      }
      case Cmd::Check: {
        QueryEngine::SummaryAnswer A = M.check(Timed);
        if (std::string E = compareSummary(A, *Resp); !E.empty())
          fail(E);
        if (Timed) {
          Out.add("query.rechecked", A.Rechecked);
          Out.add("query.verdicts_reused", A.Reused);
        }
        break;
      }
      default:
        break;
      }
    }
    if (!Timed)
      continue;
    const Span &S = T.spans()[Id];
    double Layers = 0;
    for (size_t C = Id + 1; C < T.spans().size(); ++C)
      if (T.spans()[C].Parent == Id) {
        Layers += T.spans()[C].ms();
        Out.add(std::string(T.spans()[C].Name) + "_ms", T.spans()[C].ms());
      }
    Reqs.push_back({Rq.K, S.ms(), Layers,
                    InProcessMs ? (*InProcessMs)[K] : Recorded.Ms});

    // Standalone probes, between requests.
    if (Rq.K == Cmd::Flow) {
      Clock::time_point T0 = Clock::now();
      M.indexBuild();
      Out.add("query.index_build_ms", msBetween(T0, Clock::now()));
    }
    if (Rq.K == Cmd::Check)
      M.reconstructAndCheck(Rq.Target, Out);
    {
      std::string Line = Rq.toJson(Log.Initial).dump();
      Clock::time_point T0 = Clock::now();
      {
        SpanScope J(T, "serve.json", int64_t(K));
        std::optional<json::Value> Parsed = json::Value::parse(Line);
        std::string Dumped = Resp->dump();
        if (!Parsed || Dumped.empty())
          fail("json round trip failed");
      }
      Out.add("serve.json_ms", msBetween(T0, Clock::now()));
    }
  }
  return Err;
}

/// In-process multi-tenant replay through SessionRegistry/ClientContext:
/// the same traces without the socket. Returns each request's latency.
std::vector<std::vector<double>>
replayRegistry(const std::vector<ClientLog> &Logs,
               std::vector<std::string> &FinalCombined, std::string &Err) {
  ServeOptions Base;
  Base.Threads = 1;
  SessionRegistry Reg(Base, {}, Tenants);
  std::vector<std::unique_ptr<ClientContext>> Ctx;
  for (unsigned C = 0; C < Tenants; ++C) {
    std::string E;
    Ctx.push_back(Reg.connect(E));
    if (!Ctx.back())
      throw std::runtime_error("registry refused a tenant: " + E);
  }
  std::vector<std::vector<double>> Ms(Tenants);
  std::vector<std::string> Errors(Tenants);
  FinalCombined.assign(Tenants, "");
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Tenants; ++C)
    Threads.emplace_back([&, C] {
      const ClientLog &Log = Logs[C];
      Ms[C].assign(Log.Requests.size(), 0.0);
      for (size_t K = 0; K < Log.Requests.size(); ++K) {
        const Request &Rq = Log.Requests[K];
        if (Rq.K == Cmd::Open) {
          // The files are gone with the daemon's deployment; setFiles is
          // what open does once it has read them.
          Ctx[C]->session().setFiles(Log.Initial);
          continue;
        }
        std::string Line = Rq.toJson(Log.Initial).dump();
        Clock::time_point T0 = Clock::now();
        std::string Resp = Ctx[C]->handleLine(Line);
        Ms[C][K] = msBetween(T0, Clock::now());
        std::string D = sameAnswer(Rq, Log.Outcomes[K].Response, Resp);
        if (!D.empty() && Errors[C].empty())
          Errors[C] = "in-process tenant " + std::to_string(C) + ": " + D +
                      " differs from the daemon";
      }
      FinalCombined[C] = Ctx[C]->session().combinedText();
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    if (!E.empty() && Err.empty())
      Err = E;
  return Ms;
}

} // namespace

RunResult runTraced(const Options &O, UntracedRun &Untraced) {
  RunResult Res;
  Res.Correct = Untraced.Result.Correct && Untraced.Result.Failed == 0;
  Res.Attempted = Untraced.Result.Attempted;
  Res.Failed = Untraced.Result.Failed;
  Res.Error = Untraced.Result.Error;
  for (const std::string &N : Untraced.Result.Notes)
    Res.Notes.push_back("untraced: " + N);
  for (const auto &[Name, M] : Untraced.Result.Metrics) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "untraced %s = %.4f %s", Name.c_str(),
                  M.Value, M.Unit.c_str());
    Res.Notes.push_back(Buf);
  }
  auto fail = [&](const std::string &E) {
    if (E.empty())
      return;
    Res.Correct = false;
    if (Res.Error.empty())
      Res.Error = E;
  };

  const bool Multi = O.Workload == "multi-tenant";
  const unsigned Threads = O.Workload == "cold-batch" ? ColdBatchThreads
                           : Multi                    ? 1
                                                      : 0;
  std::vector<ClientLog> &Logs = Untraced.Logs;

  // Multi-tenant: the in-process registry replay first (transport split).
  std::vector<std::vector<double>> InProcess;
  std::vector<std::string> RegistryCombined;
  if (Multi) {
    std::string Err;
    InProcess = replayRegistry(Logs, RegistryCombined, Err);
    fail(Err);
  }

  Clock::time_point Origin = Clock::now();
  MemoryConstraintStore Shared;
  std::vector<std::unique_ptr<Tracer>> Tracers;
  std::vector<Samples> PerClient(Logs.size());
  std::vector<std::vector<TracedRequest>> Reqs(Logs.size());
  std::vector<std::unique_ptr<MirrorSession>> Sessions(Logs.size());
  std::vector<std::string> Errors(Logs.size());
  for (size_t C = 0; C < Logs.size(); ++C)
    Tracers.push_back(std::make_unique<Tracer>(uint32_t(C + 1)));
  auto body = [&](size_t C) {
    try {
      Errors[C] = replay(Logs[C], Threads, Multi ? &Shared : nullptr,
                         Multi ? C + 1 : 0, *Tracers[C], PerClient[C],
                         Reqs[C], Sessions[C],
                         Multi ? &InProcess[C] : nullptr);
    } catch (const std::exception &E) {
      Errors[C] = E.what();
    }
  };
  if (!Multi) {
    // Single-session workloads start from the program, not an open.
    Sessions[0] = std::make_unique<MirrorSession>(Threads, nullptr, 0,
                                                  *Tracers[0]);
    Sessions[0]->setFiles(Logs[0].Initial);
    body(0);
  } else {
    std::vector<std::thread> Ts;
    for (size_t C = 0; C < Logs.size(); ++C)
      Ts.emplace_back(body, C);
    for (std::thread &T : Ts)
      T.join();
  }
  for (const std::string &E : Errors)
    fail(E);

  // The mirror measured the same program: final combined systems agree.
  for (size_t C = 0; C < Logs.size(); ++C) {
    std::string Mine = Sessions[C] ? Sessions[C]->combinedText() : "";
    const std::string &Theirs =
        Multi ? RegistryCombined[C] : Untraced.FinalCombined;
    if (Mine.empty() || Mine != Theirs)
      fail("mirror combined text differs from the session's");
  }

  // Per-layer metrics.
  Samples All;
  std::vector<TracedRequest> AllReqs;
  for (size_t C = 0; C < Logs.size(); ++C) {
    All.merge(PerClient[C]);
    AllReqs.insert(AllReqs.end(), Reqs[C].begin(), Reqs[C].end());
  }
  MetricMap &M = Res.Metrics;
  auto ms = [&](const char *Name, const std::string &Key) {
    M[Name] = {All.med(Key), "ms"};
  };
  auto count = [&](const char *Name, const std::string &Key,
                   const char *Unit) { M[Name] = {All.mean(Key), Unit}; };
  ms("lang.parse_ms", "lang.parse_ms");
  count("lang.bytes_parsed", "lang.bytes_parsed", "bytes");
  ms("componential.teardown_ms", "componential.teardown_ms");
  ms("componential.run_ms", "componential.run_ms");
  ms("componential.derive_ms", "componential.derive_ms");
  ms("componential.merge_ms", "componential.merge_ms");
  ms("componential.close_ms", "componential.close_ms");
  count("componential.rederived", "componential.rederived", "count");
  count("componential.reused", "componential.reused", "count");
  ms("componential.reconstruct_ms", "componential.reconstruct_ms");
  count("analysis.bulk_cloned", "analysis.bulk_cloned", "count");
  M["simplify.kept_ratio"] = {All.ratio("simplify.kept", "simplify.raw"),
                              "ratio"};
  count("constraints.file_bytes", "constraints.file_bytes", "bytes");
  count("constraints.combined", "constraints.combined", "count");
  count("constraints.combines_attempted", "constraints.combines_attempted",
        "count");
  M["constraints.insert_ratio"] = {
      All.ratio("constraints.combines_inserted",
                "constraints.combines_attempted"),
      "ratio"};
  count("store.probes", "store.probes", "count");
  M["store.hit_ratio"] = {All.ratio("store.hits", "store.probes"), "ratio"};
  ms("store.load_ms", "store.load_ms");
  count("store.bytes_loaded", "store.bytes_loaded", "bytes");
  ms("query.flow_ms", "query.flow_ms");
  ms("query.index_build_ms", "query.index_build_ms");
  ms("query.check_ms", "query.check_ms");
  count("query.rechecked", "query.rechecked", "count");
  count("query.verdicts_reused", "query.verdicts_reused", "count");
  ms("debugger.checks_ms", "debugger.checks_ms");
  ms("serve.json_ms", "serve.json_ms");

  // Store state: the daemon's stats for multi-tenant, else the mirror's
  // own store (same program, same trace).
  if (Multi) {
    const json::Value &S = Untraced.DaemonStats;
    M["store.cross_session_hits"] = {
        num(S, "store_cross_session_hits_total"), "count"};
    M["store.resident_bytes"] = {num(S, "store_bytes"), "bytes"};
    M["store.evictions"] = {num(S, "store_evictions"), "count"};
  } else {
    MemoryConstraintStore &S = Sessions[0]->ownStore();
    M["store.cross_session_hits"] = {double(S.crossSessionHits()), "count"};
    M["store.resident_bytes"] = {double(S.bytes()), "bytes"};
    M["store.evictions"] = {double(S.evictions()), "count"};
  }

  // Transport: socket latency minus in-process ClientContext::handleLine
  // latency, per request. Single-process workloads have no socket; there
  // the in-process line framing (request parse + response dump) is the
  // whole transport.
  if (Multi) {
    std::vector<double> Transport;
    for (size_t C = 0; C < Logs.size(); ++C)
      for (size_t K = 0; K < Logs[C].Requests.size(); ++K)
        if (Logs[C].Requests[K].Timed)
          Transport.push_back(Logs[C].Outcomes[K].Ms - InProcess[C][K]);
    M["serve.transport_ms"] = {median(Transport), "ms"};
  } else {
    M["serve.transport_ms"] = {All.med("serve.json_ms"), "ms"};
  }

  // Unaccounted: untraced analyze p50 minus the median time the traced
  // layer spans of an analyze cover; overhead: traced over untraced wall.
  std::vector<double> UntracedAnalyze, LayerAnalyze;
  double TracedWall = 0, UntracedWall = 0;
  for (const TracedRequest &R : AllReqs) {
    TracedWall += R.WallMs;
    UntracedWall += R.UntracedMs;
    if (R.K == Cmd::Analyze) {
      UntracedAnalyze.push_back(R.UntracedMs);
      LayerAnalyze.push_back(R.LayerMs);
    }
  }
  M["serve.unaccounted_ms"] = {median(UntracedAnalyze) - median(LayerAnalyze),
                               "ms"};
  M["trace.overhead_ratio"] = {UntracedWall > 0 ? TracedWall / UntracedWall
                                                : 0,
                               "ratio"};

  if (!O.TraceOut.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(O.TraceOut).parent_path());
    std::vector<const Tracer *> Ts;
    for (const std::unique_ptr<Tracer> &T : Tracers)
      Ts.push_back(T.get());
    if (!writeChromeTrace(O.TraceOut, Ts, Origin))
      fail("cannot write " + O.TraceOut);
    Res.Notes.push_back("chrome trace: " + O.TraceOut);
  }
  return Res;
}

} // namespace perfbench
