//===-- perfbench/src/workloads.cpp - In-process workloads -----*- C++ -*-===//
///
/// \file
/// The untraced cold-batch and edit-loop workloads, driven through
/// ServeSession::handle, and the end-to-end summary every workload shares.
/// Both are closed loops: the next request goes out when the previous
/// answer is back.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "serve/serve.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

using namespace spidey;

namespace perfbench {

json::Value sendInProcess(ServeSession &S, ClientLog &Log, Request Rq) {
  json::Value Req = Rq.toJson(Log.Initial);
  Clock::time_point T0 = Clock::now();
  json::Value R = S.handle(Req);
  Outcome O;
  O.Ms = msBetween(T0, Clock::now());
  O.Response = R.dump();
  O.Failed = !okAndClean(R);
  Log.Requests.push_back(std::move(Rq));
  Log.Outcomes.push_back(std::move(O));
  return R;
}

void expectAnswer(ClientLog &Log, bool Cond, RunResult &Res,
                  const std::string &What) {
  if (Cond)
    return;
  Log.Outcomes.back().Failed = true;
  if (Res.Error.empty())
    Res.Error = What + ": " + Log.Outcomes.back().Response.substr(0, 300);
}

std::string identityNote(const std::vector<SourceFile> &Files,
                         EditPlanner Plan, bool Edits) {
  std::string Key;
  for (int I = 0; I < 16; ++I) {
    if (Edits) {
      Request E = Plan.nextEdit();
      Key += std::to_string(E.File) + ':' + std::to_string(textHash(E.Text));
    } else {
      Key += std::to_string(Plan.nextComponent());
    }
    Key += ':' + Plan.nextName() + ';';
  }
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "program %016llx, first-16-iteration trace %016llx",
                static_cast<unsigned long long>(programHash(Files)),
                static_cast<unsigned long long>(textHash(Key)));
  return Buf;
}

void SetupClock::begin() {
  Probes.push_back(speedProbeMs());
  T0 = Clock::now();
}

void SetupClock::end() { Raw.push_back(msBetween(T0, Clock::now()) / 1000.0); }

std::vector<double> SetupClock::seconds() {
  if (Probes.size() == Raw.size())
    Probes.push_back(speedProbeMs());
  std::vector<double> Out;
  for (size_t K = 0; K < Raw.size(); ++K)
    Out.push_back(Raw[K] * ReferenceProbeMs /
                  ((Probes[K] + Probes[K + 1]) / 2));
  return Out;
}

void summarize(const std::vector<ClientLog> &Logs,
               const std::vector<double> &SetupSeconds, double PeakRssMb,
               RunResult &Res) {
  std::vector<double> Analyze, Flow, Check, RawAnalyze, Probes;
  double OpsPerS = 0;
  for (const ClientLog &Log : Logs) {
    std::vector<double> Factor = speedFactors(Log);
    uint64_t Completed = 0;
    for (size_t K = 0; K < Log.Requests.size(); ++K) {
      const Request &Rq = Log.Requests[K];
      const Outcome &Out = Log.Outcomes[K];
      if (!Rq.Timed)
        continue;
      ++Res.Attempted;
      if (Out.Failed) {
        ++Res.Failed;
        continue; // a failed request counts as missing every latency limit
      }
      ++Completed;
      double Ms = Out.Ms * Factor[K];
      if (Rq.K == Cmd::Analyze) {
        Analyze.push_back(Ms);
        RawAnalyze.push_back(Out.Ms);
      } else if (Rq.K == Cmd::Flow) {
        Flow.push_back(Ms);
      } else if (Rq.K == Cmd::Check) {
        Check.push_back(Ms);
      }
    }
    // Completed requests per second of this client's loop, at the
    // reference speed; concurrent clients add up.
    double LoopMs = 0;
    for (const Iteration &It : Log.Iterations) {
      Probes.push_back(It.ProbeMs);
      if (It.FirstRequest < Factor.size()) // not the closing probe
        LoopMs += It.WallMs * Factor[It.FirstRequest];
    }
    if (LoopMs > 0)
      OpsPerS += double(Completed) * 1000.0 / LoopMs;
  }
  double TailPct = 0;
  double Tail = tailPercentile(Analyze, TailPct);
  Res.Metrics["analyze_p50_ms"] = {median(Analyze), "ms"};
  Res.Metrics["analyze_tail_ms"] = {Tail, "ms"};
  Res.Metrics["check_p50_ms"] = {median(Check), "ms"};
  Res.Metrics["flow_p50_ms"] = {median(Flow), "ms"};
  Res.Metrics["ops_per_s"] = {OpsPerS, "req/s"};
  Res.Metrics["peak_rss_mb"] = {PeakRssMb, "MiB"};
  Res.Metrics["setup_s"] = {median(SetupSeconds), "s"};
  if (Res.Failed)
    Res.Correct = false;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "fail_ratio %.6f ratio (%llu failed of %llu attempted)",
                Res.Attempted ? double(Res.Failed) / double(Res.Attempted) : 0.0,
                static_cast<unsigned long long>(Res.Failed),
                static_cast<unsigned long long>(Res.Attempted));
  Res.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "analyze_tail_ms is p%.1f over %zu analyze samples; "
                "%zu flow, %zu check-summary samples",
                TailPct, Analyze.size(), Flow.size(), Check.size());
  Res.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "speed probe median %.3f ms (reference %.1f ms); unscaled "
                "analyze p50 %.3f ms",
                median(Probes), ReferenceProbeMs, median(RawAnalyze));
  Res.Notes.push_back(Buf);
}

namespace {

bool loopOpen(Clock::time_point Start, const Options &O) {
  return msBetween(Start, Clock::now()) < O.Seconds * 1000.0;
}

} // namespace

Clock::time_point beginIteration(ClientLog &Log) {
  Iteration It;
  It.ProbeMs = speedProbeMs();
  It.FirstRequest = Log.Requests.size();
  Log.Iterations.push_back(It);
  return Clock::now();
}

void endIteration(ClientLog &Log, Clock::time_point Began) {
  Log.Iterations.back().WallMs = msBetween(Began, Clock::now());
}

void closeLoop(ClientLog &Log) {
  Iteration Closing;
  Closing.ProbeMs = speedProbeMs();
  Closing.FirstRequest = Log.Requests.size();
  Log.Iterations.push_back(Closing);
}

UntracedRun runColdBatch(const Options &O) {
  UntracedRun Run;
  RunResult &Res = Run.Result;
  ServeOptions SO;
  SO.Threads = ColdBatchThreads;

  SetupClock Setup;
  std::vector<SourceFile> Files;
  std::unique_ptr<EditPlanner> Plan;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Setup.begin();
    Files = benchProgram(O.Seed);
    Plan = std::make_unique<EditPlanner>(O.Seed, 0, Files, false);
    ServeSession Warm(SO);
    Warm.setFiles(Files);
    ClientLog WarmLog;
    WarmLog.Initial = Files;
    json::Value A = sendInProcess(Warm, WarmLog, Request{Cmd::Analyze});
    json::Value C = sendInProcess(Warm, WarmLog, Request{Cmd::Check});
    if (!okAndClean(A) || !okAndClean(C))
      throw std::runtime_error("cold-batch warm-up failed: " + C.dump());
    Setup.end();
  }
  std::vector<double> SetupSeconds = Setup.seconds();

  const std::string Identity = identityNote(Files, *Plan, /*Edits=*/false);
  // Closed loop: a fresh session (private store, so nothing is cached)
  // per iteration, as a batch or CI user of spidey-analyze pays.
  ClientLog Log;
  Log.Initial = Files;
  const double N = double(Files.size());
  std::unique_ptr<ServeSession> Last;
  Clock::time_point Start = Clock::now();
  while (loopOpen(Start, O)) {
    Last.reset();
    Clock::time_point Began = beginIteration(Log);
    Last = std::make_unique<ServeSession>(SO);
    Last->setFiles(Files);
    Log.Requests.push_back(Request{Cmd::Open});
    Log.Outcomes.push_back(Outcome{});

    Request A{Cmd::Analyze};
    A.Timed = true;
    A.Target = Plan->nextComponent();
    json::Value RA = sendInProcess(*Last, Log, A);
    expectAnswer(Log, num(RA, "rederived") == N, Res,
                 "cold analyze did not derive every component");

    Request F{Cmd::Flow};
    F.Timed = true;
    F.Name = Plan->nextName();
    F.Target = A.Target;
    sendInProcess(*Last, Log, F);

    Request C{Cmd::Check};
    C.Timed = true;
    C.Target = A.Target;
    json::Value RC = sendInProcess(*Last, Log, C);
    expectAnswer(Log, num(RC, "components_rechecked") == N, Res,
                 "cold check-summary did not sweep every component");
    endIteration(Log, Began);
  }
  closeLoop(Log);
  double Rss = selfPeakRssMb();

  // Verification, outside the timed loop.
  Reference Cold(Files);
  Run.FinalCombined = Last->combinedText();
  if (Run.FinalCombined != Cold.combinedText()) {
    Res.Correct = false;
    Res.Error = "cold-batch combined text differs from a fresh cold analyzer";
  }
  Last.reset();
  std::string Err;
  verifyAgainstReferences(Log, Err);
  if (!Err.empty() && Res.Error.empty())
    Res.Error = Err;
  Run.Logs.push_back(std::move(Log));
  summarize(Run.Logs, SetupSeconds, Rss, Res);
  Res.Notes.push_back(Identity);
  return Run;
}

UntracedRun runEditLoop(const Options &O) {
  UntracedRun Run;
  RunResult &Res = Run.Result;

  SetupClock Setup;
  std::unique_ptr<ServeSession> Session;
  std::unique_ptr<EditPlanner> Plan;
  ClientLog Log;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Session.reset();
    Setup.begin();
    std::vector<SourceFile> Files = benchProgram(O.Seed);
    Plan = std::make_unique<EditPlanner>(O.Seed, 0, Files, false);
    // The daemon's default options: step 1 on hardware concurrency.
    Session = std::make_unique<ServeSession>(ServeOptions{});
    Session->setFiles(Files);
    Log = ClientLog{};
    Log.Initial = std::move(Files);
    json::Value A = sendInProcess(*Session, Log, Request{Cmd::Analyze});
    json::Value C = sendInProcess(*Session, Log, Request{Cmd::Check});
    if (!okAndClean(A) || !okAndClean(C))
      throw std::runtime_error("edit-loop warm-up failed: " + C.dump());
    Setup.end();
  }
  std::vector<double> SetupSeconds = Setup.seconds();

  const std::string Identity =
      identityNote(Log.Initial, *Plan, /*Edits=*/true);
  const double N = double(Log.Initial.size());
  Clock::time_point Start = Clock::now();
  while (loopOpen(Start, O)) {
    Clock::time_point Began = beginIteration(Log);
    Request E = Plan->nextEdit();
    E.Timed = true;
    const uint32_t Target = E.Target;
    sendInProcess(*Session, Log, std::move(E));

    Request A{Cmd::Analyze};
    A.Timed = true;
    A.Target = Target;
    json::Value RA = sendInProcess(*Session, Log, A);
    expectAnswer(Log, num(RA, "rederived") == 1 && num(RA, "reused") == N - 1,
                 Res, "analyze after a one-component edit");

    Request F{Cmd::Flow};
    F.Timed = true;
    F.Name = Plan->nextName();
    F.Target = Target;
    sendInProcess(*Session, Log, F);

    Request C{Cmd::Check};
    C.Timed = true;
    C.Target = Target;
    json::Value RC = sendInProcess(*Session, Log, C);
    expectAnswer(Log, num(RC, "components_rechecked") == 1, Res,
                 "check-summary after a one-component edit");
    endIteration(Log, Began);
  }
  closeLoop(Log);
  double Rss = selfPeakRssMb();

  // Verification, outside the timed loop: the resident session's combined
  // system equals a fresh cold run over the same texts, and every answer
  // matches the references of its program state.
  Run.FinalCombined = Session->combinedText();
  Session.reset();
  {
    Reference Cold(Plan->current());
    if (Run.FinalCombined != Cold.combinedText()) {
      Res.Correct = false;
      Res.Error = "edit-loop combined text differs from a fresh cold analyzer";
    }
  }
  std::string Err;
  verifyAgainstReferences(Log, Err);
  if (!Err.empty() && Res.Error.empty())
    Res.Error = Err;
  Run.Logs.push_back(std::move(Log));
  summarize(Run.Logs, SetupSeconds, Rss, Res);
  Res.Notes.push_back(Identity);
  return Run;
}

} // namespace perfbench
