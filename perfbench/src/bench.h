//===-- perfbench/src/bench.h - Shared benchmark declarations --*- C++ -*-===//
///
/// \file
/// Declarations shared by the benchmark's workloads, its traced mirror and
/// its reference checks. The benchmark drives only the library's public
/// entry points: ServeSession::handle, SessionRegistry/ClientContext, the
/// spidey-serve daemon over its unix socket, and (in the traced mirror)
/// parseProgram, ComponentialAnalyzer, QueryEngine, FlowIndex, runChecks
/// and json::Value.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "tracer.h"

#include "lang/parser.h"
#include "serve/json.h"

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ServeBin; ///< spidey-serve binary (multi-tenant)
  std::string WorkDir;  ///< scratch directory for program files and socket
  std::string TraceOut; ///< Chrome trace-event file of the traced run
};

/// Step-1 worker threads of the cold-batch sessions (the spidey-analyze
/// default on the 4-core reference machine is hardware concurrency).
constexpr unsigned ColdBatchThreads = 4;
/// Concurrent client connections of the multi-tenant workload.
constexpr unsigned Tenants = 4;
/// Iterations of each tenant's trace replayed on a dedicated session for
/// the isolation check (bounded so verification stays a fraction of the
/// run).
constexpr unsigned IsolationIterations = 48;
/// Set-up repetitions per run; setup_s is their median.
constexpr int SetupReps = 5;

enum class Cmd : uint8_t { Open, Edit, Analyze, Flow, Check };
const char *cmdName(Cmd K);

/// One request of a client's trace.
struct Request {
  Request() = default;
  explicit Request(Cmd K) : K(K) {}

  Cmd K = Cmd::Analyze;
  uint32_t File = 0;   ///< Edit: index of the edited file
  std::string Text;    ///< Edit: the file's new text
  std::string Name;    ///< Flow: the queried top-level name
  bool Timed = false;  ///< part of the timed loop, not set-up
  uint32_t Target = 0; ///< the component this iteration is about
  /// The request as the protocol spells it (\p Files names the program).
  spidey::json::Value toJson(const std::vector<spidey::SourceFile> &Files) const;
};

/// What one request got back.
struct Outcome {
  double Ms = 0;        ///< latency as the client saw it
  std::string Response; ///< the response line
  bool Failed = false;  ///< not ok, degraded, or a wrong answer
};

/// One iteration of a client's timed loop.
struct Iteration {
  double ProbeMs = 0;      ///< speedProbeMs() just before the iteration
  double WallMs = 0;       ///< the iteration's wall time
  size_t FirstRequest = 0; ///< index of its first request in the log
};

/// One client's executed trace.
struct ClientLog {
  std::vector<spidey::SourceFile> Initial; ///< the program it opened
  std::vector<Request> Requests;
  std::vector<Outcome> Outcomes;
  std::vector<Iteration> Iterations;
};

/// The sba-calibrated generated program (31 files, about 10k lines) with
/// the generator seed replaced by the workload seed.
std::vector<spidey::SourceFile> benchProgram(uint64_t Seed);

/// FNV-1a over every file's text, in order: the program's identity (file
/// names carry per-run directories in the multi-tenant workload).
uint64_t programHash(const std::vector<spidey::SourceFile> &Files);
uint64_t textHash(const std::string &Text);

/// Top-level define names in definition order, first definition winning.
std::vector<std::string>
topLevelNames(const std::vector<spidey::SourceFile> &Files);

/// Seeded edit/undo/name trace of one client. An edit replaces the target
/// component's previous probe with one fresh unreferenced define, so the
/// program does not grow; with undo enabled, one edit in four restores a
/// probed component's original text instead.
class EditPlanner {
public:
  EditPlanner(uint64_t Seed, uint32_t Stream,
              std::vector<spidey::SourceFile> Original, bool WithUndo);

  /// The next iteration's edit (its Target is the edited component).
  Request nextEdit();
  /// A seeded component index (the cold-batch reconstruct probe).
  uint32_t nextComponent();
  /// A seeded top-level name of the original program.
  const std::string &nextName();
  const std::vector<spidey::SourceFile> &current() const { return Current; }

private:
  std::mt19937_64 Rng;
  uint32_t Stream;
  uint64_t Iter = 0;
  bool WithUndo;
  std::vector<spidey::SourceFile> Original, Current;
  std::vector<bool> Probed;
  std::vector<std::string> Names;
};

/// Field accessors for response objects.
double num(const spidey::json::Value &R, const char *Key);
bool okAndClean(const spidey::json::Value &R);

/// Independent answers for one program state: a fresh cold
/// ComponentialAnalyzer{MergeViaFiles} supplies the combined text and the
/// system a plain BFS over ε-edges walks; the check summary comes from a
/// whole-program analyzeProgram + runChecks. Neither is a timed code path.
class Reference {
public:
  explicit Reference(const std::vector<spidey::SourceFile> &Files);
  ~Reference();

  const std::string &combinedText();
  /// Compares a flow response; \p WithVar also pins the variable id (ids
  /// depend on the program state, the other fields do not change under
  /// probe edits). Empty string = match, else a description.
  std::string checkFlow(const spidey::json::Value &R, bool WithVar);
  /// Compares a check-summary response's summary text.
  std::string checkSummary(const spidey::json::Value &R);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Verifies a client's answers against references. Every flow and
/// check-summary answer is compared with the reference of its program
/// state (cheaply, against the initial state's answers where probe edits
/// provably do not change them; a mismatch there is re-decided on a fresh
/// reference of the exact state), and answers at iterations 1, 2, 4, 8, ...
/// are pinned in full, variable ids included. Returns the number of wrong
/// answers and marks their outcomes Failed.
uint64_t verifyAgainstReferences(ClientLog &Log, std::string &FirstError);

/// Percentiles over latency samples (ms).
double median(std::vector<double> V);
/// The highest percentile with at least ten samples beyond it; sets
/// \p Pct to that percentile (0 when fewer than 11 samples).
double tailPercentile(std::vector<double> V, double &Pct);

/// The machine-speed probe: the faster of two runs of a fixed kernel of
/// sorting, hash-map updates and a pointer chase over 1 MiB that calls no
/// spidey code, about 2.5 ms on the reference machine. Load from outside
/// the machine slows it and the analysis alike.
double speedProbeMs();
/// The probe's time on the reference machine (4-vCPU VM, unloaded): every
/// time the benchmark reports is scaled to this machine speed.
constexpr double ReferenceProbeMs = 2.5;
/// Per request of \p Log, ReferenceProbeMs over the mean of the two probes
/// that bracket its iteration (1 for requests outside the timed loop).
std::vector<double> speedFactors(const ClientLog &Log);

/// Peak resident set of this process / of \p Pid, in MiB.
double selfPeakRssMb();
double pidPeakRssMb(int Pid);

/// One metric of the result line.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What a workload run reports.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string Error; ///< first failure, for the log
  MetricMap Metrics;
  std::vector<std::string> Notes; ///< human-readable lines before the result
};

/// An untraced run: the end-to-end metrics, plus the executed traces with
/// their untraced latencies for the traced replay.
struct UntracedRun {
  RunResult Result;
  std::vector<ClientLog> Logs;
  spidey::json::Value DaemonStats; ///< multi-tenant: store counters
  /// The last session's final combined text (cold-batch, edit-loop), for
  /// the mirror-equals-session check.
  std::string FinalCombined;
};
UntracedRun runColdBatch(const Options &O);
UntracedRun runEditLoop(const Options &O);
/// With O.Trace the dedicated-session isolation replay is skipped: the
/// traced run replays every trace in process and checks it instead.
UntracedRun runMultiTenant(const Options &O);

/// Traced run: replays the untraced run's exact request traces through a
/// mirror of the serve session built from the public calls, and reports
/// the per-layer metrics.
RunResult runTraced(const Options &O, UntracedRun &Untraced);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
