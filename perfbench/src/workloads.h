//===-- perfbench/src/workloads.h - Workload helpers -----------*- C++ -*-===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench.h"

namespace spidey {
class ServeSession;
}

namespace perfbench {

/// Sends one request to an in-process session through
/// ServeSession::handle, timing only that call, and logs it.
spidey::json::Value sendInProcess(spidey::ServeSession &S, ClientLog &Log,
                                  Request Rq);

/// Marks the last logged outcome failed unless \p Cond holds.
void expectAnswer(ClientLog &Log, bool Cond, RunResult &Res,
                  const std::string &What);

/// The identity of a run's inputs: the program's hash and the hash of the
/// first 16 iterations a copy of its fresh planner yields (edits and names,
/// or components and names). The same seed must print the same note.
std::string identityNote(const std::vector<spidey::SourceFile> &Files,
                         EditPlanner Plan, bool Edits);

/// Opens an iteration of \p Log's timed loop: probes the machine speed
/// while the client's session is idle, then marks where the iteration's
/// requests start. Returns the iteration's start time.
Clock::time_point beginIteration(ClientLog &Log);
/// Closes the iteration opened at \p Began.
void endIteration(ClientLog &Log, Clock::time_point Began);
/// Takes the probe that closes the last iteration of \p Log.
void closeLoop(ClientLog &Log);

/// Times set-up repetitions, probing the machine speed before each and
/// after the last; seconds() reports each at the reference speed.
class SetupClock {
public:
  void begin();
  void end();
  std::vector<double> seconds();

private:
  std::vector<double> Probes, Raw;
  Clock::time_point T0;
};

/// Fills the end-to-end metrics from the timed requests of \p Logs. Every
/// latency is scaled by its iteration's speed factor (speedFactors), and
/// ops_per_s is each client's completed requests over its scaled loop
/// time, summed over clients.
void summarize(const std::vector<ClientLog> &Logs,
               const std::vector<double> &SetupSeconds, double PeakRssMb,
               RunResult &Res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
