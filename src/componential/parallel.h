//===-- componential/parallel.h - Worker-pool scheduler --------*- C++ -*-===//
///
/// \file
/// A small fixed-size worker pool for the data-parallel step 1 of the
/// componential analysis (§7.1): each component's derive → close →
/// simplify → serialize chain is independent of every other component's,
/// so the chains fan out across N threads while the sequential combine +
/// global close (step 2) stays on the calling thread.
///
/// The pool is deliberately minimal: submit() enqueues a job, wait()
/// blocks until every submitted job has finished. Jobs must not touch
/// shared mutable state (the componential analyzer gives each job a
/// private ConstraintContext); the first exception thrown by any job is
/// captured and rethrown from wait().
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_COMPONENTIAL_PARALLEL_H
#define SPIDEY_COMPONENTIAL_PARALLEL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spidey {

class WorkerPool {
public:
  /// Spawns \p ThreadCount workers (at least 1).
  explicit WorkerPool(unsigned ThreadCount);

  /// Waits for pending jobs, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Enqueues a job. Jobs may be submitted from the owning thread only.
  void submit(std::function<void()> Job);

  /// Blocks until every submitted job has completed. Rethrows the first
  /// exception raised by a job, if any.
  void wait();

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// hardware_concurrency with a floor of 1 (the standard permits 0).
  static unsigned defaultThreadCount();

private:
  void workerMain();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex M;
  std::condition_variable WorkReady;
  std::condition_variable AllDone;
  size_t Unfinished = 0; ///< queued + running jobs
  bool Stopping = false;
  std::exception_ptr FirstError;
};

/// Runs Fn(0..N-1) across the pool and waits; Fn(I) must only touch
/// state private to iteration I.
template <typename Fn>
void parallelFor(WorkerPool &Pool, uint32_t N, Fn &&F) {
  for (uint32_t I = 0; I < N; ++I)
    Pool.submit([&F, I] { F(I); });
  Pool.wait();
}

} // namespace spidey

#endif // SPIDEY_COMPONENTIAL_PARALLEL_H
