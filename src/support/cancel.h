//===-- support/cancel.h - Deadlines and work budgets ----------*- C++ -*-===//
///
/// \file
/// A cooperative cancellation token carrying a wall-clock deadline and a
/// constraint-count budget. Long-running loops (the closure drain, the
/// componential derive fan-out) poll the token at coarse intervals via
/// charge(); once the deadline passes, the budget is exhausted, or
/// cancel() is called, every poll answers true and the loops unwind,
/// leaving their systems partially closed. Callers that observe a
/// cancelled token must treat their results as *degraded* — the serve
/// loop answers with a structured "degraded" response and keeps the
/// session dirty so the next request re-analyzes from scratch.
///
/// charge() is safe to call from multiple worker threads; the cancelled
/// flag latches so mid-flight workers all see the same verdict. One
/// token can therefore aggregate the work of the step-1 fan-out: every
/// component's drain charges the same token, the budget counts their
/// combined combine attempts, and the first worker to trip it cancels
/// the others at their next poll. A degraded answer produced this way is
/// still exact-recoverable: the serve session stays dirty and the next
/// in-budget pass reproduces the cold bytes.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_SUPPORT_CANCEL_H
#define SPIDEY_SUPPORT_CANCEL_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace spidey {

class CancelToken {
public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  /// Arms a wall-clock deadline \p Ms milliseconds from now (0 disarms).
  void setDeadlineMs(uint64_t Ms) {
    HasDeadline = Ms != 0;
    if (HasDeadline)
      Deadline = Clock::now() + std::chrono::milliseconds(Ms);
  }

  /// Arms a work budget in charge units — the closure engine charges one
  /// unit per combine attempted, so this bounds constraint work, not wall
  /// time (0 disarms).
  void setWorkBudget(uint64_t Units) { Budget = Units; }

  /// Latches the token cancelled immediately.
  void cancel() { Cancelled.store(true, std::memory_order_relaxed); }

  /// Clears a latched cancellation and the accumulated work, then re-arms
  /// the deadline and budget. For reusing one token across requests when
  /// the analyzer borrowing it outlives a single request (replacing the
  /// token would dangle that pointer). Only call between requests, with no
  /// workers charging concurrently.
  void rearm(uint64_t DeadlineMs, uint64_t BudgetUnits) {
    Cancelled.store(false, std::memory_order_relaxed);
    WorkUsed.store(0, std::memory_order_relaxed);
    setDeadlineMs(DeadlineMs);
    setWorkBudget(BudgetUnits);
  }

  bool cancelled() const {
    return Cancelled.load(std::memory_order_relaxed);
  }

  /// True when a deadline or budget is armed (or the token was cancelled
  /// outright); lets hot loops skip polling on free runs.
  bool armed() const {
    return HasDeadline || Budget != 0 || cancelled();
  }

  /// Adds \p Units of completed work and re-checks budget and deadline.
  /// Returns true once the token is cancelled; the verdict never reverts.
  bool charge(uint64_t Units) {
    if (Cancelled.load(std::memory_order_relaxed))
      return true;
    if (Budget) {
      uint64_t Used =
          WorkUsed.fetch_add(Units, std::memory_order_relaxed) + Units;
      if (Used > Budget) {
        cancel();
        return true;
      }
    } else if (Units) {
      WorkUsed.fetch_add(Units, std::memory_order_relaxed);
    }
    if (HasDeadline && Clock::now() >= Deadline) {
      cancel();
      return true;
    }
    return false;
  }

  uint64_t workUsed() const {
    return WorkUsed.load(std::memory_order_relaxed);
  }

private:
  std::atomic<bool> Cancelled{false};
  std::atomic<uint64_t> WorkUsed{0};
  uint64_t Budget = 0;
  bool HasDeadline = false;
  Clock::time_point Deadline{};
};

} // namespace spidey

#endif // SPIDEY_SUPPORT_CANCEL_H
