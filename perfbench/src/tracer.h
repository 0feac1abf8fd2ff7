//===-- perfbench/src/tracer.h - In-memory span recorder -------*- C++ -*-===//
///
/// \file
/// The benchmark's own tracing: spans recorded around calls into the
/// library's public entry points, kept in memory, and written out as
/// Chrome trace-event JSON when the run ends. One Tracer belongs to one
/// thread (one mirrored session), so recording takes no lock; the run
/// merges every thread's spans when it writes the file.
///
/// A span records its name, start, end, the span that was open when it
/// began (its parent) and the request it belongs to. A layer's self time
/// is its duration minus what its children cover; children nest strictly
/// inside their parent on one thread, so that is the sum of their
/// durations.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Span {
  const char *Name = "";
  Clock::time_point Start, End;
  int Parent = -1;      ///< index into the same tracer's spans, -1 = root
  int64_t Request = -1; ///< request ordinal within the tracer's trace
  double ms() const { return msBetween(Start, End); }
};

class Tracer {
public:
  explicit Tracer(uint32_t Tid) : Tid(Tid) {}

  int begin(const char *Name, int64_t Request) {
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Request = Request;
    Spans.push_back(S);
    Open.push_back(static_cast<int>(Spans.size() - 1));
    Spans.back().Start = Clock::now();
    return Open.back();
  }

  void end(int Id) {
    Spans[Id].End = Clock::now();
    Open.pop_back();
  }

  /// Per span, the time its direct children cover (self time is the
  /// span's duration minus this).
  std::vector<double> childCoverage() const {
    std::vector<double> Covered(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Covered[S.Parent] += S.ms();
    return Covered;
  }

  const std::vector<Span> &spans() const { return Spans; }
  uint32_t tid() const { return Tid; }

private:
  uint32_t Tid;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Scoped span: begins on construction, ends on destruction.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name, int64_t Request)
      : T(T), Id(T.begin(Name, Request)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

/// Writes every tracer's spans as one Chrome trace-event JSON file
/// ("X" complete events, microseconds since \p Origin, self time in the
/// event args). False if the file cannot be written.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers,
                      Clock::time_point Origin);

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
