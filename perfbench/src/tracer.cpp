//===-- perfbench/src/tracer.cpp - Chrome trace-event output ---*- C++ -*-===//

#include "tracer.h"

#include <cstdio>
#include <memory>

namespace perfbench {

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers,
                      Clock::time_point Origin) {
  std::unique_ptr<FILE, int (*)(FILE *)> F(std::fopen(Path.c_str(), "w"),
                                           &std::fclose);
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F.get());
  bool First = true;
  for (const Tracer *T : Tracers) {
    std::vector<double> Covered = T->childCoverage();
    const std::vector<Span> &Spans = T->spans();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F.get(),
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld,"
                   "\"parent\":%d,\"self_ms\":%.6f}}",
                   First ? "" : ",", S.Name, T->tid(),
                   msBetween(Origin, S.Start) * 1000.0, S.ms() * 1000.0,
                   static_cast<long long>(S.Request), S.Parent,
                   S.ms() - Covered[I]);
      First = false;
    }
  }
  std::fputs("\n]}\n", F.get());
  return std::fflush(F.get()) == 0 && !std::ferror(F.get());
}

} // namespace perfbench
