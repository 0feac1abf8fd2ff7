//===-- perfbench/src/multitenant.h - Daemon and socket clients -*- C++ -*-===//

#ifndef PERFBENCH_MULTITENANT_H
#define PERFBENCH_MULTITENANT_H

#include "bench.h"

#include <sys/types.h>

namespace perfbench {

/// A spidey-serve daemon in socket mode. The destructor drains it
/// (SIGTERM, then SIGKILL after 20 s), waits for it and unlinks its socket.
class Daemon {
public:
  Daemon(const std::string &Bin, std::string SocketPath,
         const std::vector<std::string> &DefaultFiles);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  pid_t pid() const { return Pid; }
  void stop();

private:
  std::string Socket;
  pid_t Pid = -1;
};

/// One client connection speaking newline-delimited JSON.
class Conn {
public:
  Conn() = default;
  ~Conn();
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool connect(const std::string &Path);
  /// Sends one request line and returns the response line.
  std::string call(const std::string &Line);

private:
  int Fd = -1;
  std::string Pending;
};

/// Sends one request over \p C, timing send to full response, and logs it.
std::string sendSocket(Conn &C, ClientLog &Log, Request Rq);

/// Empty when two answers to \p Rq agree on everything that is a function
/// of the program (flow and check-summary answers byte for byte), else
/// what differs.
std::string sameAnswer(const Request &Rq, const std::string &A,
                       const std::string &B);

} // namespace perfbench

#endif // PERFBENCH_MULTITENANT_H
