//===-- perfbench/src/multitenant.cpp - Multi-tenant workload --*- C++ -*-===//
///
/// \file
/// A real `spidey-serve --socket PATH --threads 1` daemon with one client
/// connection per tenant, all driven from this process. The tenants'
/// programs share 30 of 31 files and differ in a client-specific main.
/// Each client opens its program and then loops edit -> analyze -> flow ->
/// check-summary, waiting for every answer (a closed loop); one edit in
/// four is an undo that restores a file's original text, which the shared
/// store serves (a read), while a probe edit derives and stores (a write).
///
/// The daemon is started and drained by this file, with its socket
/// unlinked, on every path out, failures included.
///
//===----------------------------------------------------------------------===//

#include "multitenant.h"
#include "workloads.h"

#include "serve/serve.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace spidey;
namespace fs = std::filesystem;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Daemon process and socket clients
//===----------------------------------------------------------------------===//

Daemon::Daemon(const std::string &Bin, std::string SocketPath,
               const std::vector<std::string> &DefaultFiles)
    : Socket(std::move(SocketPath)) {
  std::vector<std::string> Args = {Bin, "--socket", Socket, "--threads", "1"};
  Args.insert(Args.end(), DefaultFiles.begin(), DefaultFiles.end());
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  // No inherited fault-injection spec: the benchmark measures clean runs.
  std::vector<char *> Env;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SPIDEY_FAULTS=", 14) != 0)
      Env.push_back(*E);
  Env.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  int Err = posix_spawn(&Pid, Bin.c_str(), &Actions, nullptr, Argv.data(),
                        Env.data());
  posix_spawn_file_actions_destroy(&Actions);
  if (Err != 0) {
    Pid = -1;
    throw std::runtime_error("cannot start " + Bin + ": " +
                             std::strerror(Err));
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (Pid > 0) {
    // SIGTERM drains: the daemon unlinks its socket, finishes in-flight
    // answers and exits. Escalate if it does not within 20 s.
    ::kill(Pid, SIGTERM);
    int Status = 0;
    for (int Waited = 0; Waited < 2000; ++Waited) {
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid || (R < 0 && errno != EINTR)) {
        Pid = -1;
        break;
      }
      ::usleep(10000);
    }
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      Pid = -1;
    }
  }
  ::unlink(Socket.c_str());
}

Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Conn::connect(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    throw std::runtime_error("socket path too long: " + Path);
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
    return true;
  ::close(Fd);
  Fd = -1;
  return false;
}

std::string Conn::call(const std::string &Line) {
  std::string Out = Line + "\n";
  size_t Sent = 0;
  while (Sent < Out.size()) {
    ssize_t W = ::send(Fd, Out.data() + Sent, Out.size() - Sent, MSG_NOSIGNAL);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      throw std::runtime_error("daemon connection lost while sending");
    Sent += size_t(W);
  }
  char Chunk[65536];
  while (true) {
    size_t Nl = Pending.find('\n');
    if (Nl != std::string::npos) {
      std::string Resp = Pending.substr(0, Nl);
      Pending.erase(0, Nl + 1);
      return Resp;
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      throw std::runtime_error("daemon connection lost while reading");
    Pending.append(Chunk, size_t(N));
  }
}

std::string sendSocket(Conn &C, ClientLog &Log, Request Rq) {
  std::string Line = Rq.toJson(Log.Initial).dump();
  Clock::time_point T0 = Clock::now();
  std::string Resp = C.call(Line);
  Outcome O;
  O.Ms = msBetween(T0, Clock::now());
  std::optional<json::Value> R = json::Value::parse(Resp);
  O.Failed = !R || !okAndClean(*R);
  O.Response = std::move(Resp);
  Log.Requests.push_back(std::move(Rq));
  Log.Outcomes.push_back(std::move(O));
  return Log.Outcomes.back().Response;
}

//===----------------------------------------------------------------------===//
// Programs and answers
//===----------------------------------------------------------------------===//

namespace {

/// The tenants' programs: the 30 generated library files are shared
/// (one path each); the main file is per tenant, with one extra define.
std::vector<std::vector<SourceFile>>
tenantPrograms(const std::vector<SourceFile> &Base, const std::string &Dir) {
  std::vector<std::vector<SourceFile>> Out;
  for (unsigned C = 0; C < Tenants; ++C) {
    std::vector<SourceFile> P = Base;
    for (size_t K = 0; K + 1 < P.size(); ++K)
      P[K].Name = Dir + "/shared/" + Base[K].Name;
    SourceFile &Main = P.back();
    Main.Name = Dir + "/tenant" + std::to_string(C) + "/" + Base.back().Name;
    Main.Text += "\n(define perfbench-tenant-" + std::to_string(C) + " " +
                 std::to_string(C) + ")\n";
    Out.push_back(std::move(P));
  }
  return Out;
}

} // namespace

std::string sameAnswer(const Request &Rq, const std::string &A,
                       const std::string &B) {
  if (Rq.K == Cmd::Flow || Rq.K == Cmd::Check)
    return A == B ? std::string() : std::string(cmdName(Rq.K)) + " answer";
  std::optional<json::Value> X = json::Value::parse(A);
  std::optional<json::Value> Y = json::Value::parse(B);
  if (!X || !Y)
    return "unparsable answer";
  // analyze/edit/open answers legitimately differ in store attribution
  // (which session derived a shared file first); compare what is a
  // function of the program.
  for (const char *Key : {"components", "combined_constraints", "changed"}) {
    const json::Value *P = X->find(Key), *Q = Y->find(Key);
    if ((P == nullptr) != (Q == nullptr) || (P && P->dump() != Q->dump()))
      return std::string(cmdName(Rq.K)) + " field " + Key;
  }
  if (okAndClean(*X) != okAndClean(*Y))
    return std::string(cmdName(Rq.K)) + " ok/degraded";
  return {};
}

namespace {

void writeFile(const std::string &Path, const std::string &Text) {
  fs::create_directories(fs::path(Path).parent_path());
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
}

/// The per-rep files and daemon; destroying it drains the daemon, unlinks
/// its socket and removes the files.
struct Deployment {
  std::string Dir;
  std::vector<std::vector<SourceFile>> Programs;
  std::unique_ptr<Daemon> D;
  std::vector<std::unique_ptr<Conn>> Conns;

  ~Deployment() {
    Conns.clear();
    D.reset();
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
};

void runClients(const std::function<void(unsigned)> &Body) {
  std::vector<std::thread> Threads;
  std::vector<std::string> Errors(Tenants);
  for (unsigned C = 0; C < Tenants; ++C)
    Threads.emplace_back([&, C] {
      try {
        Body(C);
      } catch (const std::exception &E) {
        Errors[C] = E.what();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    if (!E.empty())
      throw std::runtime_error(E);
}

} // namespace

UntracedRun runMultiTenant(const Options &O) {
  if (O.ServeBin.empty())
    throw std::runtime_error("multi-tenant needs --serve-bin");
  UntracedRun Run;
  RunResult &Res = Run.Result;
  const std::string Base =
      O.WorkDir + "/mt-" + std::to_string(::getpid());

  SetupClock Setup;
  std::unique_ptr<Deployment> Dep;
  std::vector<std::unique_ptr<EditPlanner>> Plans(Tenants);
  std::vector<ClientLog> Logs;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Dep.reset();
    Setup.begin();
    Dep = std::make_unique<Deployment>();
    Dep->Dir = Base;
    std::vector<SourceFile> Files = benchProgram(O.Seed);
    Dep->Programs = tenantPrograms(Files, Dep->Dir);
    for (const std::vector<SourceFile> &P : Dep->Programs)
      for (const SourceFile &F : P)
        writeFile(F.Name, F.Text);
    std::vector<std::string> Defaults;
    for (const SourceFile &F : Dep->Programs[0])
      Defaults.push_back(F.Name);
    const std::string Socket = Base + ".sock";
    Dep->D = std::make_unique<Daemon>(O.ServeBin, Socket, Defaults);
    Dep->Conns.resize(Tenants);
    Logs.assign(Tenants, ClientLog{});
    runClients([&](unsigned C) {
      Plans[C] = std::make_unique<EditPlanner>(O.Seed, C + 1,
                                               Dep->Programs[C], true);
      auto Cn = std::make_unique<Conn>();
      for (int Try = 0; !Cn->connect(Socket); ++Try) {
        if (Try > 3000)
          throw std::runtime_error("spidey-serve did not start listening");
        ::usleep(5000);
      }
      ClientLog &Log = Logs[C];
      Log.Initial = Dep->Programs[C];
      for (Cmd K : {Cmd::Open, Cmd::Analyze, Cmd::Check})
        if (sendSocket(*Cn, Log, Request{K}).find("\"ok\":true") ==
            std::string::npos)
          throw std::runtime_error("multi-tenant warm-up failed: " +
                                   Log.Outcomes.back().Response);
      Dep->Conns[C] = std::move(Cn);
    });
    Setup.end();
  }
  std::vector<double> SetupSeconds = Setup.seconds();

  const std::string Identity =
      identityNote(Logs[0].Initial, *Plans[0], /*Edits=*/true);
  std::vector<RunResult> Checks(Tenants); // per client: no shared writes
  Clock::time_point Start = Clock::now();
  runClients([&](unsigned C) {
    Conn &Cn = *Dep->Conns[C];
    ClientLog &Log = Logs[C];
    EditPlanner &Plan = *Plans[C];
    while (msBetween(Start, Clock::now()) < O.Seconds * 1000.0) {
      // The probe runs while this tenant's session is idle and the others
      // keep the daemon busy, the load its requests see too.
      Clock::time_point Began = beginIteration(Log);
      Request E = Plan.nextEdit();
      E.Timed = true;
      const uint32_t Target = E.Target;
      sendSocket(Cn, Log, std::move(E));
      Request A{Cmd::Analyze};
      A.Timed = true;
      A.Target = Target;
      std::optional<json::Value> RA =
          json::Value::parse(sendSocket(Cn, Log, A));
      expectAnswer(Log, RA && num(*RA, "rederived") <= 1, Checks[C],
                   "analyze after a one-file edit");
      Request F{Cmd::Flow};
      F.Timed = true;
      F.Name = Plan.nextName();
      F.Target = Target;
      sendSocket(Cn, Log, F);
      Request Ck{Cmd::Check};
      Ck.Timed = true;
      Ck.Target = Target;
      std::optional<json::Value> RC =
          json::Value::parse(sendSocket(Cn, Log, Ck));
      expectAnswer(Log, RC && num(*RC, "components_rechecked") <= 1,
                   Checks[C], "check-summary after a one-file edit");
      endIteration(Log, Began);
    }
    closeLoop(Log);
  });
  for (const RunResult &R : Checks)
    if (Res.Error.empty())
      Res.Error = R.Error;
  double Rss = pidPeakRssMb(Dep->D->pid());
  {
    std::optional<json::Value> Stats =
        json::Value::parse(Dep->Conns[0]->call("{\"cmd\":\"stats\"}"));
    if (!Stats)
      throw std::runtime_error("daemon stats unreadable");
    Run.DaemonStats = *Stats;
  }
  Dep.reset(); // drain the daemon, unlink its socket, remove the files

  // Verification, outside the timed loop and after the daemon is gone.
  std::vector<std::string> Errors(Tenants);
  runClients([&](unsigned C) {
    ClientLog &Log = Logs[C];
    std::string Err;
    verifyAgainstReferences(Log, Err);
    if (O.Trace) {
      Errors[C] = Err;
      return;
    }
    // Isolation (DESIGN.md §13): the same trace on a dedicated
    // single-tenant session gives the same answers, and that session ends
    // on the combined system of a fresh cold run. The replay covers the
    // first IsolationIterations iterations.
    ServeOptions SO;
    SO.Threads = 1;
    ServeSession Solo(SO);
    Solo.setFiles(Log.Initial);
    std::vector<SourceFile> Cur = Log.Initial;
    unsigned Edits = 0;
    for (size_t K = 0; K < Log.Requests.size(); ++K) {
      const Request &Rq = Log.Requests[K];
      if (Rq.K == Cmd::Open)
        continue; // Solo already holds the program
      if (Rq.K == Cmd::Edit) {
        if (++Edits > IsolationIterations)
          break;
        Cur[Rq.File].Text = Rq.Text;
      }
      std::string Mine = Solo.handle(Rq.toJson(Log.Initial)).dump();
      std::string Diff = sameAnswer(Rq, Log.Outcomes[K].Response, Mine);
      if (!Diff.empty()) {
        Log.Outcomes[K].Failed = true;
        if (Err.empty())
          Err = "tenant " + std::to_string(C) + " " + Diff +
                " differs from a dedicated session";
      }
    }
    if (Solo.combinedText() != Reference(Cur).combinedText())
      Err = "tenant " + std::to_string(C) +
            " combined text differs from a fresh cold analyzer";
    Errors[C] = Err;
  });
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Res.Correct = false;
      if (Res.Error.empty())
        Res.Error = E;
    }
  summarize(Logs, SetupSeconds, Rss, Res);
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "daemon store: %.0f cross-session hits, %.0f resident bytes, "
                "%.0f evictions",
                num(Run.DaemonStats, "store_cross_session_hits_total"),
                num(Run.DaemonStats, "store_bytes"),
                num(Run.DaemonStats, "store_evictions"));
  Res.Notes.push_back(Buf);
  Res.Notes.push_back(Identity);
  Run.Logs = std::move(Logs);
  return Run;
}

} // namespace perfbench
