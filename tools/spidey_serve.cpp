//===-- tools/spidey_serve.cpp - Incremental analysis daemon ---*- C++ -*-===//
///
/// \file
/// The `spidey-serve` daemon: keeps componential analysis state resident
/// and answers newline-delimited JSON requests, re-deriving only the
/// components an edit actually dirtied.
///
///   spidey-serve a.ss b.ss main.ss        # serve requests on stdin/stdout
///   spidey-serve --socket /tmp/sp.sock *.ss   # serve on a unix socket
///
/// Socket mode is multi-tenant (DESIGN.md §13): each connection gets its
/// own session (thread-per-connection, bounded by --max-sessions, excess
/// connections answered with a structured "busy" error), preloaded with
/// the command-line program and switchable per client with
/// {"cmd":"open","files":[...]}. All sessions analyze through one
/// process-wide content-addressed constraint store, so clients working
/// on different programs that share a library file derive its summary
/// once. Stdio mode serves a single session, as before.
///
/// Requests (one JSON object per line):
///   {"cmd":"open","files":[...]} {"cmd":"analyze"}
///   {"cmd":"edit","file":"f.ss","text":"..."}
///   {"cmd":"flow","name":"f"} {"cmd":"check-summary"} {"cmd":"stats"}
///   {"cmd":"configure",...} {"cmd":"shutdown"}
///
/// The transport is hardened for hostile or unlucky clients: request
/// lines are capped (a line over the cap gets a structured
/// "line-too-long" error and is discarded, not buffered), reads and
/// writes retry on EINTR, writes never raise SIGPIPE, and a
/// fault-injection spec from SPIDEY_FAULTS or --faults exercises the
/// recovery paths deterministically. SIGTERM/SIGINT — or any client's
/// shutdown request — drain gracefully: the socket file is unlinked so
/// no new clients connect, every open connection is woken from its read,
/// in-flight responses still go out, and the daemon exits once all
/// connection threads have finished.
///
/// Exit code: 0 on a clean shutdown, end of input, or signal-drain; 2 on
/// usage errors (including malformed numeric option values and a bad
/// --faults spec), 1 when a source file cannot be read or the socket
/// cannot be bound.
///
//===----------------------------------------------------------------------===//

#include "serve/registry.h"
#include "serve/serve.h"
#include "support/faultinject.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace spidey;

namespace {

/// A client line longer than this is answered with a structured error and
/// discarded; it bounds per-connection memory no matter what the peer
/// sends.
constexpr size_t MaxLineBytes = 1u << 20; // 1 MiB

/// Connection threads above this many concurrent sessions are refused
/// with a "busy" answer (overridable with --max-sessions).
constexpr size_t DefaultMaxSessions = 64;

/// The drain signal that arrived, or 0. The SIGTERM/SIGINT handler writes
/// it while connection threads read it, so it is a lock-free atomic: a
/// volatile sig_atomic_t is safe against the handler on one thread, but
/// racy across threads.
std::atomic<int> GotSignal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handlers may only touch lock-free atomics");

/// Set when any client's shutdown request should drain the daemon; the
/// accept loop polls it between accepts.
std::atomic<bool> DrainRequested{false};

void onSignal(int Sig) { GotSignal.store(Sig); }

/// SIGTERM/SIGINT request a graceful drain; handlers deliberately omit
/// SA_RESTART so blocking accept()/read() wake with EINTR and observe the
/// flag. SIGPIPE is ignored: a disconnecting editor must never kill the
/// daemon.
void installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: syscalls return EINTR
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

void usage() {
  std::cout <<
      R"(spidey-serve — incremental set-based analysis daemon

usage: spidey-serve [options] file.ss...
  --socket PATH        listen on a unix socket instead of stdin/stdout;
                       each connection gets its own session over one
                       shared constraint store
  --max-sessions N     refuse connections beyond N concurrent sessions
                       with a "busy" answer (socket mode; default 64,
                       0 = unbounded)
  --threads N          worker threads for the componential step 1
  --parallel-close     close the merged system with the sharded parallel
                       fixpoint (byte-identical answers either way)
  --close-shards N     shard count for the parallel close; implies
                       --parallel-close (default 0 = one per thread)
  --simplify ALG       per-component simplifier: none, empty, unreachable,
                       e-removal (default), hopcroft
  --cache-dir DIR      on-disk constraint-file cache behind the in-memory
                       store (warm-starts a fresh daemon, and rebuilds the
                       store after a crash or wipe)
  --deadline-ms N      per-request analysis deadline; an over-deadline
                       analyze answers "degraded" instead of hanging
  --max-constraints N  per-request closure-work budget (combine attempts)
  --max-store-bytes N  LRU byte cap for the in-memory constraint store
  --faults SPEC        fault-injection spec (also read from the
                       SPIDEY_FAULTS environment variable), e.g.
                       "seed=42,cache.load=0.3,store.wipe=0.05"
  --help               this text
)";
}

bool simplifyFromName(const std::string &Name, SimplifyAlgorithm &Out) {
  for (SimplifyAlgorithm Alg :
       {SimplifyAlgorithm::None, SimplifyAlgorithm::Empty,
        SimplifyAlgorithm::Unreachable, SimplifyAlgorithm::EpsilonRemoval,
        SimplifyAlgorithm::Hopcroft})
    if (Name == simplifyAlgorithmName(Alg)) {
      Out = Alg;
      return true;
    }
  return false;
}

/// Strict decimal parse: digits only, no sign, no trailing junk, no
/// overflow — `--threads abc` must be a usage error, not thread count 0.
bool parseUint(const char *Text, uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  uint64_t V = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(*P - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

/// read() with EINTR retry and the sock.read fault site (an injected
/// interruption the loop must absorb, not die on).
ssize_t readRetry(int Fd, char *Buf, size_t Len) {
  int InjectedLeft = 8; // injected interrupts per call are bounded so a
                        // probability-1.0 fault spec cannot spin forever
  while (true) {
    if (InjectedLeft > 0 && faultAt("sock.read")) {
      --InjectedLeft;
      errno = EINTR;
      if (GotSignal)
        return -1;
      continue; // behave exactly like a real EINTR retry
    }
    ssize_t N = ::read(Fd, Buf, Len);
    if (N < 0 && errno == EINTR) {
      if (GotSignal)
        return -1;
      continue;
    }
    return N;
  }
}

/// Sends all of \p Text: EINTR retried, SIGPIPE suppressed (MSG_NOSIGNAL;
/// SIGPIPE is additionally ignored process-wide for stdio mode). False
/// when the peer is gone — the caller drops the connection, nothing more.
bool writeAll(int Fd, const std::string &Text) {
  int InjectedLeft = 8;
  size_t Sent = 0;
  while (Sent < Text.size()) {
    if (InjectedLeft > 0 && faultAt("sock.write")) {
      --InjectedLeft;
      errno = EINTR;
      continue;
    }
    ssize_t W =
        ::send(Fd, Text.data() + Sent, Text.size() - Sent, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR && !GotSignal)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(W);
  }
  return true;
}

/// Reads newline-delimited requests from \p Fd in chunks with the
/// pending-line buffer capped — an over-long line is answered and then
/// discarded, never buffered — and answers each via \p Respond, which
/// returns false when the peer is gone. Returns false when the daemon
/// should stop (shutdown request or drain signal), true when this peer is
/// done but serving should continue. Generic over the session: a bare
/// ServeSession (stdio mode) or a registry-backed ClientContext (one per
/// socket connection).
template <typename SessionT, typename RespondFn>
bool serveLines(SessionT &Session, int Fd, RespondFn Respond) {
  std::string Buffer;
  bool Discarding = false; // inside an over-long line, eating to '\n'
  char Chunk[4096];
  ssize_t N;
  while ((N = readRetry(Fd, Chunk, sizeof(Chunk))) > 0) {
    size_t Begin = 0;
    const size_t Got = static_cast<size_t>(N);
    while (Begin < Got) {
      const char *Nl = static_cast<const char *>(
          std::memchr(Chunk + Begin, '\n', Got - Begin));
      const size_t End = Nl ? static_cast<size_t>(Nl - Chunk) : Got;
      if (Discarding) {
        // Skip the tail of a line already answered as too long.
        if (Nl)
          Discarding = false;
        Begin = End + 1;
        continue;
      }
      if (Buffer.size() + (End - Begin) > MaxLineBytes) {
        // Cap the pending line *before* buffering it: answer now, then
        // discard until the newline shows up.
        Buffer.clear();
        Discarding = Nl == nullptr;
        if (!Respond(ServeSession::lineTooLongResponse(MaxLineBytes) + "\n"))
          return true;
        Begin = End + 1;
        continue;
      }
      Buffer.append(Chunk + Begin, End - Begin);
      Begin = End + 1;
      if (!Nl)
        break; // partial line: wait for more input
      if (!Buffer.empty()) {
        std::string Response = Session.handleLine(Buffer) + "\n";
        Buffer.clear();
        if (!Respond(Response))
          return true; // peer went away; serve the next client
        if (Session.shutdownRequested())
          return false;
      }
    }
    if (GotSignal)
      return false;
  }
  return !GotSignal;
}

/// Serves stdin → stdout until shutdown, EOF, or a drain signal. Shares
/// the capped chunked reader with the socket path so an over-long stdin
/// line is bounded too, not slurped whole by getline.
int serveStdio(ServeSession &Session) {
  serveLines(Session, STDIN_FILENO, [](const std::string &Text) {
    std::cout << Text << std::flush;
    return static_cast<bool>(std::cout);
  });
  return 0;
}

/// One live connection of the multi-tenant accept loop. The worker
/// thread owns the session handle and flags Done; the accept loop owns
/// the fd (closed only after join, so draining can safely shutdown() it)
/// and the Connection object itself.
struct Connection {
  std::thread T;
  int Fd = -1;
  std::atomic<bool> Done{false};
};

/// Joins and closes every finished connection; with \p All, first wakes
/// the rest from their blocking reads (SHUT_RD: pending responses still
/// flush, the reader then sees EOF) and waits for all of them.
void reapConnections(std::vector<std::unique_ptr<Connection>> &Conns,
                     bool All) {
  if (All)
    for (std::unique_ptr<Connection> &C : Conns)
      ::shutdown(C->Fd, SHUT_RD);
  for (auto It = Conns.begin(); It != Conns.end();) {
    if (!All && !(*It)->Done.load(std::memory_order_acquire)) {
      ++It;
      continue;
    }
    (*It)->T.join();
    ::close((*It)->Fd);
    It = Conns.erase(It);
  }
}

/// Accepts connections on a unix socket, one session thread per client
/// (SessionRegistry bounds them and shares the constraint store). Any
/// client's shutdown request — or a drain signal — stops the accept
/// loop, unlinks the socket, and drains the live connections.
int serveSocket(SessionRegistry &Registry, const std::string &Path) {
  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listener < 0) {
    std::cerr << "spidey-serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::cerr << "spidey-serve: socket path too long\n";
    ::close(Listener);
    return 1;
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  ::unlink(Path.c_str());
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(Listener, 16) < 0) {
    std::cerr << "spidey-serve: bind " << Path << ": "
              << std::strerror(errno) << "\n";
    ::close(Listener);
    return 1;
  }

  int Exit = 0;
  std::vector<std::unique_ptr<Connection>> Conns;
  while (!DrainRequested.load(std::memory_order_acquire) && !GotSignal) {
    // poll() instead of a blocking accept: a worker thread's shutdown
    // request must stop the daemon even when no new client ever
    // connects, and signals are only guaranteed to interrupt the thread
    // they are delivered to.
    pollfd P{Listener, POLLIN, 0};
    int Ready = ::poll(&P, 1, /*timeout_ms=*/200);
    if (Ready < 0) {
      if (errno == EINTR)
        continue; // the drain check at the top of the loop decides
      std::cerr << "spidey-serve: poll: " << std::strerror(errno) << "\n";
      Exit = 1;
      break;
    }
    reapConnections(Conns, /*All=*/false);
    if (Ready == 0)
      continue;
    int Fd = ::accept(Listener, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED)
        continue; // transient: a signal poke or a client that gave up
      // Anything else (EBADF, EINVAL, EMFILE...) would busy-loop forever;
      // report and stop instead.
      std::cerr << "spidey-serve: accept: " << std::strerror(errno) << "\n";
      Exit = 1;
      break;
    }
    std::string Error;
    std::unique_ptr<ClientContext> Client = Registry.connect(Error);
    if (!Client) {
      // Refused at capacity: a structured, machine-readable last word so
      // the client can back off and retry, then the connection closes.
      json::Value R = json::Value::object();
      R.set("ok", false);
      R.set("error", Error);
      R.set("code", "busy");
      writeAll(Fd, R.dump() + "\n");
      ::close(Fd);
      continue;
    }
    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Connection *C = Conn.get();
    C->T = std::thread([C, Client = std::move(Client)]() mutable {
      bool KeepServing = serveLines(*Client, C->Fd, [&](const std::string &T) {
        return writeAll(C->Fd, T);
      });
      // Unregister the session before flagging Done: once the accept
      // loop reaps this slot, the registry no longer counts it.
      Client.reset();
      if (!KeepServing)
        DrainRequested.store(true, std::memory_order_release);
      C->Done.store(true, std::memory_order_release);
    });
    Conns.push_back(std::move(Conn));
  }
  // Drain: stop accepting first (unlink so no client half-connects to a
  // dying daemon), then finish the in-flight connections.
  ::close(Listener);
  ::unlink(Path.c_str());
  reapConnections(Conns, /*All=*/true);
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Opts;
  std::string SocketPath;
  size_t MaxSessions = DefaultMaxSessions;
  std::vector<std::string> Paths;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "spidey-serve: " << Arg << " needs a value\n";
        std::exit(2);
      }
      return Argv[++I];
    };
    auto NextUint = [&]() -> uint64_t {
      const char *Text = Next();
      uint64_t V;
      if (!parseUint(Text, V)) {
        std::cerr << "spidey-serve: " << Arg
                  << " needs a non-negative integer, got '" << Text << "'\n";
        std::exit(2);
      }
      return V;
    };
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (Arg == "--socket") {
      SocketPath = Next();
    } else if (Arg == "--max-sessions") {
      MaxSessions = static_cast<size_t>(NextUint());
    } else if (Arg == "--threads") {
      Opts.Threads = static_cast<unsigned>(NextUint());
    } else if (Arg == "--parallel-close") {
      Opts.ParallelClose = true;
    } else if (Arg == "--close-shards") {
      Opts.ParallelClose = true;
      Opts.CloseShards = static_cast<unsigned>(NextUint());
    } else if (Arg == "--simplify") {
      std::string Name = Next();
      if (!simplifyFromName(Name, Opts.Simplify)) {
        std::cerr << "spidey-serve: unknown simplifier '" << Name
                  << "' (none, empty, unreachable, e-removal, hopcroft)\n";
        return 2;
      }
    } else if (Arg == "--cache-dir") {
      Opts.CacheDir = Next();
    } else if (Arg == "--deadline-ms") {
      Opts.DeadlineMs = NextUint();
    } else if (Arg == "--max-constraints") {
      Opts.MaxConstraints = NextUint();
    } else if (Arg == "--max-store-bytes") {
      Opts.MaxStoreBytes = static_cast<size_t>(NextUint());
    } else if (Arg == "--faults") {
      Opts.Faults = Next();
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "spidey-serve: unknown option " << Arg << "\n";
      usage();
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty()) {
    usage();
    return 2;
  }

  installSignalHandlers();

  // Both fault-spec paths fail loudly before any session exists: a typo
  // must exit 2, not silently serve with the injector disarmed. The
  // session constructor re-applies an already-validated --faults spec.
  if (!Opts.Faults.empty()) {
    std::string Error;
    if (!FaultInjector::instance().configure(Opts.Faults, &Error)) {
      std::cerr << "spidey-serve: --faults: " << Error << "\n";
      return 2;
    }
  } else {
    std::string Error;
    if (!FaultInjector::instance().configureFromEnv(&Error)) {
      std::cerr << "spidey-serve: SPIDEY_FAULTS: " << Error << "\n";
      return 2;
    }
  }

  if (SocketPath.empty()) {
    ServeSession Session(Opts);
    std::string Error;
    if (!Session.loadFiles(Paths, Error)) {
      std::cerr << "spidey-serve: " << Error << "\n";
      return 1;
    }
    return serveStdio(Session);
  }

  // Multi-tenant socket mode: read the default program once; every
  // connection's session starts from it (and can switch with "open").
  std::vector<SourceFile> Files;
  for (const std::string &Path : Paths) {
    SourceFile F;
    F.Name = Path;
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::cerr << "spidey-serve: cannot read " << Path << "\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    F.Text = SS.str();
    Files.push_back(std::move(F));
  }
  SessionRegistry Registry(Opts, std::move(Files), MaxSessions);
  return serveSocket(Registry, SocketPath);
}
