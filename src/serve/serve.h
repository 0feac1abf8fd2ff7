//===-- serve/serve.h - Incremental re-analysis daemon ---------*- C++ -*-===//
///
/// \file
/// The spidey-serve session: a long-lived analysis state that keeps the
/// parsed program and its per-component constraint files resident and
/// answers newline-delimited JSON requests. On an edit, only the dirtied
/// components are re-derived: every other component is served from the
/// in-memory constraint store (backed by the on-disk cache directory when
/// one is configured), with the cache-hardening validation of
/// componential.h deciding what "dirtied" means — a source-hash change for
/// the edited component itself, plus an external-set change for any
/// dependent whose interface the edit altered.
///
/// Because the analyzer merges every component through its constraint-file
/// image, the combined system after a warm edit is byte-identical to a
/// cold run at the same options.
///
/// "flow" and "check-summary" answer through the demand-driven query
/// engine (query/query_engine.h, DESIGN.md §12): a persistent per-
/// generation flow index plus cross-edit region/verdict memoization, so a
/// warm flow query is answered without rebuilding any whole-program
/// structure and a check summary after a 1-component edit re-checks
/// exactly that component. Answers are identical to the whole-program
/// paths (pinned by the `query` fuzz oracle); check-summary additionally
/// reports components_rechecked / components_reused, and stats gains the
/// engine's counters.
///
/// Protocol (one JSON object per line, "cmd" selects the operation):
///   {"cmd":"open","files":["a.ss",...]}            (re)load the program
///   {"cmd":"analyze"}
///   {"cmd":"edit","file":"main.ss","text":"..."}   text optional: re-read
///   {"cmd":"flow","name":"f"}                      from disk when absent
///   {"cmd":"check-summary"}
///   {"cmd":"stats"}
///   {"cmd":"configure","deadline_ms":N,"max_constraints":N,
///    "max_store_bytes":N,"faults":"spec"}          all members optional
///   {"cmd":"shutdown"}
/// Responses always carry "ok"; failures add "error" plus a stable
/// machine-readable "code" (bad-json, bad-request, bad-cmd, unknown-cmd,
/// bad-field, unknown-file, parse-error, analysis-error, line-too-long,
/// internal).
///
/// Fault-tolerance contract (see DESIGN.md §9):
///  - handle() never throws and never wedges: an exception anywhere in a
///    command becomes an {"ok":false,...,"code":"internal"} response and
///    the session keeps serving.
///  - With a deadline (ServeOptions::DeadlineMs / configure) or a
///    constraint budget armed, an analyze that runs over returns in
///    bounded time with "ok":true,"degraded":true and the names of the
///    components that never converged; the session stays dirty, so the
///    next analyze starts from scratch and — once within budget — yields
///    the exact cold-run combined text.
///  - The in-memory store is an LRU cache with a byte cap; eviction (or a
///    full wipe) only ever costs re-derivation, never correctness, and a
///    wiped store warms back up from CacheDir when one is configured.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_SERVE_SERVE_H
#define SPIDEY_SERVE_SERVE_H

#include "componential/componential.h"
#include "lang/parser.h"
#include "query/query_engine.h"
#include "serve/json.h"
#include "support/cancel.h"

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace spidey {

/// Thread-safe in-memory constraint-file store (the step-1 workers probe
/// and fill it concurrently) with LRU eviction under an optional byte
/// cap. Losing an entry is always safe: the analyzer falls back to the
/// on-disk cache or a fresh derivation.
///
/// One store can back many concurrent serve sessions (DESIGN.md §13):
/// keys are content-addressed (componentStoreKey), and each entry
/// remembers which session wrote it, so loadFor() can report when a
/// session is served by another session's derivation — the cross-program
/// componential reuse the multi-tenant daemon exists for.
class MemoryConstraintStore : public ConstraintStore {
public:
  std::optional<std::string> load(const std::string &Key) override;
  void store(const std::string &Key, const std::string &Text) override;

  /// load()/store() with the calling session attributed. On a hit,
  /// \p CrossSession (when non-null) is set to whether the entry was last
  /// written by a *different* session; such hits also bump the store-wide
  /// crossSessionHits() counter.
  std::optional<std::string> loadFor(const std::string &Key,
                                     uint64_t Session, bool *CrossSession);
  void storeFor(const std::string &Key, const std::string &Text,
                uint64_t Session);

  /// Caps the store's total text bytes (0 = unlimited); evicts
  /// least-recently-used entries immediately if already over.
  void setMaxBytes(size_t Bytes);

  /// Drops every entry (the crash / restart analogue; also an injection
  /// target via the "store.wipe" fault site in the serve loop).
  void clear();

  size_t entries() const;
  size_t bytes() const;
  size_t maxBytes() const;
  uint64_t evictions() const;
  /// Hits across all sessions where the entry's writer was a different
  /// session — the daemon-wide cross-program reuse counter.
  uint64_t crossSessionHits() const;

private:
  /// Evicts LRU entries until TotalBytes <= MaxBytes. Caller holds M.
  void evictLocked();

  struct Entry {
    std::string Text;
    uint64_t Writer = 0; ///< session id of the last writer
    std::list<std::string>::iterator Recency;
  };

  mutable std::mutex M;
  std::unordered_map<std::string, Entry> Map;
  std::list<std::string> Recency; ///< front = most recently used
  size_t TotalBytes = 0;
  size_t MaxBytes = 0; ///< 0 = unlimited
  uint64_t Evictions = 0;
  uint64_t CrossSessionHits = 0;
};

/// A per-session lens over a (possibly shared) MemoryConstraintStore:
/// fulfills the analyzer's ConstraintStore interface while attributing
/// every probe and fill to the owning session, so `stats` can report how
/// much of a session's work was served from other sessions' derivations.
/// The counters are atomics — the session's step-1 workers drive them
/// concurrently.
class SessionStoreView final : public ConstraintStore {
public:
  SessionStoreView(MemoryConstraintStore &Backing, uint64_t Session)
      : Backing(Backing), Session(Session) {}

  std::optional<std::string> load(const std::string &Key) override {
    bool Cross = false;
    std::optional<std::string> Text = Backing.loadFor(Key, Session, &Cross);
    if (Text) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      if (Cross)
        CrossHits.fetch_add(1, std::memory_order_relaxed);
    }
    return Text;
  }
  void store(const std::string &Key, const std::string &Text) override {
    Stores.fetch_add(1, std::memory_order_relaxed);
    Backing.storeFor(Key, Text, Session);
  }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t crossSessionHits() const {
    return CrossHits.load(std::memory_order_relaxed);
  }
  uint64_t stores() const { return Stores.load(std::memory_order_relaxed); }

private:
  MemoryConstraintStore &Backing;
  uint64_t Session;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> CrossHits{0};
  std::atomic<uint64_t> Stores{0};
};

struct ServeOptions {
  SimplifyAlgorithm Simplify = SimplifyAlgorithm::EpsilonRemoval;
  AnalysisOptions Derive;
  /// Worker threads for step 1 (0 = hardware concurrency).
  unsigned Threads = 0;
  /// Optional on-disk constraint-file cache behind the in-memory store;
  /// lets a fresh daemon warm-start from a previous run.
  std::string CacheDir;
  /// Per-request wall-clock deadline for analysis work, in milliseconds
  /// (0 = none). An over-deadline analyze answers "degraded" instead of
  /// hanging.
  uint64_t DeadlineMs = 0;
  /// Per-request closure-work budget in combine attempts (0 = none); the
  /// deterministic twin of DeadlineMs, used by tests.
  uint64_t MaxConstraints = 0;
  /// Byte cap for the in-memory constraint store (0 = unlimited).
  size_t MaxStoreBytes = 0;
  /// Fault-injection spec installed at session construction (see
  /// support/faultinject.h); empty leaves the global injector untouched.
  std::string Faults;
  /// Process-wide constraint store shared with other sessions (not
  /// owned; the multi-tenant daemon's SessionRegistry provides it).
  /// Null makes the session own a private store — the single-tenant
  /// behavior. MaxStoreBytes and the "store.wipe" site act on whichever
  /// store is in effect, so configure/chaos semantics are daemon-wide
  /// under sharing.
  MemoryConstraintStore *SharedStore = nullptr;
  /// This session's id for store attribution (0 in single-tenant use).
  uint64_t SessionId = 0;
};

/// Counters for one analyze pass and, accumulated, for the session.
struct ServeMetrics {
  uint64_t Requests = 0;
  uint64_t Analyzes = 0; ///< passes that actually ran the analyzer
  uint64_t Edits = 0;
  uint64_t ComponentsRederived = 0;
  uint64_t ComponentsReused = 0;
  uint64_t CacheHits = 0;
  /// Misses with no usable entry (no entry, corrupt).
  uint64_t CacheMisses = 0;
  /// Entries present but rejected: stale hash, options mismatch, or a
  /// changed external set (dependent invalidation).
  uint64_t CacheInvalidations = 0;
  /// Responses answered with "ok":false (hostile input, analysis
  /// failures) — the session survived each one.
  uint64_t Errors = 0;
  /// Errors caught by the exception barrier around handle().
  uint64_t InternalErrors = 0;
  /// Analyze passes cut short by a deadline or budget.
  uint64_t Degraded = 0;
  /// This session's in-memory store hits, and the subset served from an
  /// entry last written by a *different* session (cross-program reuse).
  uint64_t StoreHits = 0;
  uint64_t StoreCrossHits = 0;
  double DeriveMs = 0;
  double MergeMs = 0;
  double CloseMs = 0;
};

class ServeSession {
public:
  explicit ServeSession(ServeOptions Opts);
  ~ServeSession();

  /// Reads \p Paths from disk as the program under analysis. False (with
  /// \p Error set) if any file is unreadable.
  bool loadFiles(const std::vector<std::string> &Paths, std::string &Error);
  /// Sets the program directly (tests, benchmarks).
  void setFiles(std::vector<SourceFile> Files);

  /// Dispatches one request and returns the response object. Never
  /// throws: anything escaping a command handler becomes a structured
  /// "internal" error response.
  json::Value handle(const json::Value &Request);
  /// Convenience: parse one request line, dispatch, dump the response.
  std::string handleLine(const std::string &Line);

  /// The structured response for a request line that exceeded the
  /// transport's line cap (the tool answers this without buffering the
  /// line).
  static std::string lineTooLongResponse(size_t Limit);

  bool shutdownRequested() const { return Shutdown; }

  /// The combined system's text at current sources (analyzing if needed);
  /// empty on analysis failure. Byte-comparable against a cold run.
  std::string combinedText();

  /// Re-arms the per-request analysis limits (also reachable through the
  /// "configure" command).
  void setLimits(uint64_t DeadlineMs, uint64_t MaxConstraints);

  const ServeMetrics &totals() const { return Totals; }
  /// The analyze/reuse counters of the most recent analyze pass.
  const ServeMetrics &lastRun() const { return LastRun; }
  /// True if the most recent analyze pass was cut short.
  bool lastDegraded() const { return LastDegraded; }

  /// The store this session analyzes against: the registry's shared
  /// store under multi-tenancy, the session's own otherwise.
  MemoryConstraintStore &store() {
    return Opts.SharedStore ? *Opts.SharedStore : OwnedStore;
  }

private:
  json::Value cmdAnalyze();
  json::Value cmdOpen(const json::Value &Request);
  json::Value cmdEdit(const json::Value &Request);
  json::Value cmdFlow(const json::Value &Request);
  json::Value cmdCheckSummary();
  json::Value cmdStats();
  json::Value cmdConfigure(const json::Value &Request);
  json::Value dispatch(const json::Value &Request);

  /// Re-parses and re-analyzes if sources changed since the last pass.
  /// False (with \p Error set) on parse failure. A deadline/budget
  /// overrun returns true with LastDegraded set and the session still
  /// dirty.
  bool ensureAnalyzed(std::string &Error);

  ServeOptions Opts;
  /// The session's private store; idle when Opts.SharedStore is set.
  MemoryConstraintStore OwnedStore;
  /// The session-attributed lens the analyzer probes through (over the
  /// shared store when one is configured, else OwnedStore). Declared
  /// after the stores it references.
  SessionStoreView StoreView;
  /// Owns the cancellation token the analyzer polls; declared before CA
  /// so it outlives the analyzer holding a pointer to it.
  std::unique_ptr<CancelToken> Token;
  std::vector<SourceFile> Files;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ComponentialAnalyzer> CA;
  /// The demand-driven query layer (DESIGN.md §12): persistent flow
  /// index, region-digest memoization, incremental check verdicts.
  /// Declared after CA — it borrows Prog/CA/Token between rebinds and
  /// must be destroyed first.
  QueryEngine Queries;
  bool Dirty = true;
  bool Shutdown = false;
  bool LastDegraded = false;
  std::vector<std::string> LastUnconverged; ///< component names
  bool LastCloseConverged = true;
  ServeMetrics Totals;
  ServeMetrics LastRun;
};

} // namespace spidey

#endif // SPIDEY_SERVE_SERVE_H
