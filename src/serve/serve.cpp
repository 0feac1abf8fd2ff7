//===-- serve/serve.cpp - Incremental re-analysis daemon -------*- C++ -*-===//

#include "serve/serve.h"

#include "support/faultinject.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <sstream>

using namespace spidey;

//===----------------------------------------------------------------------===//
// MemoryConstraintStore
//===----------------------------------------------------------------------===//

std::optional<std::string>
MemoryConstraintStore::load(const std::string &Key) {
  return loadFor(Key, /*Session=*/0, /*CrossSession=*/nullptr);
}

std::optional<std::string>
MemoryConstraintStore::loadFor(const std::string &Key, uint64_t Session,
                               bool *CrossSession) {
  if (CrossSession)
    *CrossSession = false;
  if (faultAt("store.load"))
    return std::nullopt; // injected: the entry vanished
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(Key);
  if (It == Map.end())
    return std::nullopt;
  if (It->second.Writer != Session) {
    ++CrossSessionHits;
    if (CrossSession)
      *CrossSession = true;
  }
  Recency.splice(Recency.begin(), Recency, It->second.Recency);
  return It->second.Text;
}

void MemoryConstraintStore::store(const std::string &Key,
                                  const std::string &Text) {
  storeFor(Key, Text, /*Session=*/0);
}

void MemoryConstraintStore::storeFor(const std::string &Key,
                                     const std::string &Text,
                                     uint64_t Session) {
  if (faultAt("store.store"))
    return; // injected: the write is dropped
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    TotalBytes -= It->second.Text.size();
    It->second.Text = Text;
    It->second.Writer = Session;
    Recency.splice(Recency.begin(), Recency, It->second.Recency);
  } else {
    Recency.push_front(Key);
    Map.emplace(Key, Entry{Text, Session, Recency.begin()});
  }
  TotalBytes += Text.size();
  if (MaxBytes)
    evictLocked();
}

void MemoryConstraintStore::evictLocked() {
  while (TotalBytes > MaxBytes && !Recency.empty()) {
    auto It = Map.find(Recency.back());
    TotalBytes -= It->second.Text.size();
    Map.erase(It);
    Recency.pop_back();
    ++Evictions;
  }
}

void MemoryConstraintStore::setMaxBytes(size_t Bytes) {
  std::lock_guard<std::mutex> Lock(M);
  MaxBytes = Bytes;
  if (MaxBytes)
    evictLocked();
}

void MemoryConstraintStore::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Map.clear();
  Recency.clear();
  TotalBytes = 0;
}

size_t MemoryConstraintStore::entries() const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.size();
}

size_t MemoryConstraintStore::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return TotalBytes;
}

size_t MemoryConstraintStore::maxBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return MaxBytes;
}

uint64_t MemoryConstraintStore::evictions() const {
  std::lock_guard<std::mutex> Lock(M);
  return Evictions;
}

uint64_t MemoryConstraintStore::crossSessionHits() const {
  std::lock_guard<std::mutex> Lock(M);
  return CrossSessionHits;
}

//===----------------------------------------------------------------------===//
// ServeSession
//===----------------------------------------------------------------------===//

namespace {

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

json::Value errorResponse(std::string Message, std::string Code) {
  json::Value R = json::Value::object();
  R.set("ok", false);
  R.set("error", std::move(Message));
  R.set("code", std::move(Code));
  return R;
}

/// Non-negative integer member, with \p Default when absent. False (bad
/// field) when present but not an *integral* non-negative number that
/// fits uint64_t — a double >= 2^64 (e.g. a hostile
/// {"deadline_ms":1e300}) would make the conversion undefined behavior,
/// not a big limit, and a fractional {"deadline_ms":1.5} must be
/// rejected rather than silently truncated to a limit the client never
/// asked for.
bool uintField(const json::Value &Request, std::string_view Key,
               uint64_t Default, uint64_t &Out) {
  const json::Value *M = Request.find(Key);
  if (!M) {
    Out = Default;
    return true;
  }
  double N = M->isNumber() ? M->asNumber() : -1;
  if (!M->isNumber() || N < 0 ||
      N >= 18446744073709551616.0 /* 2^64 */ || N != std::floor(N))
    return false;
  Out = static_cast<uint64_t>(N);
  return true;
}

} // namespace

ServeSession::ServeSession(ServeOptions Opts)
    : Opts(std::move(Opts)),
      StoreView(this->Opts.SharedStore ? *this->Opts.SharedStore : OwnedStore,
                this->Opts.SessionId) {
  Token = std::make_unique<CancelToken>();
  // A session never *loosens* a shared store's byte cap at open: the
  // registry (or an earlier session's configure) owns that knob, and a
  // default-constructed options block carries MaxStoreBytes = 0.
  if (!this->Opts.SharedStore)
    OwnedStore.setMaxBytes(this->Opts.MaxStoreBytes);
  else if (this->Opts.MaxStoreBytes)
    this->Opts.SharedStore->setMaxBytes(this->Opts.MaxStoreBytes);
  if (!this->Opts.Faults.empty()) {
    std::string Error;
    // A bad spec is a configuration bug, not a serve-time fault; leave
    // the injector disarmed rather than dying. Callers that must fail
    // loudly (the spidey-serve CLI, matching the SPIDEY_FAULTS path)
    // validate the spec with configure() before building the session.
    FaultInjector::instance().configure(this->Opts.Faults, &Error);
  }
}

ServeSession::~ServeSession() = default;

bool ServeSession::loadFiles(const std::vector<std::string> &Paths,
                             std::string &Error) {
  std::vector<SourceFile> Loaded;
  for (const std::string &Path : Paths) {
    SourceFile F;
    F.Name = Path;
    if (!readWholeFile(Path, F.Text)) {
      Error = "cannot read " + Path;
      return false;
    }
    Loaded.push_back(std::move(F));
  }
  setFiles(std::move(Loaded));
  return true;
}

void ServeSession::setFiles(std::vector<SourceFile> NewFiles) {
  Files = std::move(NewFiles);
  Dirty = true;
}

void ServeSession::setLimits(uint64_t DeadlineMs, uint64_t MaxConstraints) {
  Opts.DeadlineMs = DeadlineMs;
  Opts.MaxConstraints = MaxConstraints;
}

bool ServeSession::ensureAnalyzed(std::string &Error) {
  if (!Dirty && CA)
    return true;
  if (Files.empty()) {
    Error = "no source files loaded";
    return false;
  }
  if (faultAt("store.wipe"))
    store().clear(); // injected daemon restart: resident store gone

  auto NewProg = std::make_unique<Program>();
  DiagnosticEngine Diags;
  if (!parseProgram(*NewProg, Diags, Files)) {
    Error = Diags.str();
    return false;
  }
  // The analyzer borrows the program and the token, so retire the old
  // analyzer before rearming either.
  CA.reset();
  Prog = std::move(NewProg);

  // Fresh per-request limits: a token cancelled by the previous pass must
  // not poison this one.
  Token = std::make_unique<CancelToken>();
  Token->setDeadlineMs(Opts.DeadlineMs);
  Token->setWorkBudget(Opts.MaxConstraints);

  ComponentialOptions CO;
  CO.Simplify = Opts.Simplify;
  CO.Derive = Opts.Derive;
  CO.Threads = Opts.Threads;
  CO.CacheDir = Opts.CacheDir;
  CO.MemStore = &StoreView;
  CO.MergeViaFiles = true;
  CO.Cancel = Token.get();
  const uint64_t HitsBefore = StoreView.hits();
  const uint64_t CrossBefore = StoreView.crossSessionHits();
  CA = std::make_unique<ComponentialAnalyzer>(*Prog, CO);
  CA->run();

  LastRun = ServeMetrics{};
  LastRun.StoreHits = StoreView.hits() - HitsBefore;
  LastRun.StoreCrossHits = StoreView.crossSessionHits() - CrossBefore;
  LastUnconverged.clear();
  const std::vector<ComponentRunStats> &CompStats = CA->componentStats();
  for (size_t I = 0; I < CompStats.size(); ++I) {
    const ComponentRunStats &CS = CompStats[I];
    if (CS.TimedOut) {
      LastUnconverged.push_back(Prog->Components[I].Name);
      continue;
    }
    if (CS.ReusedFile)
      ++LastRun.ComponentsReused;
    else
      ++LastRun.ComponentsRederived;
    switch (CS.Cache) {
    case CacheOutcome::Hit:
      ++LastRun.CacheHits;
      break;
    case CacheOutcome::MissNoEntry:
    case CacheOutcome::MissCorrupt:
      ++LastRun.CacheMisses;
      break;
    case CacheOutcome::MissStaleHash:
    case CacheOutcome::MissOptions:
    case CacheOutcome::MissExternals:
      ++LastRun.CacheInvalidations;
      break;
    case CacheOutcome::Disabled:
      break;
    }
  }
  const ComponentialRunInfo &Info = CA->runInfo();
  LastRun.DeriveMs = Info.DeriveMs;
  LastRun.MergeMs = Info.MergeMs;
  LastRun.CloseMs = Info.CloseMs;
  LastDegraded = Info.Cancelled;
  LastCloseConverged = Info.CloseConverged;

  ++Totals.Analyzes;
  Totals.ComponentsRederived += LastRun.ComponentsRederived;
  Totals.ComponentsReused += LastRun.ComponentsReused;
  Totals.CacheHits += LastRun.CacheHits;
  Totals.CacheMisses += LastRun.CacheMisses;
  Totals.CacheInvalidations += LastRun.CacheInvalidations;
  Totals.StoreHits += LastRun.StoreHits;
  Totals.StoreCrossHits += LastRun.StoreCrossHits;
  Totals.DeriveMs += LastRun.DeriveMs;
  Totals.MergeMs += LastRun.MergeMs;
  Totals.CloseMs += LastRun.CloseMs;
  if (LastDegraded)
    ++Totals.Degraded;

  // A degraded pass leaves the session dirty: the partial combined system
  // answers this request, and the next analyze starts over — once within
  // budget it produces the exact cold-run result. A run that lost the
  // file-merge byte-identity guarantee (a component's serialized text
  // failed to deserialize, so it merged through the renumbering path)
  // stays dirty for the same reason: its combined system is correct but
  // not byte-comparable, and the next healthy pass restores identity.
  Dirty = LastDegraded || Info.MergedOffText;

  // Rebind the query engine to the new generation. A dirty (degraded or
  // off-text) generation is volatile: queries answer over the partial
  // system but never read or write the cross-edit memo caches. Verdict
  // memoization is additionally gated off for polymorphic derivation,
  // where reconstruction order feeds a shared schema table and
  // per-component verdicts are not a pure function of the component.
  Queries.rebind(*Prog, *CA, Token.get(), /*Volatile=*/Dirty,
                 /*AllowVerdictCache=*/Opts.Derive.Poly == PolyMode::Mono,
                 CA->optionsFingerprint());
  return true;
}

std::string ServeSession::combinedText() {
  std::string Error;
  if (!ensureAnalyzed(Error))
    return {};
  return CA->combined().str();
}

json::Value ServeSession::cmdAnalyze() {
  std::string Error;
  bool Reanalyzed = Dirty || !CA;
  if (!ensureAnalyzed(Error))
    return errorResponse(Error, "parse-error");

  json::Value R = json::Value::object();
  R.set("ok", true);
  R.set("reanalyzed", Reanalyzed);
  if (LastDegraded) {
    // Structured degradation: the partial per-component results below
    // still describe what converged, and "unconverged" names what did
    // not (an empty list means the final combined close was cut short).
    R.set("degraded", true);
    json::Value U = json::Value::array();
    for (const std::string &Name : LastUnconverged)
      U.push(Name);
    R.set("unconverged", std::move(U));
    R.set("close_converged", LastCloseConverged);
  }
  R.set("components", Prog->Components.size());
  R.set("rederived", LastRun.ComponentsRederived);
  R.set("reused", LastRun.ComponentsReused);
  R.set("cache_hits", LastRun.CacheHits);
  R.set("cache_misses", LastRun.CacheMisses);
  R.set("cache_invalidations", LastRun.CacheInvalidations);
  R.set("store_hits", LastRun.StoreHits);
  R.set("store_cross_hits", LastRun.StoreCrossHits);
  R.set("combined_constraints", CA->combined().size());
  R.set("derive_ms", LastRun.DeriveMs);
  R.set("merge_ms", LastRun.MergeMs);
  R.set("close_ms", LastRun.CloseMs);
  json::Value Per = json::Value::array();
  const std::vector<ComponentRunStats> &Stats = CA->componentStats();
  for (size_t I = 0; I < Stats.size(); ++I) {
    json::Value C = json::Value::object();
    C.set("name", Prog->Components[I].Name);
    C.set("cache", cacheOutcomeName(Stats[I].Cache));
    C.set("reused", Stats[I].ReusedFile);
    if (Stats[I].TimedOut)
      C.set("timed_out", true);
    C.set("file_bytes", Stats[I].FileBytes);
    Per.push(std::move(C));
  }
  R.set("per_component", std::move(Per));
  return R;
}

json::Value ServeSession::cmdEdit(const json::Value &Request) {
  const json::Value *FileV = Request.find("file");
  if (!FileV)
    return errorResponse("edit needs a \"file\"", "bad-field");
  if (!FileV->isString())
    return errorResponse("edit \"file\" must be a string", "bad-field");
  const std::string &File = FileV->asString();
  auto It = std::find_if(Files.begin(), Files.end(),
                         [&](const SourceFile &F) { return F.Name == File; });
  if (It == Files.end())
    return errorResponse("unknown file " + File, "unknown-file");

  const json::Value *Text = Request.find("text");
  if (Text && !Text->isString() && !Text->isNull())
    return errorResponse("edit \"text\" must be a string", "bad-field");
  std::string NewText;
  if (Text && Text->isString()) {
    NewText = Text->asString();
  } else if (!readWholeFile(File, NewText)) {
    return errorResponse("cannot re-read " + File, "unknown-file");
  }
  // A byte-identical edit is a no-op: the session stays clean, the next
  // analyze answers "reanalyzed":false, and the query engine keeps its
  // warm generation and memo caches instead of a volatile rebind.
  const bool Changed = NewText != It->Text;
  if (Changed) {
    It->Text = std::move(NewText);
    Dirty = true;
  }
  ++Totals.Edits;

  json::Value R = json::Value::object();
  R.set("ok", true);
  R.set("file", File);
  R.set("bytes", It->Text.size());
  R.set("changed", Changed);
  return R;
}

json::Value ServeSession::cmdOpen(const json::Value &Request) {
  const json::Value *FilesV = Request.find("files");
  if (!FilesV || !FilesV->isArray())
    return errorResponse("open needs a \"files\" array", "bad-field");
  std::vector<std::string> Paths;
  for (const json::Value &E : FilesV->items()) {
    if (!E.isString())
      return errorResponse("open \"files\" entries must be strings",
                           "bad-field");
    Paths.push_back(E.asString());
  }
  std::string Error;
  if (!loadFiles(Paths, Error))
    return errorResponse(Error, "unknown-file");
  json::Value R = json::Value::object();
  R.set("ok", true);
  R.set("session", Opts.SessionId);
  R.set("files", Paths.size());
  return R;
}

json::Value ServeSession::cmdFlow(const json::Value &Request) {
  const json::Value *NameV = Request.find("name");
  if (!NameV || !NameV->isString() || NameV->asString().empty())
    return errorResponse("flow needs a string \"name\"", "bad-field");
  const std::string &Name = NameV->asString();
  std::string Error;
  if (!ensureAnalyzed(Error))
    return errorResponse(Error, "parse-error");

  // Demand-driven path (DESIGN.md §12): name resolution through the
  // per-generation Name -> VarId index, counts through the persistent
  // FlowIndex (or a memoized region summary on warm repeats) — no
  // whole-program FlowGraph construction per request. Fresh limits per
  // query: the reachability walk polls the token and degrades with
  // partial counts instead of stalling the session.
  Token->rearm(Opts.DeadlineMs, Opts.MaxConstraints);
  QueryEngine::FlowAnswer Ans = Queries.flow(Name);
  if (!Ans.Found)
    return errorResponse("no top-level definition named " + Name,
                         "unknown-name");

  json::Value R = json::Value::object();
  R.set("ok", true);
  if (LastDegraded || Ans.Degraded)
    R.set("degraded", true);
  R.set("name", Name);
  R.set("var", Ans.Var);
  json::Value KindsV = json::Value::array();
  for (const std::string &K : Ans.Kinds)
    KindsV.push(K);
  R.set("kinds", std::move(KindsV));
  R.set("parents", Ans.Parents);
  R.set("children", Ans.Children);
  R.set("ancestors", Ans.Ancestors);
  R.set("descendants", Ans.Descendants);
  if (Ans.FromSummary)
    R.set("memoized", true);
  return R;
}

json::Value ServeSession::cmdCheckSummary() {
  std::string Error;
  if (!ensureAnalyzed(Error))
    return errorResponse(Error, "parse-error");
  // Step 3 per component through the incremental engine: components
  // whose verdict key (source hash + options fingerprint + external
  // region digests) is unchanged are served from memoized verdicts;
  // only invalidated components reconstruct. A fresh deadline and budget
  // cover the sweep; rearm() also clears any cancellation latched by the
  // analyze pass or an earlier sweep, so one slow sweep cannot degrade
  // every later summary. Overrunning yields a partial (degraded) summary
  // whose completed per-component verdicts are still cached.
  Token->rearm(Opts.DeadlineMs, Opts.MaxConstraints);
  QueryEngine::SummaryAnswer Ans = Queries.checkSummary();
  json::Value R = json::Value::object();
  R.set("ok", true);
  if (Ans.Partial) {
    ++Totals.Degraded;
    R.set("degraded", true);
    R.set("components_checked", Ans.Rechecked + Ans.Reused);
  } else if (LastDegraded) {
    R.set("degraded", true);
  }
  R.set("components_rechecked", Ans.Rechecked);
  R.set("components_reused", Ans.Reused);
  R.set("possible", Ans.Possible);
  R.set("unsafe", Ans.Unsafe);
  R.set("summary", Ans.Summary);
  return R;
}

json::Value ServeSession::cmdStats() {
  json::Value R = json::Value::object();
  R.set("ok", true);
  R.set("requests", Totals.Requests);
  R.set("analyzes", Totals.Analyzes);
  R.set("edits", Totals.Edits);
  R.set("components_rederived", Totals.ComponentsRederived);
  R.set("components_reused", Totals.ComponentsReused);
  R.set("cache_hits", Totals.CacheHits);
  R.set("cache_misses", Totals.CacheMisses);
  R.set("cache_invalidations", Totals.CacheInvalidations);
  R.set("errors", Totals.Errors);
  R.set("internal_errors", Totals.InternalErrors);
  R.set("degraded", Totals.Degraded);
  R.set("derive_ms", Totals.DeriveMs);
  R.set("merge_ms", Totals.MergeMs);
  R.set("close_ms", Totals.CloseMs);
  R.set("session", Opts.SessionId);
  R.set("store_shared", Opts.SharedStore != nullptr);
  R.set("store_entries", store().entries());
  R.set("store_bytes", store().bytes());
  R.set("store_max_bytes", store().maxBytes());
  R.set("store_evictions", store().evictions());
  R.set("store_hits", StoreView.hits());
  R.set("store_cross_session_hits", StoreView.crossSessionHits());
  R.set("store_cross_session_hits_total", store().crossSessionHits());
  R.set("deadline_ms", Opts.DeadlineMs);
  R.set("max_constraints", Opts.MaxConstraints);
  R.set("faults_injected", FaultInjector::instance().totalInjected());
  const QueryStats &QS = Queries.stats();
  R.set("flow_queries", QS.FlowQueries);
  R.set("flow_memo_hits", QS.FlowMemoHits);
  R.set("flow_index_builds", QS.IndexBuilds);
  R.set("name_index_builds", QS.NameIndexBuilds);
  R.set("region_sweeps", QS.RegionSweeps);
  R.set("query_components_rechecked", QS.ComponentsRechecked);
  R.set("query_verdicts_reused", QS.VerdictsReused);
  R.set("query_degraded", QS.DegradedQueries);
  R.set("dirty", Dirty);
  if (CA && !Dirty)
    R.set("combined_constraints", CA->combined().size());
  return R;
}

json::Value ServeSession::cmdConfigure(const json::Value &Request) {
  uint64_t DeadlineMs, MaxConstraints, MaxStoreBytes;
  if (!uintField(Request, "deadline_ms", Opts.DeadlineMs, DeadlineMs))
    return errorResponse("\"deadline_ms\" must be a non-negative number",
                         "bad-field");
  if (!uintField(Request, "max_constraints", Opts.MaxConstraints,
                 MaxConstraints))
    return errorResponse("\"max_constraints\" must be a non-negative number",
                         "bad-field");
  if (!uintField(Request, "max_store_bytes", Opts.MaxStoreBytes,
                 MaxStoreBytes))
    return errorResponse("\"max_store_bytes\" must be a non-negative number",
                         "bad-field");
  const json::Value *FaultsV = Request.find("faults");
  if (FaultsV && !FaultsV->isString())
    return errorResponse("\"faults\" must be a string spec", "bad-field");
  if (FaultsV) {
    std::string Error;
    if (!FaultInjector::instance().configure(FaultsV->asString(), &Error))
      return errorResponse("bad fault spec: " + Error, "bad-field");
  }
  Opts.DeadlineMs = DeadlineMs;
  Opts.MaxConstraints = MaxConstraints;
  Opts.MaxStoreBytes = static_cast<size_t>(MaxStoreBytes);
  store().setMaxBytes(Opts.MaxStoreBytes);

  json::Value R = json::Value::object();
  R.set("ok", true);
  R.set("deadline_ms", Opts.DeadlineMs);
  R.set("max_constraints", Opts.MaxConstraints);
  R.set("max_store_bytes", Opts.MaxStoreBytes);
  R.set("faults_enabled", FaultInjector::instance().enabled());
  return R;
}

json::Value ServeSession::dispatch(const json::Value &Request) {
  const json::Value *CmdV = Request.find("cmd");
  if (!CmdV)
    return errorResponse("request needs a \"cmd\"", "bad-request");
  if (!CmdV->isString())
    return errorResponse("\"cmd\" must be a string", "bad-cmd");
  const std::string &Cmd = CmdV->asString();
  if (Cmd == "analyze")
    return cmdAnalyze();
  if (Cmd == "open")
    return cmdOpen(Request);
  if (Cmd == "edit")
    return cmdEdit(Request);
  if (Cmd == "flow")
    return cmdFlow(Request);
  if (Cmd == "check-summary")
    return cmdCheckSummary();
  if (Cmd == "stats")
    return cmdStats();
  if (Cmd == "configure")
    return cmdConfigure(Request);
  if (Cmd == "shutdown") {
    Shutdown = true;
    json::Value R = json::Value::object();
    R.set("ok", true);
    R.set("bye", true);
    return R;
  }
  return errorResponse("unknown cmd " + Cmd, "unknown-cmd");
}

json::Value ServeSession::handle(const json::Value &Request) {
  ++Totals.Requests;
  json::Value Response;
  if (!Request.isObject()) {
    Response = errorResponse("request must be a JSON object", "bad-request");
  } else {
    // The exception barrier: whatever a handler throws, the daemon
    // answers and keeps serving. The session may be mid-analysis when an
    // exception unwinds, so conservatively mark it dirty — the next
    // analyze rebuilds from sources.
    // Dirty forces the next request through ensureAnalyzed, which rebinds
    // the query engine before any query runs — so half-built per-
    // generation query state left by the unwind is never observed.
    try {
      Response = dispatch(Request);
    } catch (const std::exception &E) {
      Dirty = true;
      ++Totals.InternalErrors;
      Response = errorResponse(std::string("internal error: ") + E.what(),
                               "internal");
    } catch (...) {
      Dirty = true;
      ++Totals.InternalErrors;
      Response = errorResponse("internal error", "internal");
    }
  }
  const json::Value *Ok = Response.find("ok");
  if (!Ok || !Ok->asBool(false))
    ++Totals.Errors;
  return Response;
}

std::string ServeSession::handleLine(const std::string &Line) {
  std::string Error;
  std::optional<json::Value> Request = json::Value::parse(Line, &Error);
  if (!Request) {
    ++Totals.Requests;
    ++Totals.Errors;
    return errorResponse("bad request: " + Error, "bad-json").dump();
  }
  return handle(*Request).dump();
}

std::string ServeSession::lineTooLongResponse(size_t Limit) {
  return errorResponse("request line exceeds " + std::to_string(Limit) +
                           " bytes",
                       "line-too-long")
      .dump();
}
