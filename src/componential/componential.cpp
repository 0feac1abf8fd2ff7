//===-- componential/componential.cpp -------------------------*- C++ -*-===//

#include "componential/componential.h"

#include "componential/parallel.h"
#include "constraints/serialize.h"
#include "support/faultinject.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_set>

using namespace spidey;

ConstraintStore::~ConstraintStore() = default;

const char *spidey::cacheOutcomeName(CacheOutcome O) {
  switch (O) {
  case CacheOutcome::Disabled:
    return "disabled";
  case CacheOutcome::Hit:
    return "hit";
  case CacheOutcome::MissNoEntry:
    return "miss-no-entry";
  case CacheOutcome::MissStaleHash:
    return "miss-stale-hash";
  case CacheOutcome::MissOptions:
    return "miss-options";
  case CacheOutcome::MissExternals:
    return "miss-externals";
  case CacheOutcome::MissCorrupt:
    return "miss-corrupt";
  }
  return "?";
}

std::string spidey::componentialFingerprint(SimplifyAlgorithm Simplify,
                                            const AnalysisOptions &Derive) {
  std::ostringstream OS;
  OS << "v2;simplify=" << simplifyAlgorithmName(Simplify)
     << ";poly=" << static_cast<unsigned>(Derive.Poly)
     << ";ifsplit=" << Derive.IfSplitting
     << ";polytop=" << Derive.PolyTopLevel
     << ";precise=" << Derive.PreciseSchemaChecks << ";schema=";
  if (!Derive.Simplify)
    OS << "none";
  else if (!Derive.SimplifyTag.empty())
    OS << Derive.SimplifyTag;
  else
    OS << "custom";
  return OS.str();
}

std::string spidey::componentCacheFileName(std::string_view ComponentName) {
  std::string Name;
  for (char Ch : ComponentName)
    Name.push_back(std::isalnum(static_cast<unsigned char>(Ch)) ? Ch : '_');
  // The sanitized form is lossy (`a-b` and `a_b` collapse to one string),
  // so a short hash of the raw name keeps distinct components in distinct
  // files.
  return Name + "-" + hashSource(ComponentName).substr(0, 8) + ".scf";
}

std::string spidey::componentStoreKey(std::string_view SourceHash,
                                      std::string_view OptionsFingerprint,
                                      uint32_t FileSlot) {
  std::string Key;
  Key.reserve(SourceHash.size() + OptionsFingerprint.size() + 16);
  Key.append(SourceHash);
  Key.push_back('@');
  Key.append(OptionsFingerprint);
  Key.push_back('#');
  Key.append(std::to_string(FileSlot));
  return Key;
}

/// One component's step-1 result. Derivation output lives in a private
/// ConstraintContext (workers share no mutable state); merge() renumbers
/// it into the analyzer's shared context.
struct ComponentialAnalyzer::ComponentWork {
  std::unique_ptr<ConstraintContext> Ctx;
  AnalysisMaps Maps;
  std::unique_ptr<ConstraintSystem> Simplified;
  size_t RawConstraints = 0;
  ClosureStats Closure;  ///< derive + simplify solver counters
  DeriveStats Derive;    ///< schema/instantiation counters (fresh derives)
  std::string FileText;  ///< serialized constraint file (save path)
  std::string CacheText; ///< raw file text when the header validated
  bool CacheHit = false;
  /// The run's token cancelled before this component finished deriving;
  /// the partial results above are discarded, never merged or cached.
  bool TimedOut = false;
  CacheOutcome Outcome = CacheOutcome::Disabled;
};

namespace {

/// A constraint file's header, extracted without deserializing the body:
/// source hash, options fingerprint, and the external names the file was
/// simplified against. Workers use this to decide whether the file is
/// reusable; the full parse happens on the combining thread.
struct FilePeek {
  bool Ok = false;
  std::string Hash;
  std::string Options;
  std::vector<std::string> ExternalNames;
};

FilePeek peekFileHeader(const std::string &Text) {
  std::istringstream In(Text);
  FilePeek P;
  std::string Magic, Key;
  uint64_t Version = 0;
  if (!(In >> Magic >> Version) || Magic != "spidey-constraint-file" ||
      Version != 2)
    return P;
  if (!(In >> Key >> P.Hash) || Key != "hash")
    return P;
  if (!(In >> Key >> P.Options) || Key != "options")
    return P;
  uint64_t NumVars = 0, NumExternals = 0;
  if (!(In >> Key >> NumVars) || Key != "vars")
    return P;
  if (!(In >> Key >> NumExternals) || Key != "externals")
    return P;
  for (uint64_t I = 0; I < NumExternals; ++I) {
    std::string Name;
    uint64_t Local;
    if (!(In >> Name >> Local))
      return P;
    P.ExternalNames.push_back(std::move(Name));
  }
  std::sort(P.ExternalNames.begin(), P.ExternalNames.end());
  P.Ok = true;
  return P;
}

/// Writes \p Text to \p FinalPath atomically: stream into a uniquely-named
/// temp file in the same directory, then rename into place. A crashed or
/// concurrent writer can no longer leave a torn file at the final path —
/// readers see the old contents or the new, never a mix.
void writeFileAtomically(const std::string &FinalPath,
                         const std::string &Text) {
  static std::atomic<uint64_t> Counter{0};
  std::ostringstream Tmp;
  Tmp << FinalPath << ".tmp."
      << std::hash<std::thread::id>{}(std::this_thread::get_id()) << "."
      << Counter.fetch_add(1, std::memory_order_relaxed);
  const std::string TmpPath = Tmp.str();
  {
    std::ofstream Out(TmpPath, std::ios::binary | std::ios::trunc);
    Out << Text;
    Out.flush();
    if (!Out || faultAt("cache.write")) {
      std::error_code EC;
      std::filesystem::remove(TmpPath, EC);
      return;
    }
  }
  if (faultAt("cache.rename")) {
    // Injected crash window: the temp file was fully written but the
    // rename "never happened" — exactly what a process killed between the
    // two syscalls leaves behind. Readers must keep seeing the old entry.
    std::error_code EC;
    std::filesystem::remove(TmpPath, EC);
    return;
  }
  std::error_code EC;
  std::filesystem::rename(TmpPath, FinalPath, EC);
  if (EC)
    std::filesystem::remove(TmpPath, EC);
}

} // namespace

ComponentialAnalyzer::ComponentialAnalyzer(const Program &P,
                                           ComponentialOptions Opts)
    : P(P), Opts(std::move(Opts)) {
  OptionsFP =
      componentialFingerprint(this->Opts.Simplify, this->Opts.Derive);
  Ctx = std::make_unique<ConstraintContext>();
  Combined = std::make_unique<ConstraintSystem>(*Ctx);
  D = std::make_unique<Deriver>(P, *Ctx, Maps, this->Opts.Derive);
  // The Deriver constructor pre-allocates every top-level variable, so the
  // shared context and each job's private context agree on this prefix.
  SharedVarWatermark = Ctx->numVars();
  Stats.resize(P.Components.size());
}

ComponentialAnalyzer::~ComponentialAnalyzer() = default;

void ComponentialAnalyzer::computeCrossReferences() {
  // A top-level variable is part of a component's interface only if some
  // *other* component references it (§6.1: the externals are the
  // variables through which the component interacts with the rest of the
  // program). References are collected in one pass.
  for (uint32_t C = 0; C < P.Components.size(); ++C) {
    std::function<void(ExprId)> Walk = [&](ExprId Id) {
      const Expr &E = P.expr(Id);
      auto Note = [&](VarId V) {
        if (V == NoVar || !P.var(V).TopLevel)
          return;
        ReferencedBy[C].insert(V);
        if (P.var(V).Component != C)
          CrossReferenced.insert(V);
      };
      if (E.K == ExprKind::Var)
        Note(E.Var);
      if (E.K == ExprKind::Set || E.K == ExprKind::Invoke)
        Note(E.Var);
      for (ExprId Kid : E.Kids)
        Walk(Kid);
      for (const Binding &B : E.Bindings)
        Walk(B.Init);
    };
    for (const TopForm &F : P.Components[C].Forms)
      Walk(F.Body);
  }
  CrossRefsComputed = true;
}

std::vector<VarId>
ComponentialAnalyzer::externalVarIdsOf(uint32_t CompIdx) const {
  std::vector<VarId> Tops;
  std::unordered_set<VarId> Seen;
  const Component &C = P.Components[CompIdx];
  // Defines of this component that some other component references.
  for (const TopForm &F : C.Forms)
    if (F.DefVar != NoVar && CrossReferenced.count(F.DefVar) &&
        Seen.insert(F.DefVar).second)
      Tops.push_back(F.DefVar);
  // Foreign top-level variables this component references.
  if (auto It = ReferencedBy.find(CompIdx); It != ReferencedBy.end())
    for (VarId V : It->second)
      if (P.var(V).Component != CompIdx && Seen.insert(V).second)
        Tops.push_back(V);
  std::sort(Tops.begin(), Tops.end());
  return Tops;
}

std::vector<std::string>
ComponentialAnalyzer::externalNamesOf(uint32_t CompIdx) const {
  std::vector<std::string> Names;
  for (VarId V : externalVarIdsOf(CompIdx))
    Names.push_back(P.Syms.name(P.var(V).Name));
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}

std::vector<SetVar> ComponentialAnalyzer::externalsOf(uint32_t CompIdx) {
  if (!CrossRefsComputed && !P.Components.empty())
    computeCrossReferences();
  std::vector<SetVar> E;
  for (VarId V : externalVarIdsOf(CompIdx)) {
    if (Maps.VarVar[V] == NoSetVar)
      Maps.VarVar[V] = Ctx->freshVar();
    E.push_back(Maps.VarVar[V]);
  }
  return E;
}

VarId ComponentialAnalyzer::topLevelByName(Symbol Name) {
  if (!TopLevelIndexBuilt) {
    // First definition wins, matching the scan order replaced by this map.
    for (VarId V = 0; V < P.numVars(); ++V)
      if (P.var(V).TopLevel)
        TopLevelIndex.emplace(P.var(V).Name, V);
    TopLevelIndexBuilt = true;
  }
  auto It = TopLevelIndex.find(Name);
  return It == TopLevelIndex.end() ? NoVar : It->second;
}

std::string ComponentialAnalyzer::cachePathFor(const Component &C) const {
  return Opts.CacheDir + "/" + componentCacheFileName(C.Name);
}

bool ComponentialAnalyzer::loadFromText(uint32_t CompIdx,
                                        const std::string &Text,
                                        ComponentRunStats &CS) {
  ConstraintSystem Loaded(*Ctx);
  LoadedConstraints Info;
  std::string Error;
  // The loader interns into the program's symbol table; Program is shared
  // state of the analysis, so the const_cast is confined here.
  SymbolTable &Syms = const_cast<Program &>(P).Syms;
  if (faultAt("scf.parse"))
    return false; // injected: the file text fails to deserialize
  if (!deserializeConstraints(Text, Syms, Loaded, Info, Error))
    return false;
  if (Info.SourceHash != hashSource(P.Components[CompIdx].SourceText))
    return false;
  if (Info.OptionsFingerprint != OptionsFP)
    return false;

  // Re-link the file's external variables with this run's top-level
  // variables (two ε-constraints identify them).
  for (const auto &[Key, FileVar] : Info.Externals) {
    Symbol Name = Syms.lookup(Key);
    if (Name == InvalidSymbol)
      return false;
    VarId V = topLevelByName(Name);
    if (V == NoVar || Maps.VarVar[V] == NoSetVar)
      return false;
    SetVar Global = Maps.VarVar[V];
    Loaded.addVarUpperRaw(FileVar, Global);
    Loaded.addVarUpperRaw(Global, FileVar);
  }
  Combined->absorbRaw(Loaded);
  CS.ReusedFile = true;
  CS.SimplifiedConstraints = Loaded.size();
  CS.FileBytes = Text.size();
  return true;
}

ComponentialAnalyzer::ComponentWork
ComponentialAnalyzer::deriveIsolated(uint32_t CompIdx,
                                     bool AllowCache) const {
  ComponentWork W;
  const Component &C = P.Components[CompIdx];
  const bool CacheConfigured = Opts.MemStore || !Opts.CacheDir.empty();

  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    W.TimedOut = true;
    return W;
  }

  if (AllowCache && CacheConfigured) {
    // The disk cache stays keyed by component name (a readable warm-start
    // directory); the in-memory store is content-addressed so concurrent
    // sessions over different programs share identical library images.
    const std::string DiskKey = componentCacheFileName(C.Name);
    const std::string MemKey =
        componentStoreKey(hashSource(C.SourceText), OptionsFP, CompIdx);
    std::optional<std::string> Text;
    bool FromDisk = false;
    if (Opts.MemStore)
      Text = Opts.MemStore->load(MemKey);
    if (!Text && !Opts.CacheDir.empty() && !faultAt("cache.load")) {
      std::ifstream In(Opts.CacheDir + "/" + DiskKey, std::ios::binary);
      if (In) {
        std::stringstream Buffer;
        Buffer << In.rdbuf();
        Text = Buffer.str();
        FromDisk = true;
      }
    }
    if (!Text) {
      W.Outcome = CacheOutcome::MissNoEntry;
    } else {
      // A file is reusable only if the component's source is unchanged,
      // it was produced under the same analysis options, and it was
      // simplified against the same interface. The externals check is
      // what invalidates dependents: when *another* component starts or
      // stops referencing one of this component's definitions, this
      // component's external set changes and its old file — which may
      // have simplified the newly-needed definition away — is rejected.
      FilePeek Peek = peekFileHeader(*Text);
      if (!Peek.Ok)
        W.Outcome = CacheOutcome::MissCorrupt;
      else if (Peek.Hash != hashSource(C.SourceText))
        W.Outcome = CacheOutcome::MissStaleHash;
      else if (Peek.Options != OptionsFP)
        W.Outcome = CacheOutcome::MissOptions;
      else if (Peek.ExternalNames != externalNamesOf(CompIdx))
        W.Outcome = CacheOutcome::MissExternals;
      else {
        W.Outcome = CacheOutcome::Hit;
        W.CacheHit = true;
        W.CacheText = std::move(*Text);
        // Crash recovery: a hit served from the disk cache refills the
        // in-memory store, so a daemon whose resident store was wiped
        // (restart, eviction, injected fault) warms back up from
        // --cache-dir instead of re-deriving the world.
        if (FromDisk && Opts.MemStore)
          Opts.MemStore->store(MemKey, W.CacheText);
        return W;
      }
    }
  } else if (CacheConfigured) {
    W.Outcome = CacheOutcome::MissCorrupt; // retry after an unusable hit
  }

  // Step 1: derive and close the component system in a private context,
  // then simplify it with respect to the component's externals.
  W.Ctx = std::make_unique<ConstraintContext>();
  Deriver Private(P, *W.Ctx, W.Maps, Opts.Derive);
  assert(W.Ctx->numVars() == SharedVarWatermark &&
         "private contexts must allocate the top-level prefix identically");
  ConstraintSystem Local(*W.Ctx);
  Local.setCancel(Opts.Cancel);
  Private.deriveComponent(CompIdx, Local);
  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    // Deadline or budget fired mid-derivation: Local is partially closed,
    // so nothing of it may be simplified, merged, or written to a cache.
    W.TimedOut = true;
    return W;
  }
  W.RawConstraints = Local.size();
  W.Closure = Local.stats();
  W.Derive = Private.stats();

  std::vector<VarId> ExternalVars = externalVarIdsOf(CompIdx);
  std::vector<SetVar> E;
  E.reserve(ExternalVars.size());
  for (VarId V : ExternalVars)
    E.push_back(W.Maps.VarVar[V]);

  W.Simplified = std::make_unique<ConstraintSystem>(*W.Ctx);
  if (Opts.Simplify == SimplifyAlgorithm::None) {
    // Local's counters move with it; don't double count.
    W.Closure = ClosureStats{};
    *W.Simplified = std::move(Local);
  } else {
    *W.Simplified = simplifyConstraints(Local, E, Opts.Simplify);
  }
  W.Closure.merge(W.Simplified->stats());
  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    W.TimedOut = true;
    return W;
  }

  // Serialize the constraint file for later runs (and, under
  // MergeViaFiles, for this run's own canonical merge).
  if (CacheConfigured || Opts.MergeViaFiles) {
    std::vector<std::pair<std::string, SetVar>> Externals;
    std::unordered_set<SetVar> SeenVars;
    for (VarId V : ExternalVars) {
      SetVar SV = W.Maps.VarVar[V];
      if (SeenVars.insert(SV).second)
        Externals.emplace_back(P.Syms.name(P.var(V).Name), SV);
    }
    W.FileText = serializeConstraints(*W.Simplified, Externals, P.Syms,
                                      hashSource(C.SourceText), OptionsFP);
    if (!Opts.CacheDir.empty())
      writeFileAtomically(cachePathFor(C), W.FileText);
    if (Opts.MemStore)
      Opts.MemStore->store(
          componentStoreKey(hashSource(C.SourceText), OptionsFP, CompIdx),
          W.FileText);
  }
  return W;
}

void ComponentialAnalyzer::merge(uint32_t CompIdx, ComponentWork &W) {
  ComponentRunStats &CS = Stats[CompIdx];
  CS.Cache = W.Outcome;
  if (W.TimedOut) {
    CS.TimedOut = true;
    Info.Cancelled = true;
    return;
  }
  if (W.CacheHit) {
    if (loadFromText(CompIdx, W.CacheText, CS))
      return;
    // Matching header but unusable body (corrupt file, unknown external):
    // fall back to a fresh derivation, skipping the cache.
    W = deriveIsolated(CompIdx, /*AllowCache=*/false);
    CS.Cache = W.Outcome;
    if (W.TimedOut) {
      CS.TimedOut = true;
      Info.Cancelled = true;
      return;
    }
  }

  // Schema/instantiation counters from the component's private Deriver
  // (zeros for a component served from the cache — nothing was derived).
  Info.Derive.merge(W.Derive);

  if (Opts.MergeViaFiles && !W.FileText.empty() &&
      loadFromText(CompIdx, W.FileText, CS)) {
    // Merged through the component's own serialized text, exactly as a
    // later cache hit would be — the combined system stays a pure
    // function of the per-component file texts.
    CS.ReusedFile = false;
    CS.RawConstraints = W.RawConstraints;
    CS.FileBytes = W.FileText.size();
    Info.Closure.merge(W.Closure);
    MaxConstraints = std::max(MaxConstraints, W.RawConstraints);
    return;
  }
  if (Opts.MergeViaFiles)
    Info.MergedOffText = true; // identity guarantee void for this run

  // Renumber the private context into the shared one. Variables below the
  // watermark are the identically-allocated top-level prefix; the rest are
  // appended as one dense block, so the shared numbering is a pure
  // function of the program and the component order — independent of the
  // thread count.
  const SetVar NumPrivVars = W.Ctx->numVars();
  assert(NumPrivVars >= SharedVarWatermark);
  std::vector<SetVar> VarMap(NumPrivVars);
  for (SetVar V = 0; V < SharedVarWatermark; ++V)
    VarMap[V] = V;
  for (SetVar V = SharedVarWatermark; V < NumPrivVars; ++V)
    VarMap[V] = Ctx->freshVar();

  // Constants: basic kinds are pre-interned identically; per-site tags are
  // appended in private interning order. Struct tags are identified by
  // their StructId so that two components using the same structure agree
  // on one shared tag.
  const ConstantTable &PrivConsts = W.Ctx->Constants;
  const Constant NumBasics =
      static_cast<Constant>(ConstKind::VecTag) + 1;
  std::unordered_map<Constant, uint32_t> PrivStructOf;
  for (uint32_t S = 0; S < W.Maps.StructTagOf.size(); ++S)
    if (W.Maps.StructTagOf[S] != 0)
      PrivStructOf.emplace(W.Maps.StructTagOf[S], S);
  std::vector<Constant> ConstMap(PrivConsts.size());
  for (Constant C = 0; C < PrivConsts.size(); ++C) {
    if (C < NumBasics) {
      ConstMap[C] = C;
      continue;
    }
    const ConstantInfo &Info = PrivConsts.info(C);
    if (auto It = PrivStructOf.find(C); It != PrivStructOf.end()) {
      if (Maps.StructTagOf.size() <= It->second)
        Maps.StructTagOf.resize(P.Structs.size(), 0);
      Constant &Global = Maps.StructTagOf[It->second];
      if (Global == 0)
        Global =
            Ctx->Constants.makeTag(Info.K, Info.Arity, Info.Loc, Info.Label);
      ConstMap[C] = Global;
      continue;
    }
    ConstMap[C] =
        Ctx->Constants.makeTag(Info.K, Info.Arity, Info.Loc, Info.Label);
  }

  // Selectors: re-intern by name (idempotent), in private interning order.
  const SelectorTable &PrivSels = W.Ctx->Selectors;
  std::vector<Selector> SelMap(PrivSels.size());
  for (Selector S = 0; S < PrivSels.size(); ++S)
    SelMap[S] = Ctx->Selectors.intern(PrivSels.name(S), PrivSels.polarity(S),
                                      PrivSels.ownerKinds(S));

  // Fold the private side tables into the shared maps. Expression ids and
  // non-top-level variable ids are disjoint across components, so first
  // write wins without conflicts.
  for (ExprId E = 0; E < W.Maps.ExprVar.size(); ++E)
    if (W.Maps.ExprVar[E] != NoSetVar && Maps.ExprVar[E] == NoSetVar)
      Maps.ExprVar[E] = VarMap[W.Maps.ExprVar[E]];
  for (VarId V = 0; V < W.Maps.VarVar.size(); ++V)
    if (W.Maps.VarVar[V] != NoSetVar && Maps.VarVar[V] == NoSetVar)
      Maps.VarVar[V] = VarMap[W.Maps.VarVar[V]];
  for (const CheckSite &Check : W.Maps.Checks) {
    if (!Maps.CheckedSites.insert(Check.Site).second)
      continue;
    CheckSite Copy = Check;
    for (CheckScrutinee &Scr : Copy.Scrutinees) {
      Scr.V = VarMap[Scr.V];
      if (Scr.HasRequiredTag)
        Scr.RequiredTag = ConstMap[Scr.RequiredTag];
    }
    Maps.Checks.push_back(std::move(Copy));
  }
  for (const auto &[Site, Tag] : W.Maps.SiteTags)
    Maps.SiteTags.emplace(Site, ConstMap[Tag]);
  for (const auto &[Tag, Site] : W.Maps.TagSite)
    Maps.TagSite.emplace(ConstMap[Tag], Site);

  Combined->absorbMapped(*W.Simplified, VarMap, ConstMap, SelMap);
  Info.Closure.merge(W.Closure);
  CS.RawConstraints = W.RawConstraints;
  CS.SimplifiedConstraints = W.Simplified->size();
  CS.FileBytes = W.FileText.size();
  MaxConstraints = std::max(MaxConstraints, W.RawConstraints);
}

void ComponentialAnalyzer::run() {
  const uint32_t NumComponents =
      static_cast<uint32_t>(P.Components.size());
  if (NumComponents && !CrossRefsComputed)
    computeCrossReferences();
  if (!Opts.CacheDir.empty())
    std::filesystem::create_directories(Opts.CacheDir);

  const unsigned Threads =
      Opts.Threads ? Opts.Threads : WorkerPool::defaultThreadCount();
  unsigned Step1Threads = Threads;
  if (NumComponents)
    Step1Threads = std::min(Step1Threads, NumComponents);
  const unsigned CloseShards =
      Opts.ParallelClose ? (Opts.CloseShards ? Opts.CloseShards : Threads)
                         : 0;
  const unsigned CloseThreads =
      CloseShards ? std::min(Threads, CloseShards) : 1;

  // One pool serves both the step-1 fan-out and the sharded close
  // rounds, sized for whichever phase needs more workers.
  std::unique_ptr<WorkerPool> Pool;
  if ((Step1Threads > 1 && NumComponents > 1) || CloseThreads > 1)
    Pool = std::make_unique<WorkerPool>(std::max(Step1Threads, CloseThreads));

  using Clock = std::chrono::steady_clock;
  auto MsSince = [](Clock::time_point From) {
    return std::chrono::duration<double, std::milli>(Clock::now() - From)
        .count();
  };

  // Step 1, fanned out: every component derives into a private context.
  auto DeriveStart = Clock::now();
  std::vector<ComponentWork> Work(NumComponents);
  if (!Pool || Step1Threads <= 1 || NumComponents <= 1) {
    for (uint32_t I = 0; I < NumComponents; ++I)
      Work[I] = deriveIsolated(I, /*AllowCache=*/true);
  } else {
    parallelFor(*Pool, NumComponents, [&](uint32_t I) {
      Work[I] = deriveIsolated(I, /*AllowCache=*/true);
    });
  }
  Info.DeriveMs = MsSince(DeriveStart);

  // Step 2, sequential: combine in component order, then close — either
  // the sequential engine or the sharded parallel fixpoint over the same
  // worker pool; the closed system is byte-identical either way.
  auto MergeStart = Clock::now();
  for (uint32_t I = 0; I < NumComponents; ++I)
    merge(I, Work[I]);
  Info.MergeMs = MsSince(MergeStart);
  auto CloseStart = Clock::now();
  Combined->setCancel(Opts.Cancel);
  if (CloseShards && Pool && CloseThreads > 1) {
    PoolRunner Runner(*Pool);
    Combined->closeSharded(CloseShards, &Runner);
  } else if (CloseShards) {
    Combined->closeSharded(CloseShards, nullptr);
  } else {
    Combined->close();
  }
  Info.CloseMs = MsSince(CloseStart);
  if (Combined->closureCancelled()) {
    Info.Cancelled = true;
    Info.CloseConverged = false;
  }
  Info.Closure.merge(Combined->stats());
  MaxConstraints = std::max(MaxConstraints, Combined->size());
}

std::unique_ptr<ConstraintSystem>
ComponentialAnalyzer::reconstruct(uint32_t CompIdx) {
  // Continue the combined system's online closure on a copy: it carries
  // the fixpoint's high-water marks, so deriving the component combines
  // only what the derivation adds. A combined close that a token cut
  // short left the copy short of the fixpoint; close() finishes it.
  auto Full = std::make_unique<ConstraintSystem>(Combined->clone());
  Full->setCancel(Opts.Cancel);
  if (Combined->closureCancelled())
    Full->close();
  D->deriveComponent(CompIdx, *Full);
  Info.Closure.merge(Full->stats());
  MaxConstraints = std::max(MaxConstraints, Full->size());
  return Full;
}

AnalysisOptions spidey::polyAnalysisOptions(PolyMode Mode,
                                            SimplifyAlgorithm Alg) {
  AnalysisOptions Opts;
  Opts.Poly = Mode;
  if (Mode == PolyMode::Smart) {
    Opts.Simplify = [Alg](const ConstraintSystem &S,
                          const std::vector<SetVar> &E) {
      return simplifyConstraints(S, E, Alg);
    };
    Opts.SimplifyTag = simplifyAlgorithmName(Alg);
  }
  return Opts;
}
