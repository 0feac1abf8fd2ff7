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

/// One component's step-1 result. A fresh derivation lives in a private
/// ConstraintContext (workers share no mutable state) until merge()
/// renumbers it into the analyzer's shared context. A constraint-file
/// text is decoded here, on the worker, and merge() commits the image.
struct ComponentialAnalyzer::ComponentWork {
  std::unique_ptr<ConstraintContext> Ctx;
  AnalysisMaps Maps;
  std::unique_ptr<ConstraintSystem> Simplified;
  size_t RawConstraints = 0;
  ClosureStats Closure;  ///< derive + simplify solver counters
  DeriveStats Derive;    ///< schema/instantiation counters (fresh derives)
  /// Length of the component's constraint-file text: the stored one on a
  /// cache hit, else the fresh serialization (0 when none was written).
  /// The text itself is freed on the worker once decoded or written.
  size_t FileBytes = 0;
  /// That text decoded (HasImage): every cache hit, and a fresh derive
  /// under MergeViaFiles whose text decodes.
  ConstraintImage Image;
  bool HasImage = false;
  bool CacheHit = false;
  /// The run's token cancelled before this component finished deriving;
  /// the partial results above are discarded, never merged or cached.
  bool TimedOut = false;
  CacheOutcome Outcome = CacheOutcome::Disabled;
};

namespace {

/// True if the image's external keys are exactly \p Names (sorted and
/// distinct, as externalNamesOf returns them).
bool sameExternals(const ConstraintImage &Img,
                   const std::vector<std::string> &Names) {
  if (Img.Externals.size() != Names.size())
    return false;
  std::vector<std::string_view> Keys;
  Keys.reserve(Names.size());
  for (const auto &Ext : Img.Externals)
    Keys.push_back(Ext.first);
  std::sort(Keys.begin(), Keys.end());
  return std::equal(Keys.begin(), Keys.end(), Names.begin());
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
  SourceHashes.resize(P.Components.size());
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

bool ComponentialAnalyzer::loadImage(const ComponentWork &W,
                                     ComponentRunStats &CS) {
  if (faultAt("scf.parse"))
    return false; // injected: the file text fails to deserialize
  if (!W.HasImage)
    return false;
  // Re-link the file's external variables with this run's top-level
  // variables (two ε-constraints identify them). Every name resolves
  // before anything is committed, so a failed load leaves no trace.
  std::vector<SetVar> Links;
  Links.reserve(W.Image.Externals.size());
  for (const auto &Ext : W.Image.Externals) {
    Symbol Name = P.Syms.lookup(Ext.first);
    if (Name == InvalidSymbol)
      return false;
    VarId V = topLevelByName(Name);
    if (V == NoVar || Maps.VarVar[V] == NoSetVar)
      return false;
    Links.push_back(Maps.VarVar[V]);
  }
  // The commit interns constant labels into the program's symbol table;
  // Program is shared state of the analysis, so the const_cast is
  // confined here.
  SymbolTable &Syms = const_cast<Program &>(P).Syms;
  const size_t Before = Combined->size();
  commitConstraintImage(W.Image, Syms, *Combined, Links);
  CS.ReusedFile = true;
  CS.SimplifiedConstraints = Combined->size() - Before;
  CS.FileBytes = W.FileBytes;
  return true;
}

ComponentialAnalyzer::ComponentWork
ComponentialAnalyzer::deriveIsolated(uint32_t CompIdx,
                                     bool AllowCache) const {
  ComponentWork W;
  const Component &C = P.Components[CompIdx];
  const std::string &Hash = SourceHashes[CompIdx];
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
    const std::string MemKey = componentStoreKey(Hash, OptionsFP, CompIdx);
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
      // Only a file that passes all three has its body decoded.
      ConstraintImage Img;
      std::string Error;
      if (!decodeConstraintHeader(*Text, Img, Error))
        W.Outcome = CacheOutcome::MissCorrupt;
      else if (Img.SourceHash != Hash)
        W.Outcome = CacheOutcome::MissStaleHash;
      else if (Img.OptionsFingerprint != OptionsFP)
        W.Outcome = CacheOutcome::MissOptions;
      else if (!sameExternals(Img, externalNamesOf(CompIdx)))
        W.Outcome = CacheOutcome::MissExternals;
      else if (!decodeConstraintBody(*Text, Img, Error))
        W.Outcome = CacheOutcome::MissCorrupt;
      else {
        W.Outcome = CacheOutcome::Hit;
        W.CacheHit = W.HasImage = true;
        W.Image = std::move(Img);
        W.FileBytes = Text->size();
        // Crash recovery: a hit served from the disk cache refills the
        // in-memory store, so a daemon whose resident store was wiped
        // (restart, eviction, injected fault) warms back up from
        // --cache-dir instead of re-deriving the world.
        if (FromDisk && Opts.MemStore)
          Opts.MemStore->store(MemKey, *Text);
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
    const std::string FileText = serializeConstraints(
        *W.Simplified, Externals, P.Syms, Hash, OptionsFP);
    W.FileBytes = FileText.size();
    if (!Opts.CacheDir.empty())
      writeFileAtomically(cachePathFor(C), FileText);
    if (Opts.MemStore)
      Opts.MemStore->store(componentStoreKey(Hash, OptionsFP, CompIdx),
                           FileText);
    std::string Error;
    W.HasImage = Opts.MergeViaFiles &&
                 decodeConstraintFile(FileText, W.Image, Error);
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
    if (loadImage(W, CS))
      return;
    // An injected parse fault or an external that names no top-level
    // variable: fall back to a fresh derivation, skipping the cache.
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

  if (Opts.MergeViaFiles && W.FileBytes && loadImage(W, CS)) {
    // Merged through the component's own serialized text, exactly as a
    // later cache hit would be — the combined system stays a pure
    // function of the per-component file texts.
    CS.ReusedFile = false;
    CS.RawConstraints = W.RawConstraints;
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
  CS.FileBytes = W.FileBytes;
  MaxConstraints = std::max(MaxConstraints, W.RawConstraints);
}

void ComponentialAnalyzer::run() {
  const uint32_t NumComponents =
      static_cast<uint32_t>(P.Components.size());
  if (NumComponents && !CrossRefsComputed)
    computeCrossReferences();
  if (!Opts.CacheDir.empty()) {
    // A directory that cannot be created behaves like a cache whose
    // writes fail: loads miss and writes are dropped.
    std::error_code EC;
    std::filesystem::create_directories(Opts.CacheDir, EC);
  }

  // The pool serves the step-1 fan-out only; step 2 runs on this thread.
  const unsigned Step1Threads =
      std::min(Opts.Threads ? Opts.Threads : WorkerPool::defaultThreadCount(),
               std::max(NumComponents, 1u));
  std::unique_ptr<WorkerPool> Pool;
  if (Step1Threads > 1)
    Pool = std::make_unique<WorkerPool>(Step1Threads);

  using Clock = std::chrono::steady_clock;
  auto MsSince = [](Clock::time_point From) {
    return std::chrono::duration<double, std::milli>(Clock::now() - From)
        .count();
  };

  // Step 1, fanned out: every component derives into a private context.
  auto DeriveStart = Clock::now();
  std::vector<ComponentWork> Work(NumComponents);
  auto Step1 = [&](uint32_t I) {
    SourceHashes[I] = hashSource(P.Components[I].SourceText);
    Work[I] = deriveIsolated(I, /*AllowCache=*/true);
  };
  if (!Pool) {
    for (uint32_t I = 0; I < NumComponents; ++I)
      Step1(I);
  } else {
    parallelFor(*Pool, NumComponents, Step1);
  }
  Info.DeriveMs = MsSince(DeriveStart);

  // Step 2, sequential: combine in component order, then close.
  auto MergeStart = Clock::now();
  for (uint32_t I = 0; I < NumComponents; ++I)
    merge(I, Work[I]);
  Info.MergeMs = MsSince(MergeStart);
  auto CloseStart = Clock::now();
  Combined->setCancel(Opts.Cancel);
  Combined->close();
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
