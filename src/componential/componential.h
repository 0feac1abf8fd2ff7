//===-- componential/componential.h - Componential SBA ---------*- C++ -*-===//
///
/// \file
/// Componential set-based analysis (§7.1). Programs are processed in three
/// steps:
///
///  1. For each component, derive its constraint system and simplify it
///     with respect to the component's external variables (its top-level
///     definitions plus the foreign top-level variables it references),
///     excluding expression labels. The simplified system is saved to a
///     constraint file keyed by the component's source hash; unchanged
///     components are loaded from their files instead of re-derived.
///  2. Combine the simplified systems and close the union under Θ,
///     propagating data flow between components.
///  3. On demand, reconstruct full precision for the component the
///     programmer is focusing on by re-deriving it in full against the
///     combined system.
///
/// Step 1 is embarrassingly parallel and fans out across a worker pool
/// (ComponentialOptions::Threads): each component derives into a *private*
/// ConstraintContext, and the sequential combine of step 2 renumbers each
/// private system's variables, constants, and selectors into the shared
/// context in component order. The renumbering is a pure function of the
/// program, so the combined system is bit-identical for every thread
/// count. A cache hit, and under MergeViaFiles every component, arrives
/// instead as a constraint file the worker already decoded; step 2
/// commits it straight into the combined system, its variables one block
/// in component order.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_COMPONENTIAL_COMPONENTIAL_H
#define SPIDEY_COMPONENTIAL_COMPONENTIAL_H

#include "analysis/analysis.h"
#include "simplify/simplify.h"
#include "support/cancel.h"

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <string>
#include <vector>

namespace spidey {

/// A keyed store of constraint-file texts layered in front of the on-disk
/// cache directory (the serve daemon keeps one in memory so warm edits
/// never touch the filesystem). Keys are content-addressed
/// (componentStoreKey: source hash + options fingerprint + file slot), so
/// one store can back many concurrent sessions over different programs —
/// identical components share one entry. Implementations must be
/// thread-safe: the step-1 workers of every session probe and fill the
/// store concurrently.
class ConstraintStore {
public:
  virtual ~ConstraintStore();
  virtual std::optional<std::string> load(const std::string &Key) = 0;
  virtual void store(const std::string &Key, const std::string &Text) = 0;
};

struct ComponentialOptions {
  /// Simplification algorithm for step 1 (None reproduces the "standard"
  /// whole-program analysis cost profile while keeping the flow).
  SimplifyAlgorithm Simplify = SimplifyAlgorithm::EpsilonRemoval;
  /// Directory for constraint files; empty disables the file cache.
  std::string CacheDir;
  /// Optional in-memory constraint-file store, probed before CacheDir and
  /// filled alongside it. Not owned.
  ConstraintStore *MemStore = nullptr;
  /// Merge every component into the combined system through its
  /// serialized constraint-file text, whether it was a cache hit or a
  /// fresh derivation. The combined system then is a pure function of the
  /// per-component file texts, so a warm re-analysis that rederives only
  /// edited components is byte-identical to a cold run at the same
  /// options (the serve loop relies on this).
  bool MergeViaFiles = false;
  /// Derivation options (polymorphism mode etc.).
  AnalysisOptions Derive;
  /// Worker threads for the per-component step 1. 0 selects
  /// hardware_concurrency; 1 runs the same code path inline (the combined
  /// result is identical for every value).
  unsigned Threads = 0;
  /// Optional cancellation token (not owned): derive, merge, and close
  /// poll it, and a cancelled run reports which components never
  /// converged (ComponentRunStats::TimedOut, ComponentialRunInfo::
  /// Cancelled). Results of a cancelled run are partial and are never
  /// written to the cache.
  CancelToken *Cancel = nullptr;
};

/// How a component's constraint-file cache probe went.
enum class CacheOutcome : uint8_t {
  Disabled,      ///< no cache configured (or probe skipped)
  Hit,           ///< valid file: hash, options, and externals all match
  MissNoEntry,   ///< nothing stored under the component's key
  MissStaleHash, ///< the component's source changed
  MissOptions,   ///< file was produced under different analysis options
  MissExternals, ///< the component's interface (external set) changed
  MissCorrupt,   ///< unreadable header or body
};

const char *cacheOutcomeName(CacheOutcome O);

/// Per-component bookkeeping for the experiments of §7.2.
struct ComponentRunStats {
  bool ReusedFile = false;
  /// The run's token cancelled before this component's derivation (or
  /// its merge) completed; its constraints are missing from the combined
  /// system.
  bool TimedOut = false;
  CacheOutcome Cache = CacheOutcome::Disabled;
  size_t RawConstraints = 0;        ///< closed, before simplification
  size_t SimplifiedConstraints = 0; ///< saved to the constraint file
  size_t FileBytes = 0;
};

/// The fingerprint folded into every constraint file's header: a file is
/// reusable only by a run whose SimplifyAlgorithm and derivation options
/// both match (a cache dir populated under `--simplify none` must not be
/// reused by a `--simplify hopcroft` run). Whitespace-free.
std::string componentialFingerprint(SimplifyAlgorithm Simplify,
                                    const AnalysisOptions &Derive);

/// The cache file name for a component: a sanitized form of the name for
/// readability plus a short hash of the raw name, so components whose
/// names differ only in non-alphanumeric characters (`a-b` vs `a_b`) get
/// distinct files.
std::string componentCacheFileName(std::string_view ComponentName);

/// The content-addressed key a component's serialized image is filed
/// under in a ConstraintStore: source hash + options fingerprint + the
/// component's file slot. The serialized text is a pure function of these
/// three (plus the external set, which the loader validates from the
/// header): variables are renumbered file-locally, but constant locations
/// embed the component's file index, so the slot must be part of the
/// identity. Keying on content rather than on the component *name* is
/// what lets concurrent serve sessions analyzing different programs share
/// one store — identical library files hit each other's derivations, and
/// same-named files with different text never thrash one entry.
std::string componentStoreKey(std::string_view SourceHash,
                              std::string_view OptionsFingerprint,
                              uint32_t FileSlot);

/// Whole-run solver telemetry: ClosureStats aggregated across every
/// per-component system, the simplifier's systems, the combined close, and
/// the derive work of any reconstructs (a reconstruct's copy of the
/// combined system starts from zero counters), plus per-phase wall times.
/// Valid after run().
struct ComponentialRunInfo {
  ClosureStats Closure;
  /// Aggregated schema/instantiation counters of the step-1 private
  /// derivers (components served from the cache contribute nothing).
  DeriveStats Derive;
  double DeriveMs = 0; ///< step 1 (parallel fan-out), wall time
  double MergeMs = 0;  ///< step 2 renumbering combine
  double CloseMs = 0;  ///< closing the combined system
  /// The run's CancelToken fired: the combined system is partial (some
  /// components' stats carry TimedOut, and/or the final close stopped
  /// short of the fixpoint — see CloseConverged).
  bool Cancelled = false;
  /// False when the step-2 combined close was itself cut short.
  bool CloseConverged = true;
  /// A MergeViaFiles run had to merge at least one component through the
  /// renumbering path because its serialized text would not deserialize
  /// (an injected or real parse fault on a fresh serialization). The
  /// combined system is correct, but it is no longer a pure function of
  /// the file texts, so byte-comparisons against a cold run are void —
  /// the serve loop keeps the session dirty and rebuilds next pass.
  bool MergedOffText = false;
};

/// Drives the three-step componential analysis over one parsed program.
class ComponentialAnalyzer {
public:
  ComponentialAnalyzer(const Program &P, ComponentialOptions Opts);
  ~ComponentialAnalyzer();

  /// Steps 1 and 2.
  void run();

  /// The combined, closed constraint system (valid after run()).
  const ConstraintSystem &combined() const { return *Combined; }
  ConstraintContext &context() { return *Ctx; }

  /// Step 3: full-precision system for one component: the combined system
  /// plus the component's complete derivation, closed. The derivation
  /// continues the closure of a clone() of the combined system. Label
  /// variables for the component's expressions are valid in the result
  /// via maps().
  std::unique_ptr<ConstraintSystem> reconstruct(uint32_t CompIdx);

  const AnalysisMaps &maps() const { return Maps; }
  const std::vector<ComponentRunStats> &componentStats() const {
    return Stats;
  }

  /// The componentialFingerprint of this run's options — the same token
  /// folded into every constraint-file header. The demand-driven query
  /// layer keys its memoized per-component verdicts on it.
  const std::string &optionsFingerprint() const { return OptionsFP; }

  /// hashSource of a component's text, computed once per run by its
  /// step-1 job (valid after run()). The store key, the cache reuse check
  /// and the query layer's verdict memo all read this one value.
  const std::string &sourceHash(uint32_t CompIdx) const {
    return SourceHashes[CompIdx];
  }

  /// The largest constraint system materialized during the run (the
  /// "maximum size" column of fig. 7.1).
  size_t maxConstraints() const { return MaxConstraints; }

  /// Aggregated solver telemetry and phase wall times (valid after run();
  /// reconstruct() folds its closure work in as it happens).
  const ComponentialRunInfo &runInfo() const { return Info; }

  /// The external set variables of a component: its own top-level defines
  /// plus every foreign top-level variable it references.
  std::vector<SetVar> externalsOf(uint32_t CompIdx);

private:
  /// Everything one component's step-1 job produces. Derivation results
  /// live in the job's private context until merge() renumbers them; a
  /// constraint-file text (a cache hit's, or under MergeViaFiles the fresh
  /// serialization) arrives decoded, ready to commit.
  struct ComponentWork;

  void computeCrossReferences();
  std::string cachePathFor(const Component &C) const;

  /// The VarIds behind externalsOf, sorted ascending (deterministic).
  std::vector<VarId> externalVarIdsOf(uint32_t CompIdx) const;

  /// The external variable names of a component, sorted and deduplicated —
  /// the interface a cached constraint file must have been simplified
  /// against to be reusable.
  std::vector<std::string> externalNamesOf(uint32_t CompIdx) const;

  /// Step-1 worker body: derive+close+simplify+serialize component
  /// \p CompIdx into a private context, or find a reusable constraint
  /// file: decode its header, check it (DESIGN.md §8), and only then
  /// decode its body. Reads only shared-immutable state and the job's own
  /// SourceHashes entry; runs on any thread.
  ComponentWork deriveIsolated(uint32_t CompIdx, bool AllowCache) const;

  /// Sequential combine of one component's work, in component order:
  /// commits its decoded image, or renumbers private vars/constants/
  /// selectors into the shared context and absorbs the simplified system
  /// into Combined.
  void merge(uint32_t CompIdx, ComponentWork &W);

  /// Commits W's decoded image straight into Combined, re-linking its
  /// externals with this run's top-level variables. Returns false, with
  /// Combined, the shared context and the symbol table untouched, on an
  /// injected parse fault (`scf.parse`), a text that did not decode, or
  /// an external that names no top-level variable.
  bool loadImage(const ComponentWork &W, ComponentRunStats &CS);

  /// Lazily built Name -> VarId index over top-level defines (first
  /// definition wins, matching lookup order).
  VarId topLevelByName(Symbol Name);

  const Program &P;
  ComponentialOptions Opts;
  std::string OptionsFP; ///< componentialFingerprint of Opts
  std::unique_ptr<ConstraintContext> Ctx;
  std::unique_ptr<ConstraintSystem> Combined;
  AnalysisMaps Maps;
  std::unique_ptr<Deriver> D;
  std::vector<ComponentRunStats> Stats;
  std::vector<std::string> SourceHashes; ///< per component; see sourceHash
  ComponentialRunInfo Info;
  size_t MaxConstraints = 0;
  /// Shared set-variable prefix: the top-level variables every context
  /// (shared and private) allocates identically before any derivation.
  SetVar SharedVarWatermark = 0;
  std::unordered_map<uint32_t, std::unordered_set<VarId>> ReferencedBy;
  std::unordered_set<VarId> CrossReferenced;
  bool CrossRefsComputed = false;
  std::unordered_map<Symbol, VarId> TopLevelIndex;
  bool TopLevelIndexBuilt = false;
};

/// Builds AnalysisOptions for the polymorphic analyses of §7.4/fig. 7.6:
/// "copy" duplicates raw schemas, the "smart" variants simplify the schema
/// once with the given algorithm before duplicating.
AnalysisOptions polyAnalysisOptions(PolyMode Mode, SimplifyAlgorithm Alg);

} // namespace spidey

#endif // SPIDEY_COMPONENTIAL_COMPONENTIAL_H
