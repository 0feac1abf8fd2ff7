//===-- query/query_engine.h - Demand-driven serve queries -----*- C++ -*-===//
///
/// \file
/// The demand-driven query layer behind the serve session's `flow` and
/// `check-summary` commands (DESIGN.md §12). Instead of paying
/// whole-program cost per request — a fresh FlowGraph over the entire
/// closed combined system for every flow query, a full reconstruct sweep
/// for every check summary — the engine keeps three kinds of state:
///
///  - a persistent FlowIndex (CSR ε-edge adjacency) built once per
///    analysis generation and shared by every flow query of that
///    generation; each query is then a worklist exploration outward from
///    the query variable only;
///  - memoized per-region reachability summaries: the answer to a flow
///    query is a pure function of the query variable's *region* (the
///    undirected connected component of the constraint graph containing
///    it), so each region gets a digest — a hash of every bound of every
///    variable in it, each variable's bounds folded order-independently
///    (a sum of per-bound hashes) and the variables folded in ascending
///    id order, so it is a function of the closed bound set, not of the
///    order the engine discovered bounds in. Variables enter the digest as
///    region-local ordinals (their rank within the region in ascending id
///    order), not raw ids: the merge numbers all external variables ahead
///    of the per-component public blocks, so an edit that adds one
///    top-level name shifts every later id by one while changing no
///    region's structure, and the ordinal labeling keeps every untouched
///    region's digest — and its memoized answers — stable across that
///    renumbering;
///  - memoized per-component check verdicts keyed by the component's v2
///    cache identity (source hash + componential options fingerprint)
///    plus the digests of the regions its external variables inhabit:
///    `check-summary` re-runs step-3 reconstruction only for components
///    whose key changed, so a 1-component edit re-checks exactly one
///    component.
///
/// Soundness of the region key: Θ only ever combines a lower and an upper
/// bound of the same variable, so a closed fact about a variable is a
/// function of the initial constraints in its undirected connected
/// component; a component's step-3 verdicts are a function of its own
/// source (and options) plus the combined bounds of the regions its
/// externals touch. A digest mismatch is always safe — it merely forces a
/// recheck. Verdict memoization is disabled for polymorphic derivation
/// modes, where reconstruction order feeds a shared schema table.
///
/// Degradation contract: queries poll the session CancelToken. A
/// cancelled flow walk answers with partial counts and Degraded=true and
/// is never memoized; a cancelled summary sweep answers the partial
/// verdicts gathered so far (completed per-component verdicts are still
/// individually exact and are cached); the next in-budget query returns
/// exact answers.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_QUERY_QUERY_ENGINE_H
#define SPIDEY_QUERY_QUERY_ENGINE_H

#include "componential/componential.h"
#include "query/flow_index.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace spidey {

/// Engine counters, accumulated for the session (reported by the serve
/// "stats" command).
struct QueryStats {
  uint64_t IndexBuilds = 0;     ///< FlowIndex (re)builds, one per generation
  uint64_t FlowQueries = 0;
  uint64_t FlowMemoHits = 0;    ///< flow answers served from a region summary
  uint64_t NameIndexBuilds = 0; ///< Name -> VarId index builds
  uint64_t RegionSweeps = 0;    ///< region digest passes, one per generation
  uint64_t ComponentsRechecked = 0;
  uint64_t VerdictsReused = 0;
  uint64_t DegradedQueries = 0; ///< flow walks cut short by the token
};

class QueryEngine {
public:
  struct FlowAnswer {
    bool Found = false;  ///< false: no top-level definition of that name
    SetVar Var = NoSetVar;
    std::vector<std::string> Kinds; ///< sorted, deduplicated kind names
    size_t Parents = 0, Children = 0, Ancestors = 0, Descendants = 0;
    bool Degraded = false;    ///< cancelled mid-walk; counts are partial
    bool FromSummary = false; ///< served from a memoized region summary
  };

  struct SummaryAnswer {
    bool Partial = false;   ///< sweep cut short by the token
    uint32_t Rechecked = 0; ///< components whose checks actually re-ran
    uint32_t Reused = 0;    ///< components served from memoized verdicts
    size_t Possible = 0, Unsafe = 0;
    std::string Summary; ///< byte-identical to DebugReport::summary
  };

  /// Binds the engine to the current analysis generation. \p Volatile
  /// marks a degraded/partial generation: queries still answer over the
  /// partial system, but the cross-generation memo caches are neither
  /// read nor written. \p AllowVerdictCache gates check-verdict
  /// memoization (off for polymorphic derivation). \p OptionsFP is the
  /// componential fingerprint folded into every verdict key.
  void rebind(Program &P, ComponentialAnalyzer &CA, CancelToken *Tok,
              bool Volatile, bool AllowVerdictCache, std::string OptionsFP);

  /// Answers one flow query by name. The caller re-arms the token first.
  FlowAnswer flow(const std::string &Name);

  /// Answers a check summary, rechecking only components whose verdict
  /// key changed. The caller re-arms the token first.
  SummaryAnswer checkSummary();

  const QueryStats &stats() const { return Stats; }
  const FlowIndex &index() const { return Index; }

private:
  struct FlowMemoEntry {
    uint64_t RegionDigest = 0;
    /// The query variable's rank within its region: pins the anchor's
    /// position renumbering-stably (two members of one region share a
    /// digest but not an ordinal).
    uint32_t AnchorOrdinal = 0;
    FlowAnswer Answer;
  };

  struct VerdictMemoEntry {
    std::string SourceHash; ///< hashSource of the component's text
    std::string OptionsFP;  ///< componentialFingerprint at memo time
    uint64_t RegionKey = 0; ///< digests of the externals' regions
    size_t Possible = 0, Unsafe = 0;
    std::vector<std::string> UnsafeLines; ///< rendered, in verdict order
  };

  void ensureIndex();
  void ensureNameIndex();
  void ensureRegions();

  /// Digest of the region containing \p V (0 for unbounded variables).
  uint64_t regionDigest(SetVar V) const;
  /// \p V's rank within its region, in ascending variable order — the
  /// renumbering-stable stand-in for its raw id.
  uint32_t ordinalOf(SetVar V) const;
  /// Verdict key for component \p I: the (digest, ordinal) pairs of its
  /// external anchors, sorted — which regions the component reads and
  /// where in them it is anchored, independent of raw numbering.
  uint64_t regionKeyOf(uint32_t I);

  // Bound-generation state (valid between rebind calls).
  Program *P = nullptr;
  ComponentialAnalyzer *CA = nullptr;
  CancelToken *Tok = nullptr;
  bool Volatile = false;
  bool AllowVerdictCache = true;
  std::string OptionsFP;

  // Per-generation lazy state, reset by rebind.
  FlowIndex Index;
  bool IndexReady = false;
  std::unordered_map<Symbol, VarId> NameIndex;
  bool NameIndexReady = false;
  std::vector<SetVar> RegionParent;    ///< per var: its region's root
  std::vector<uint32_t> RegionOrdinal; ///< rank within region, per var
  std::vector<uint64_t> RootDigest;    ///< per root: the region digest
  bool RegionsReady = false;

  // Cross-generation memo caches (the whole point of the engine).
  // FlowMemo is keyed by query name; Verdicts by "<index>:<name>" so two
  // components sharing a name can never alias each other's verdicts.
  std::unordered_map<std::string, FlowMemoEntry> FlowMemo;
  std::unordered_map<std::string, VerdictMemoEntry> Verdicts;

  QueryStats Stats;
};

} // namespace spidey

#endif // SPIDEY_QUERY_QUERY_ENGINE_H
