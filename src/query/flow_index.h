//===-- query/flow_index.h - Persistent ε-edge adjacency -------*- C++ -*-===//
///
/// \file
/// A compact, persistent adjacency index over the ε-edges (VarUB and
/// FilterUB upper bounds) of a closed constraint system, in CSR form with
/// both forward (children) and reverse (parents) directions. It answers
/// exactly the questions the §5.4 value-flow browser answers — direct
/// parents/children and transitive ancestors/descendants — but is built
/// once per analysis generation and then shared by every query, replacing
/// the per-request FlowGraph construction the serve loop used to pay.
///
/// Reachability runs as a demand-driven worklist exploration outward from
/// the query variable with epoch-stamped visit marks (no per-query
/// clearing, no hashing), and polls an optional CancelToken so an
/// over-budget query degrades instead of stalling the session.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_QUERY_FLOW_INDEX_H
#define SPIDEY_QUERY_FLOW_INDEX_H

#include "constraints/constraint_system.h"

#include <cstdint>
#include <vector>

namespace spidey {

class FlowIndex {
public:
  /// A borrowed, sorted, deduplicated neighbor list.
  struct Neighbors {
    const SetVar *Data = nullptr;
    size_t Size = 0;
    const SetVar *begin() const { return Data; }
    const SetVar *end() const { return Data + Size; }
    size_t size() const { return Size; }
  };

  /// The result of one reachability exploration.
  struct Reach {
    size_t Count = 0;      ///< variables reached, excluding the start
    bool Complete = false; ///< false: the token cancelled mid-walk
  };

  /// (Re)builds both CSR directions from the ε-edges of \p S, in place:
  /// forward rows are filled as the variables ascend and each is sorted
  /// and deduplicated where it lies (rows are short, so this is linear in
  /// practice), and the reverse rows come from a counting sort over the
  /// forward rows. The edge set matches FlowGraph's exactly (VarUB +
  /// FilterUB, dedup'd per endpoint), so every count this index reports
  /// is identical to the per-request browser's.
  void build(const ConstraintSystem &S);

  /// Drops the index (the owning session re-binds to a new generation).
  void clear();

  bool built() const { return Built; }
  size_t numVars() const { return NumVars; }
  size_t numEdges() const { return Fwd.Edges.size(); }

  /// Direct sinks {β | [α ≤ β]} / sources {β | [β ≤ α]}; empty for
  /// variables outside the indexed range (e.g. NoSetVar).
  Neighbors children(SetVar A) const { return Fwd.row(A); }
  Neighbors parents(SetVar A) const { return Rev.row(A); }

  /// Transitive sinks/sources of \p A: worklist BFS outward from the
  /// query variable, counting every variable reached (excluding \p A
  /// itself, matching FlowGraph::ancestors/descendants). With \p Tok
  /// armed, one work unit is charged per visited variable; on
  /// cancellation the partial count is returned with Complete=false.
  Reach descendants(SetVar A, CancelToken *Tok) const {
    return reach(Fwd, A, Tok);
  }
  Reach ancestors(SetVar A, CancelToken *Tok) const {
    return reach(Rev, A, Tok);
  }

private:
  struct Csr {
    std::vector<uint32_t> Offsets; ///< NumVars + 1 entries once built
    std::vector<SetVar> Edges;

    Neighbors row(SetVar A) const {
      // size_t arithmetic: A can be NoSetVar, which would wrap A + 1.
      if (Offsets.size() < 2 || size_t(A) + 1 >= Offsets.size())
        return {};
      return {Edges.data() + Offsets[A], Offsets[A + 1] - Offsets[A]};
    }
  };

  Reach reach(const Csr &Dir, SetVar A, CancelToken *Tok) const;

  Csr Fwd, Rev;
  size_t NumVars = 0;
  bool Built = false;

  // Epoch-stamped BFS scratch, reused across queries (bumping the epoch
  // is the whole reset).
  mutable std::vector<uint64_t> VisitEpoch;
  mutable std::vector<SetVar> Work;
  mutable uint64_t Epoch = 0;
};

} // namespace spidey

#endif // SPIDEY_QUERY_FLOW_INDEX_H
