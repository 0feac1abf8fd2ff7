//===-- query/flow_index.cpp ----------------------------------*- C++ -*-===//

#include "query/flow_index.h"

#include <algorithm>

using namespace spidey;

void FlowIndex::clear() {
  Fwd = Csr{};
  Rev = Csr{};
  NumVars = 0;
  Built = false;
}

void FlowIndex::build(const ConstraintSystem &S) {
  clear();
  std::vector<SetVar> Vars = S.variables();
  // variables() includes every far end, so its last entry is the highest
  // id any edge touches.
  NumVars = Vars.empty() ? 0 : static_cast<size_t>(Vars.back()) + 1;

  // Forward rows, filled in place as the variables ascend: each row is
  // sorted and deduplicated where it lies (a VarUB and a FilterUB edge to
  // the same sink are one ε-edge), and its length parks at Offsets[A + 1]
  // until the prefix sum below turns lengths into offsets.
  Fwd.Offsets.assign(NumVars + 1, 0);
  for (SetVar A : Vars) {
    size_t Begin = Fwd.Edges.size();
    for (const UpperBound &U : S.upperBounds(A))
      if (U.K == UpperBound::Kind::VarUB || U.K == UpperBound::Kind::FilterUB)
        Fwd.Edges.push_back(U.Other);
    auto Row = Fwd.Edges.begin() + Begin;
    std::sort(Row, Fwd.Edges.end());
    Fwd.Edges.erase(std::unique(Row, Fwd.Edges.end()), Fwd.Edges.end());
    Fwd.Offsets[A + 1] = static_cast<uint32_t>(Fwd.Edges.size() - Begin);
  }
  for (size_t I = 1; I <= NumVars; ++I)
    Fwd.Offsets[I] += Fwd.Offsets[I - 1];

  // Reverse rows by a counting sort over the forward rows: Offsets[B]
  // first counts B's parents, the prefix sum makes it the end of B's row,
  // and scattering the sources in descending order decrements it back to
  // the row's start. Each row thus comes out ascending, and duplicate-free
  // because every forward (source, sink) pair is unique.
  Rev.Offsets.assign(NumVars + 1, 0);
  for (SetVar B : Fwd.Edges)
    ++Rev.Offsets[B];
  for (size_t I = 1; I < NumVars; ++I)
    Rev.Offsets[I] += Rev.Offsets[I - 1];
  Rev.Offsets[NumVars] = static_cast<uint32_t>(Fwd.Edges.size());
  Rev.Edges.resize(Fwd.Edges.size());
  for (size_t A = NumVars; A-- > 0;)
    for (SetVar B : Fwd.row(static_cast<SetVar>(A)))
      Rev.Edges[--Rev.Offsets[B]] = static_cast<SetVar>(A);
  Built = true;
}

FlowIndex::Reach FlowIndex::reach(const Csr &Dir, SetVar A,
                                  CancelToken *Tok) const {
  Reach R;
  R.Complete = true;
  if (!Built || A >= NumVars)
    return R;
  if (VisitEpoch.size() < NumVars)
    VisitEpoch.assign(NumVars, 0);
  ++Epoch;
  VisitEpoch[A] = Epoch;
  Work.clear();
  Work.push_back(A);
  bool Armed = Tok && Tok->armed();
  while (!Work.empty()) {
    SetVar V = Work.back();
    Work.pop_back();
    if (Armed && Tok->charge(1)) {
      R.Complete = false;
      return R;
    }
    for (SetVar N : Dir.row(V)) {
      if (VisitEpoch[N] == Epoch)
        continue;
      VisitEpoch[N] = Epoch;
      ++R.Count;
      Work.push_back(N);
    }
  }
  return R;
}
