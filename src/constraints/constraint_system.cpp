//===-- constraints/constraint_system.cpp ---------------------*- C++ -*-===//

#include "constraints/constraint_system.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

using namespace spidey;

std::string ClosureStats::str() const {
  std::ostringstream OS;
  OS << "  tasks drained:      " << TasksDrained << "\n"
     << "  combines:           " << CombinesAttempted << " attempted, "
     << CombinesInserted << " inserted\n"
     << "  dedup hit rate:     " << std::fixed << std::setprecision(1)
     << dedupHitRate() * 100.0 << "% (" << DedupHits << " hits)\n"
     << "  eps cycles:         " << EpsEdges << " cross-rep edges, "
     << EpsSccsCollapsed << " SCCs collapsed, " << VarsUnified
     << " vars unified\n"
     << "  cycle search steps: " << CycleSearchSteps << "\n"
     << "  peak worklist:      " << PeakWorklistDepth << "\n";
  return OS.str();
}

//===--------------------------------------------------------------------===//
// Insertion.
//
// Lower bounds live once per ε-SCC, on the representative's slot, keyed in
// the dedup set under the representative. Upper bounds live (and are
// keyed) on their original variable. NumBounds counts the *presented*
// system: a representative's lower bound counts once per SCC member, so
// size() matches what a per-variable engine would store.
//===--------------------------------------------------------------------===//

void ConstraintSystem::buildBuckets(VarBounds &B) {
  B.Buckets = std::make_unique<LowBuckets>();
  for (uint32_t I = 0; I < B.Lows.size(); ++I) {
    const LowerBound &L = B.Lows[I];
    if (L.K == LowerBound::Kind::ConstLB) {
      uint8_t Kind = static_cast<uint8_t>(Ctx->Constants.kind(L.C));
      auto It = std::find_if(B.Buckets->ByKind.begin(),
                             B.Buckets->ByKind.end(),
                             [&](const auto &P) { return P.first == Kind; });
      if (It == B.Buckets->ByKind.end()) {
        B.Buckets->ByKind.push_back({Kind, {}});
        It = std::prev(B.Buckets->ByKind.end());
      }
      It->second.push_back(I);
    } else {
      auto It = std::find_if(B.Buckets->BySel.begin(), B.Buckets->BySel.end(),
                             [&](const auto &P) { return P.first == L.Sel; });
      if (It == B.Buckets->BySel.end()) {
        B.Buckets->BySel.push_back({L.Sel, {}});
        It = std::prev(B.Buckets->BySel.end());
      }
      It->second.push_back(I);
    }
  }
}

void ConstraintSystem::appendLow(VarBounds &B, const LowerBound &L) {
  uint32_t Idx = static_cast<uint32_t>(B.Lows.size());
  if (B.Lows.empty())
    B.Lows.reserve(4);
  B.Lows.push_back(L);
  if (B.Buckets) {
    if (L.K == LowerBound::Kind::ConstLB) {
      uint8_t Kind = static_cast<uint8_t>(Ctx->Constants.kind(L.C));
      auto It = std::find_if(B.Buckets->ByKind.begin(),
                             B.Buckets->ByKind.end(),
                             [&](const auto &P) { return P.first == Kind; });
      if (It == B.Buckets->ByKind.end()) {
        B.Buckets->ByKind.push_back({Kind, {}});
        It = std::prev(B.Buckets->ByKind.end());
      }
      It->second.push_back(Idx);
    } else {
      auto It = std::find_if(B.Buckets->BySel.begin(), B.Buckets->BySel.end(),
                             [&](const auto &P) { return P.first == L.Sel; });
      if (It == B.Buckets->BySel.end()) {
        B.Buckets->BySel.push_back({L.Sel, {}});
        It = std::prev(B.Buckets->BySel.end());
      }
      It->second.push_back(Idx);
    }
  } else if (B.Lows.size() >= BucketThreshold) {
    buildBuckets(B);
  }
}

bool ConstraintSystem::insertLowerRaw(SetVar A, const LowerBound &L) {
  SetVar R = find(A);
  if (!Keys.insert(R, lowKey(L)))
    return false;
  VarBounds &B = bounds(R);
  NumBounds += sccSizeOf(B);
  appendLow(B, L);
  return true;
}

bool ConstraintSystem::insertUpperRaw(SetVar A, const UpperBound &U) {
  if (!Keys.insert(A, upKey(U)))
    return false;
  VarBounds &B = bounds(A);
  if (B.Ups.empty())
    B.Ups.reserve(4);
  B.Ups.push_back(U);
  ++NumBounds;
  return true;
}

void ConstraintSystem::markDirty(SetVar R) {
  VarBounds &B = bounds(R);
  B.Dirty = true;
  if (!B.InWorklist) {
    B.InWorklist = true;
    Worklist.push_back(R);
    if (Worklist.size() > Stats.PeakWorklistDepth)
      Stats.PeakWorklistDepth = Worklist.size();
  }
}

bool ConstraintSystem::insertLower(SetVar A, const LowerBound &L) {
  SetVar R = find(A);
  if (!Keys.insert(R, lowKey(L))) {
    ++Stats.DedupHits;
    return false;
  }
  VarBounds &B = bounds(R);
  NumBounds += sccSizeOf(B);
  appendLow(B, L);
  markDirty(R);
  return true;
}

bool ConstraintSystem::insertUpper(SetVar A, const UpperBound &U) {
  if (!Keys.insert(A, upKey(U))) {
    ++Stats.DedupHits;
    return false;
  }
  VarBounds &B = bounds(A);
  if (B.Ups.empty())
    B.Ups.reserve(4);
  B.Ups.push_back(U);
  ++NumBounds;
  if (U.K == UpperBound::Kind::VarUB && find(A) != find(U.Other)) {
    EpsPending.push_back({A, U.Other});
    ++Stats.EpsEdges;
  }
  markDirty(find(A));
  return true;
}

//===--------------------------------------------------------------------===//
// Combination.
//===--------------------------------------------------------------------===//

void ConstraintSystem::combineRange(SetVar R, uint32_t SlotR,
                                    const UpperBound &U, uint32_t Begin,
                                    uint32_t End) {
  if (Begin >= End)
    return;
  // R's lows cannot grow while combining them (inserts either target other
  // representatives or deduplicate against R), so the data pointer and the
  // bucket index vectors are stable even though Storage itself may grow.
  const LowerBound *Lows = Storage[SlotR].Lows.data();
  const LowBuckets *BK = Storage[SlotR].Buckets.get();

  switch (U.K) {
  case UpperBound::Kind::VarUB: {
    // Rules s1, s2, s3: propagate lows forward along α ≤ γ. Within a
    // collapsed SCC the lows are already shared — nothing to do.
    if (find(U.Other) == R)
      return;
    Stats.CombinesAttempted += End - Begin;
    for (uint32_t I = Begin; I < End; ++I)
      if (insertLower(U.Other, Lows[I]))
        ++Stats.CombinesInserted;
    return;
  }

  case UpperBound::Kind::FilterUB: {
    // Conditional propagation along α ≤_M γ: constants pass when their
    // kind is in M; components pass when some owner kind of their
    // selector is in M (a pair's car passes a pair? filter, etc.).
    const KindMask M = U.Sel;
    if (!BK) {
      for (uint32_t I = Begin; I < End; ++I) {
        const LowerBound &L = Lows[I];
        bool Pass = L.K == LowerBound::Kind::ConstLB
                        ? (M & kindBit(Ctx->Constants.kind(L.C))) != 0
                        : (M & Ctx->Selectors.ownerKinds(L.Sel)) != 0;
        if (!Pass)
          continue;
        ++Stats.CombinesAttempted;
        if (insertLower(U.Other, L))
          ++Stats.CombinesInserted;
      }
      return;
    }
    // Bucketed: whole non-matching kind/selector groups are skipped
    // without touching their elements.
    for (const auto &[Kind, Idxs] : BK->ByKind) {
      if (!(M & kindBit(static_cast<ConstKind>(Kind))))
        continue;
      for (auto It = std::lower_bound(Idxs.begin(), Idxs.end(), Begin);
           It != Idxs.end() && *It < End; ++It) {
        ++Stats.CombinesAttempted;
        if (insertLower(U.Other, Lows[*It]))
          ++Stats.CombinesInserted;
      }
    }
    for (const auto &[Sel, Idxs] : BK->BySel) {
      if (!(M & Ctx->Selectors.ownerKinds(Sel)))
        continue;
      for (auto It = std::lower_bound(Idxs.begin(), Idxs.end(), Begin);
           It != Idxs.end() && *It < End; ++It) {
        ++Stats.CombinesAttempted;
        if (insertLower(U.Other, Lows[*It]))
          ++Stats.CombinesInserted;
      }
    }
    return;
  }

  case UpperBound::Kind::SelUB: {
    // U = SelUB{s, γ}; only combines with a SelLB of the same selector.
    const bool Mono = Ctx->Selectors.isMonotone(U.Sel);
    auto Apply = [&](const LowerBound &L) {
      ++Stats.CombinesAttempted;
      // Rule s4: β ≤ s⁺(α) and s⁺(α) ≤ γ imply β ≤ γ.
      // Rule s5: s⁻(α) ≤ γ and β ≤ s⁻(α) imply β ≤ γ.
      bool Inserted = Mono ? insertUpper(L.Other, UpperBound::var(U.Other))
                           : insertUpper(U.Other, UpperBound::var(L.Other));
      if (Inserted)
        ++Stats.CombinesInserted;
    };
    if (!BK) {
      for (uint32_t I = Begin; I < End; ++I)
        if (Lows[I].K == LowerBound::Kind::SelLB && Lows[I].Sel == U.Sel)
          Apply(Lows[I]);
      return;
    }
    for (const auto &[Sel, Idxs] : BK->BySel) {
      if (Sel != U.Sel)
        continue;
      for (auto It = std::lower_bound(Idxs.begin(), Idxs.end(), Begin);
           It != Idxs.end() && *It < End; ++It)
        Apply(Lows[*It]);
      return;
    }
    return;
  }
  }
}

//===--------------------------------------------------------------------===//
// The exactly-once drain.
//===--------------------------------------------------------------------===//

void ConstraintSystem::processRep(SetVar R) {
  const uint32_t SlotR = Slots[R];
  // Storage may reallocate whenever a combine creates a slot, so state is
  // re-read through SlotR/Slots on every access. Collapses are deferred to
  // drain(), so R stays a representative and its member list is stable for
  // the whole call.
  while (true) {
    if (pollCancel()) {
      Storage[SlotR].InWorklist = false;
      return;
    }
    Storage[SlotR].Dirty = false;
    const uint32_t NL = static_cast<uint32_t>(Storage[SlotR].Lows.size());
    const uint32_t LD = Storage[SlotR].LowsDone;
    const size_t NumMembers = sccSizeOf(Storage[SlotR]);

    // New lows × already-combined ups of each member: each (L, U) pair
    // with U below the member's high-water mark meets exactly here.
    if (LD < NL) {
      for (size_t MI = 0; MI < NumMembers; ++MI) {
        SetVar M =
            Storage[SlotR].Members.empty() ? R : Storage[SlotR].Members[MI];
        const uint32_t SlotM = Slots[M];
        const uint32_t UD = Storage[SlotM].UpsDone;
        for (uint32_t J = 0; J < UD; ++J) {
          UpperBound U = Storage[SlotM].Ups[J];
          combineRange(R, SlotR, U, LD, NL);
          if (pollCancel()) {
            // Bail without advancing LowsDone: the combines already done
            // are deduplicated, so redoing this range later is harmless.
            Storage[SlotR].InWorklist = false;
            return;
          }
        }
      }
      Storage[SlotR].LowsDone = NL;
    }

    // New ups of each member × all lows below the (now advanced) mark.
    for (size_t MI = 0; MI < NumMembers; ++MI) {
      SetVar M =
          Storage[SlotR].Members.empty() ? R : Storage[SlotR].Members[MI];
      const uint32_t SlotM = Slots[M];
      while (Storage[SlotM].UpsDone < Storage[SlotM].Ups.size()) {
        UpperBound U = Storage[SlotM].Ups[Storage[SlotM].UpsDone];
        ++Storage[SlotM].UpsDone;
        combineRange(R, SlotR, U, 0, NL);
        if (pollCancel()) {
          Storage[SlotR].InWorklist = false;
          return;
        }
      }
    }

    if (!Storage[SlotR].Dirty)
      break;
  }
  Storage[SlotR].InWorklist = false;
}

void ConstraintSystem::drain() {
  uint32_t Iter = 0;
  while (true) {
    // Periodic forced poll: an occasional real deadline check even when
    // every worklist item is cheap (the unforced polls between them fire
    // only per PollStride combines).
    if (pollCancel(/*Force=*/(++Iter & 63) == 0))
      return;
    if (!EpsPending.empty())
      resolveEpsPending();
    if (Worklist.empty())
      break;
    SetVar R = Worklist.back();
    Worklist.pop_back();
    if (find(R) != R)
      continue; // absorbed into another representative meanwhile
    const uint32_t Slot = Slots[R];
    if (!Storage[Slot].Dirty) {
      Storage[Slot].InWorklist = false;
      continue;
    }
    ++Stats.TasksDrained;
    processRep(R);
  }
}

//===--------------------------------------------------------------------===//
// ε-cycle elimination.
//===--------------------------------------------------------------------===//

void ConstraintSystem::collapseCycle(std::vector<SetVar> Roots) {
  std::sort(Roots.begin(), Roots.end());
  const SetVar R = Roots.front();
  const uint32_t SlotR = Slots[R];

  size_t OldCounted = 0, TotalSize = 0;
  std::vector<SetVar> NewMembers;
  for (SetVar O : Roots) {
    const VarBounds &B = Storage[Slots[O]];
    OldCounted += B.Lows.size() * sccSizeOf(B);
    TotalSize += sccSizeOf(B);
    if (B.Members.empty())
      NewMembers.push_back(O);
    else
      NewMembers.insert(NewMembers.end(), B.Members.begin(), B.Members.end());
  }
  std::sort(NewMembers.begin(), NewMembers.end());
  const size_t OldRSize = sccSizeOf(Storage[SlotR]);

  // Migrate lows of the absorbed roots into R (ascending root order keeps
  // the surviving list deterministic). Their old dedup keys go stale but
  // are never queried again: every lookup routes through find().
  if (Roots.back() >= Parent.size())
    for (SetVar V = static_cast<SetVar>(Parent.size()); V <= Roots.back();
         ++V)
      Parent.push_back(V);
  for (size_t I = 1; I < Roots.size(); ++I) {
    SetVar O = Roots[I];
    VarBounds &BO = Storage[Slots[O]];
    for (const LowerBound &L : BO.Lows)
      if (Keys.insert(R, lowKey(L)))
        appendLow(Storage[SlotR], L);
    BO.Lows = {};
    BO.Buckets.reset();
    BO.Members = {};
    BO.LowsDone = 0;
    BO.Dirty = false;
    Parent[O] = R;
  }

  VarBounds &BR = Storage[SlotR];
  BR.Members = std::move(NewMembers);
  BR.LowsDone = 0; // recombine all lows against every member's done ups
  NumBounds = NumBounds - OldCounted + BR.Lows.size() * TotalSize;
  ++Stats.EpsSccsCollapsed;
  Stats.VarsUnified += TotalSize - OldRSize;
  markDirty(R);
}

void ConstraintSystem::resolveEpsPending() {
  // Bounded Fähndrich-style partial search: for each recorded edge
  // ra → rb, look for a path rb ⇝ ra in the representative ε-graph. A
  // found path closes a cycle, which is collapsed; exceeding the budget
  // just leaves the cycle to ordinary propagation (or to the offline SCC
  // pass at the next close()).
  std::vector<SetVar> Stack;
  for (size_t EI = 0; EI < EpsPending.size(); ++EI) {
    const SetVar RA = find(EpsPending[EI].first);
    const SetVar RB = find(EpsPending[EI].second);
    if (RA == RB || slotOf(RB) == NoSlot)
      continue; // same class already, or RB has no out-edges yet

    uint64_t Budget = EpsSearchBudget;
    // Stamped visit marks: a node is visited this search iff its epoch
    // matches, so membership tests and parent lookups are O(1) without
    // per-search clearing.
    ++EpsSearchEpoch;
    if (EpsVisitEpoch.size() < Slots.size()) {
      EpsVisitEpoch.resize(Slots.size(), 0);
      EpsVisitParent.resize(Slots.size(), NoSetVar);
    }
    EpsVisitEpoch[RB] = EpsSearchEpoch;
    EpsVisitParent[RB] = NoSetVar;
    Stack.assign(1, RB);
    SetVar FoundFrom = NoSetVar;

    while (!Stack.empty() && Budget && FoundFrom == NoSetVar) {
      const SetVar Cur = Stack.back();
      Stack.pop_back();
      const uint32_t SlotCur = Slots[Cur];
      const size_t NumMembers = sccSizeOf(Storage[SlotCur]);
      for (size_t MI = 0; MI < NumMembers && Budget; ++MI) {
        SetVar M = Storage[SlotCur].Members.empty()
                       ? Cur
                       : Storage[SlotCur].Members[MI];
        const VarBounds &BM = Storage[Slots[M]];
        for (const UpperBound &U : BM.Ups) {
          if (!Budget)
            break;
          --Budget;
          ++Stats.CycleSearchSteps;
          if (U.K != UpperBound::Kind::VarUB)
            continue;
          const SetVar T = find(U.Other);
          if (T == Cur)
            continue;
          if (T == RA) {
            FoundFrom = Cur;
            break;
          }
          if (slotOf(T) == NoSlot)
            continue; // no out-edges; cannot be on a cycle
          if (EpsVisitEpoch[T] != EpsSearchEpoch) {
            EpsVisitEpoch[T] = EpsSearchEpoch;
            EpsVisitParent[T] = Cur;
            Stack.push_back(T);
          }
        }
        if (FoundFrom != NoSetVar)
          break;
      }
    }

    if (FoundFrom == NoSetVar) {
      EpsSearchBudget = std::max(CycleSearchBudgetMin, EpsSearchBudget / 2);
      continue;
    }
    EpsSearchBudget = CycleSearchBudget;
    // Reconstruct the path RB ⇝ FoundFrom and collapse it with RA.
    std::vector<SetVar> Cycle{RA};
    for (SetVar V = FoundFrom; V != NoSetVar; V = EpsVisitParent[V])
      Cycle.push_back(V);
    collapseCycle(std::move(Cycle));
  }
  EpsPending.clear();
}

void ConstraintSystem::collapseAllSccs() {
  // Offline Tarjan over the representative ε-graph; run at close() where
  // raw-built systems (deserialized files, the componential combine) get
  // their cycles collapsed in one pass before any combining happens.
  std::vector<SetVar> Nodes;
  std::vector<uint32_t> NodeIdx(Slots.size(), ~uint32_t(0));
  for (SetVar A = 0; A < Slots.size(); ++A)
    if (Slots[A] != NoSlot && find(A) == A) {
      NodeIdx[A] = static_cast<uint32_t>(Nodes.size());
      Nodes.push_back(A);
    }
  if (Nodes.empty())
    return;

  std::vector<std::vector<uint32_t>> Adj(Nodes.size());
  for (uint32_t NI = 0; NI < Nodes.size(); ++NI) {
    const SetVar R = Nodes[NI];
    const uint32_t SlotR = Slots[R];
    const size_t NumMembers = sccSizeOf(Storage[SlotR]);
    for (size_t MI = 0; MI < NumMembers; ++MI) {
      SetVar M =
          Storage[SlotR].Members.empty() ? R : Storage[SlotR].Members[MI];
      for (const UpperBound &U : Storage[Slots[M]].Ups) {
        if (U.K != UpperBound::Kind::VarUB)
          continue;
        const SetVar T = find(U.Other);
        if (T == R || slotOf(T) == NoSlot)
          continue;
        Adj[NI].push_back(NodeIdx[T]);
      }
    }
  }

  constexpr uint32_t Undef = ~uint32_t(0);
  std::vector<uint32_t> Index(Nodes.size(), Undef), Low(Nodes.size(), 0);
  std::vector<uint8_t> OnStack(Nodes.size(), 0);
  std::vector<uint32_t> SccStack;
  std::vector<std::vector<SetVar>> Sccs;
  uint32_t NextIndex = 0;

  struct Frame {
    uint32_t Node;
    size_t EdgeIdx;
  };
  std::vector<Frame> Dfs;
  for (uint32_t Start = 0; Start < Nodes.size(); ++Start) {
    if (Index[Start] != Undef)
      continue;
    Dfs.push_back({Start, 0});
    Index[Start] = Low[Start] = NextIndex++;
    SccStack.push_back(Start);
    OnStack[Start] = 1;
    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      if (F.EdgeIdx < Adj[F.Node].size()) {
        uint32_t W = Adj[F.Node][F.EdgeIdx++];
        if (Index[W] == Undef) {
          Index[W] = Low[W] = NextIndex++;
          SccStack.push_back(W);
          OnStack[W] = 1;
          Dfs.push_back({W, 0});
        } else if (OnStack[W] && Index[W] < Low[F.Node]) {
          Low[F.Node] = Index[W];
        }
        continue;
      }
      uint32_t V = F.Node;
      Dfs.pop_back();
      if (!Dfs.empty() && Low[V] < Low[Dfs.back().Node])
        Low[Dfs.back().Node] = Low[V];
      if (Low[V] == Index[V]) {
        std::vector<SetVar> Scc;
        while (true) {
          uint32_t W = SccStack.back();
          SccStack.pop_back();
          OnStack[W] = 0;
          Scc.push_back(Nodes[W]);
          if (W == V)
            break;
        }
        if (Scc.size() > 1)
          Sccs.push_back(std::move(Scc));
      }
    }
  }

  for (std::vector<SetVar> &Scc : Sccs)
    collapseCycle(std::move(Scc));
}

void ConstraintSystem::close() {
  collapseAllSccs();
  // Mark every representative dirty once; processRep's high-water marks
  // make this a no-op for bounds that already combined.
  for (SetVar A = 0; A < Slots.size(); ++A) {
    if (Slots[A] == NoSlot)
      continue;
    markDirty(find(A));
  }
  drain();
}

void ConstraintSystem::addBulk(const BulkConstraint *Recs, size_t N,
                               SetVar Base) {
  // Grow the dedup table once for the whole batch instead of doubling it
  // mid-replay. Capacity is unobservable, so the resulting system stays
  // identical to one built by individual adder calls.
  Keys.reserve(Keys.size() + N);
  for (size_t I = 0; I < N; ++I) {
    const BulkConstraint &R = Recs[I];
    SetVar A = BulkConstraint::decode(R.A, Base);
    switch (R.K) {
    case BulkConstraint::Kind::ConstLow:
      addConstLower(A, R.B);
      break;
    case BulkConstraint::Kind::SelLow:
      addSelLower(A, R.Sel, BulkConstraint::decode(R.B, Base));
      break;
    case BulkConstraint::Kind::VarUp:
      addVarUpper(A, BulkConstraint::decode(R.B, Base));
      break;
    case BulkConstraint::Kind::SelUp:
      addSelUpper(A, R.Sel, BulkConstraint::decode(R.B, Base));
      break;
    case BulkConstraint::Kind::FilterUp:
      addFilterUpper(A, R.Sel, BulkConstraint::decode(R.B, Base));
      break;
    }
  }
}

//===--------------------------------------------------------------------===//
// Queries and presentation.
//===--------------------------------------------------------------------===//

std::vector<SetVar> ConstraintSystem::variables() const {
  std::vector<SetVar> Result;
  Result.reserve(Storage.size());
  // Far-side variables that own no slot: the only ones the ascending slot
  // scan does not already emit, and few (most far ends carry bounds too).
  std::vector<SetVar> Far;
  auto noteFar = [&](SetVar V) {
    if (slotOf(V) == NoSlot)
      Far.push_back(V);
  };
  for (SetVar A = 0; A < Slots.size(); ++A) {
    uint32_t Slot = Slots[A];
    if (Slot == NoSlot)
      continue;
    Result.push_back(A); // ascending by construction
    const VarBounds &B = Storage[Slot];
    if (findConst(A) == A)
      for (const LowerBound &L : B.Lows)
        if (L.K == LowerBound::Kind::SelLB)
          noteFar(L.Other);
    for (const UpperBound &U : B.Ups)
      noteFar(U.Other);
  }
  if (Far.empty())
    return Result;
  std::sort(Far.begin(), Far.end());
  Far.erase(std::unique(Far.begin(), Far.end()), Far.end());
  // Disjoint from the slot owners, so the merge needs no dedup.
  size_t Owners = Result.size();
  Result.insert(Result.end(), Far.begin(), Far.end());
  std::inplace_merge(Result.begin(), Result.begin() + Owners, Result.end());
  return Result;
}

std::vector<Constant> ConstraintSystem::constantsOf(SetVar A) const {
  std::vector<Constant> Result;
  for (const LowerBound &L : lowerBounds(A))
    if (L.K == LowerBound::Kind::ConstLB)
      Result.push_back(L.C);
  std::sort(Result.begin(), Result.end());
  return Result;
}

ConstraintSystem ConstraintSystem::clone() const {
  ConstraintSystem C(*Ctx);
  C.Slots = Slots;
  C.Storage = std::vector<VarBounds>(Storage);
  C.Parent = Parent;
  C.Keys = Keys;
  // A drain cut short by a token leaves queued representatives (their
  // InWorklist flags are copied with Storage) and unresolved ε-edges;
  // both travel with the copy so its close() picks up where this one
  // stopped. The cycle-search scratch is epoch-stamped and starts empty.
  C.Worklist = Worklist;
  C.EpsPending = EpsPending;
  C.EpsSearchBudget = EpsSearchBudget;
  C.NumBounds = NumBounds;
  return C;
}

void ConstraintSystem::absorbRaw(const ConstraintSystem &Other) {
  Keys.reserve(Keys.size() + Other.NumBounds);
  for (SetVar A = 0; A < Other.Slots.size(); ++A) {
    if (Other.Slots[A] == NoSlot)
      continue;
    for (const LowerBound &L : Other.lowerBounds(A))
      insertLowerRaw(A, L);
    for (const UpperBound &U : Other.upperBounds(A))
      insertUpperRaw(A, U);
  }
}

void ConstraintSystem::absorbMapped(const ConstraintSystem &Other,
                                    const std::vector<SetVar> &VarMap,
                                    const std::vector<Constant> &ConstMap,
                                    const std::vector<Selector> &SelMap) {
  Keys.reserve(Keys.size() + Other.NumBounds);
  for (SetVar A = 0; A < Other.Slots.size(); ++A) {
    if (Other.Slots[A] == NoSlot)
      continue;
    SetVar MA = VarMap[A];
    for (const LowerBound &L : Other.lowerBounds(A)) {
      if (L.K == LowerBound::Kind::ConstLB)
        insertLowerRaw(MA, LowerBound::constant(ConstMap[L.C]));
      else
        insertLowerRaw(
            MA, LowerBound::selector(SelMap[L.Sel], VarMap[L.Other]));
    }
    for (const UpperBound &U : Other.upperBounds(A)) {
      if (U.K == UpperBound::Kind::VarUB)
        insertUpperRaw(MA, UpperBound::var(VarMap[U.Other]));
      else if (U.K == UpperBound::Kind::FilterUB)
        insertUpperRaw(MA, UpperBound::filter(U.Sel, VarMap[U.Other]));
      else
        insertUpperRaw(
            MA, UpperBound::selector(SelMap[U.Sel], VarMap[U.Other]));
    }
  }
}

std::string ConstraintSystem::str() const {
  // Bounds print in canonical (key-sorted) order, not storage order, so
  // the rendering depends only on the closed bound set, not on the order
  // the drain discovered it in (see lowerBoundLess).
  std::ostringstream OS;
  const SelectorTable &Sels = Ctx->Selectors;
  std::vector<LowerBound> Lows;
  std::vector<UpperBound> Ups;
  for (SetVar A = 0; A < Slots.size(); ++A) {
    if (Slots[A] == NoSlot)
      continue;
    const std::vector<LowerBound> &RawLows = lowerBounds(A);
    Lows.assign(RawLows.begin(), RawLows.end());
    std::sort(Lows.begin(), Lows.end(), lowerBoundLess);
    const std::vector<UpperBound> &RawUps = upperBounds(A);
    Ups.assign(RawUps.begin(), RawUps.end());
    std::sort(Ups.begin(), Ups.end(), upperBoundLess);
    for (const LowerBound &L : Lows) {
      if (L.K == LowerBound::Kind::ConstLB) {
        OS << "c" << L.C << " <= a" << A << "\n";
      } else if (Sels.isMonotone(L.Sel)) {
        OS << "a" << L.Other << " <= " << Sels.name(L.Sel) << "(a" << A
           << ")\n";
      } else {
        OS << Sels.name(L.Sel) << "(a" << A << ") <= a" << L.Other << "\n";
      }
    }
    for (const UpperBound &U : Ups) {
      if (U.K == UpperBound::Kind::VarUB) {
        OS << "a" << A << " <= a" << U.Other << "\n";
      } else if (U.K == UpperBound::Kind::FilterUB) {
        OS << "a" << A << " <=[" << std::hex << U.Sel << std::dec << "] a"
           << U.Other << "\n";
      } else if (Sels.isMonotone(U.Sel)) {
        OS << Sels.name(U.Sel) << "(a" << A << ") <= a" << U.Other << "\n";
      } else {
        OS << "a" << U.Other << " <= " << Sels.name(U.Sel) << "(a" << A
           << ")\n";
      }
    }
  }
  return OS.str();
}
