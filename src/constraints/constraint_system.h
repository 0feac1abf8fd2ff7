//===-- constraints/constraint_system.h - Simple systems + Θ --*- C++ -*-===//
///
/// \file
/// Simple constraint systems (§2.2/§2.7) and their closure under the rules
/// Θ = {s1..s5} (fig. 2.3, generalized to arbitrary selectors per
/// fig. 3.1).
///
/// Following §2.7.1, a system is represented as per-variable lower and
/// upper bound lists:
///
///   lower bounds of α:  c ≤ α            (ConstLB)
///                       β ≤ s⁺(α)        (SelLB, monotone s)
///                       s⁻(α) ≤ β        (SelLB, anti-monotone s)
///   upper bounds of α:  α ≤ β            (VarUB, the ε-constraints)
///                       s⁺(α) ≤ β        (SelUB, monotone s)
///                       β ≤ s⁻(α)        (SelUB, anti-monotone s)
///
/// The closure rules combine a lower and an upper bound of the same
/// variable (the paper's `combine!`):
///
///   (s1–s3)  L,  α ≤ γ              ⟹  L becomes a lower bound of γ
///   (s4)     β ≤ s⁺(α), s⁺(α) ≤ γ   ⟹  β ≤ γ
///   (s5)     s⁻(α) ≤ γ, β ≤ s⁻(α)   ⟹  β ≤ γ
///
/// The system is kept closed incrementally: every public add re-closes via
/// an explicit worklist (the paper's add-lower-bound+close!).
///
/// Closure engine v2 (see DESIGN.md "Closure engine v2"):
///
///  - ε-cycle elimination: variables connected by a cycle of VarUB
///    ε-constraints provably have identical lower-bound sets in the closed
///    system, so a union-find merges each ε-SCC onto one deterministic
///    representative (the lowest SetVar) and the lower bounds are stored
///    once at the representative. Cycles are found both offline (Tarjan
///    SCC at close()) and online (bounded Fähndrich-style partial search
///    when a closing add links two representatives). Upper bounds stay on
///    their original variable, and all queries (lowerBounds, str(),
///    serialization, size()) present the system *through* the
///    representative map, so observable results are identical to a
///    per-variable engine.
///
///  - Indexed bounds: once a representative's lower-bound list is large,
///    it is bucketed by selector and by constant kind, so a SelUB combine
///    touches only the matching selector bucket and a FilterUB mask skips
///    whole non-matching kind groups.
///
///  - Exactly-once combination: per-representative and per-member
///    high-water marks (lows/ups already combined) make the drain combine
///    each (L, U) pair precisely once instead of up to twice.
///
/// Storage layout: set variables are small consecutive integers handed out
/// by one ConstraintContext, so the per-variable slot table is a dense
/// vector indexed by SetVar (no hashing on the hot path), and bound
/// deduplication goes through a single open-addressing flat set keyed on
/// (variable, packed bound) rather than two heap-allocated hash sets per
/// variable.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_CONSTRAINTS_CONSTRAINT_SYSTEM_H
#define SPIDEY_CONSTRAINTS_CONSTRAINT_SYSTEM_H

#include "constraints/core.h"
#include "support/cancel.h"

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace spidey {

/// A lower bound of some variable α.
struct LowerBound {
  enum class Kind : uint8_t { ConstLB, SelLB };
  Kind K;
  Constant C = 0;          ///< ConstLB
  Selector Sel = 0;        ///< SelLB
  SetVar Other = NoSetVar; ///< SelLB: the β above

  static LowerBound constant(Constant C) {
    return {Kind::ConstLB, C, 0, NoSetVar};
  }
  static LowerBound selector(Selector S, SetVar B) {
    return {Kind::SelLB, 0, S, B};
  }
  friend bool operator==(const LowerBound &A, const LowerBound &B) {
    return A.K == B.K && A.C == B.C && A.Sel == B.Sel && A.Other == B.Other;
  }
};

/// An upper bound of some variable α.
struct UpperBound {
  enum class Kind : uint8_t {
    VarUB,
    SelUB,
    /// FilterUB: a *conditional* ε-constraint α ≤_M β that passes only the
    /// values whose constant kinds are in the mask M (stored in Sel).
    /// Produced by the analysis for predicate-guarded branches
    /// ((if (pair? x) ...)) — MrSpidey's primitive filters (App. E.5,
    /// §5.4's filter facility).
    FilterUB,
  };
  Kind K;
  Selector Sel = 0;        ///< SelUB: selector; FilterUB: the KindMask
  SetVar Other = NoSetVar; ///< all kinds: the β/γ above

  static UpperBound var(SetVar B) { return {Kind::VarUB, 0, B}; }
  static UpperBound selector(Selector S, SetVar B) {
    return {Kind::SelUB, S, B};
  }
  static UpperBound filter(KindMask M, SetVar B) {
    return {Kind::FilterUB, M & ValidKindMask, B};
  }
  friend bool operator==(const UpperBound &A, const UpperBound &B) {
    return A.K == B.K && A.Sel == B.Sel && A.Other == B.Other;
  }
};

/// Open-addressing flat set of (variable, packed-bound) pairs: the
/// deduplication index for every bound a system stores. Linear probing,
/// power-of-two capacity, no tombstones (bounds are never removed).
class BoundKeySet {
public:
  /// Returns true if (Var, Key) was newly inserted.
  bool insert(SetVar Var, uint64_t Key) {
    if (Table.empty())
      rehash(64);
    size_t Mask = Table.size() - 1;
    size_t I = hashOf(Var, Key) & Mask;
    while (Table[I].Key != EmptyKey) {
      if (Table[I].Key == Key && Table[I].Var == Var)
        return false;
      I = (I + 1) & Mask;
    }
    Table[I] = {Key, Var};
    ++Count;
    if (Count * 4 >= Table.size() * 3)
      rehash(Table.size() * 2);
    return true;
  }

  bool contains(SetVar Var, uint64_t Key) const {
    if (Table.empty())
      return false;
    size_t Mask = Table.size() - 1;
    size_t I = hashOf(Var, Key) & Mask;
    while (Table[I].Key != EmptyKey) {
      if (Table[I].Key == Key && Table[I].Var == Var)
        return true;
      I = (I + 1) & Mask;
    }
    return false;
  }

  void reserve(size_t N) {
    size_t Cap = 64;
    while (Cap * 3 < N * 4)
      Cap *= 2;
    if (Cap > Table.size())
      rehash(Cap);
  }

  size_t size() const { return Count; }

private:
  /// Packed bounds use 3 tag bits at the top (values 0-4), so all-ones is
  /// never a valid key.
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  struct Entry {
    uint64_t Key = EmptyKey;
    SetVar Var = 0;
  };

  static size_t hashOf(SetVar Var, uint64_t Key) {
    uint64_t X = Key ^ (uint64_t(Var) * 0x9E3779B97F4A7C15ull);
    X ^= X >> 33;
    X *= 0xFF51AFD7ED558CCDull;
    X ^= X >> 33;
    X *= 0xC4CEB9FE1A85EC53ull;
    X ^= X >> 33;
    return static_cast<size_t>(X);
  }

  void rehash(size_t NewCap) {
    std::vector<Entry> Old = std::move(Table);
    Table.assign(NewCap, Entry{});
    size_t Mask = NewCap - 1;
    for (const Entry &E : Old) {
      if (E.Key == EmptyKey)
        continue;
      size_t I = hashOf(E.Var, E.Key) & Mask;
      while (Table[I].Key != EmptyKey)
        I = (I + 1) & Mask;
      Table[I] = E;
    }
    Table.shrink_to_fit();
  }

  std::vector<Entry> Table;
  size_t Count = 0;
};

/// Solver telemetry, accumulated over a system's lifetime. Aggregated
/// across per-component systems by the componential analyzer and printed
/// by the benches, spidey-analyze --stats, and spidey-fuzz.
struct ClosureStats {
  /// Dirty representatives popped off the worklist and processed.
  uint64_t TasksDrained = 0;
  /// (L, U) pairs handed to a Θ rule. With bucketed storage, SelUB and
  /// FilterUB combines only attempt pairs that can match, so this counts
  /// useful work, not scans.
  uint64_t CombinesAttempted = 0;
  /// Combines that produced a bound not already in the system.
  uint64_t CombinesInserted = 0;
  /// Insert probes (combines or adds) that found the bound already
  /// present.
  uint64_t DedupHits = 0;
  /// Cross-representative ε-edges recorded for online cycle search.
  uint64_t EpsEdges = 0;
  /// ε-SCC collapse events (each merges ≥2 representatives).
  uint64_t EpsSccsCollapsed = 0;
  /// Variables folded into another representative by collapses.
  uint64_t VarsUnified = 0;
  /// Edges examined by the bounded online cycle search.
  uint64_t CycleSearchSteps = 0;
  /// High-water mark of the representative worklist.
  uint64_t PeakWorklistDepth = 0;

  double dedupHitRate() const {
    uint64_t Probes = CombinesInserted + DedupHits;
    return Probes ? double(DedupHits) / double(Probes) : 0.0;
  }

  void merge(const ClosureStats &O) {
    TasksDrained += O.TasksDrained;
    CombinesAttempted += O.CombinesAttempted;
    CombinesInserted += O.CombinesInserted;
    DedupHits += O.DedupHits;
    EpsEdges += O.EpsEdges;
    EpsSccsCollapsed += O.EpsSccsCollapsed;
    VarsUnified += O.VarsUnified;
    CycleSearchSteps += O.CycleSearchSteps;
    if (O.PeakWorklistDepth > PeakWorklistDepth)
      PeakWorklistDepth = O.PeakWorklistDepth;
  }

  /// Human-readable multi-line rendering ("  key: value" lines).
  std::string str() const;
};

/// One record of a compiled constraint image: a single bound in a form
/// that can be replayed into any system with an offset remap. Variables
/// carrying QuantifiedFlag are dense indices 0..Q-1 into a block of fresh
/// variables reserved at replay time; plain variables pass through
/// unchanged. All payloads are 32-bit (SetVar, Constant, Selector and
/// KindMask are all uint32_t), so a record is four words of POD.
struct BulkConstraint {
  enum class Kind : uint32_t { ConstLow, SelLow, VarUp, SelUp, FilterUp };
  Kind K = Kind::ConstLow;
  SetVar A = NoSetVar; ///< the bounded variable (encoded)
  uint32_t B = 0;      ///< partner variable (encoded) or Constant payload
  uint32_t Sel = 0;    ///< Selector, or KindMask for FilterUp

  /// Encoded-variable tag: set on quantified variables, whose low bits
  /// are the dense index into the replay block.
  static constexpr SetVar QuantifiedFlag = SetVar(1) << 31;

  static SetVar decode(SetVar V, SetVar Base) {
    return V & QuantifiedFlag ? Base + (V & ~QuantifiedFlag) : V;
  }
};

/// A simple constraint system, kept closed under Θ.
///
/// Set variables are owned by the shared ConstraintContext; a system only
/// stores bounds for the variables it mentions. Multiple systems over the
/// same context can coexist (per-component systems, simplified copies).
class ConstraintSystem {
public:
  explicit ConstraintSystem(ConstraintContext &Ctx) : Ctx(&Ctx) {}

  ConstraintSystem(ConstraintSystem &&) = default;
  ConstraintSystem &operator=(ConstraintSystem &&) = default;

  /// An independent deep copy of the complete closure state: slots, bound
  /// lists, the ε-SCC union-find and member lists, low buckets, dedup
  /// keys, the exactly-once high-water marks and any pending worklist. A
  /// clone of a closed system is therefore closed too, and adds on it
  /// continue the online closure from the fixpoint — nothing is
  /// re-inserted or re-combined. A clone of a system whose drain a token
  /// cut short resumes to the exact fixpoint with close(), which re-marks
  /// every representative. The clone starts with no token, zero stats(),
  /// and closureCancelled() false. Copying is explicit on purpose: the
  /// copy constructor is deleted, so no system is copied by accident.
  ConstraintSystem clone() const;

  ConstraintContext &context() const { return *Ctx; }

  //===------------------------------------------------------------------===
  // Closing adders (the paper's add-*-bound+close!).
  //===------------------------------------------------------------------===

  /// Adds c ≤ α.
  void addConstLower(SetVar A, Constant C) {
    if (insertLower(A, LowerBound::constant(C)))
      drain();
  }
  /// Adds β ≤ s(α) for monotone s, or s(α) ≤ β for anti-monotone s.
  void addSelLower(SetVar A, Selector S, SetVar B) {
    if (insertLower(A, LowerBound::selector(S, B)))
      drain();
  }
  /// Adds the ε-constraint α ≤ β.
  void addVarUpper(SetVar A, SetVar B) {
    if (insertUpper(A, UpperBound::var(B)))
      drain();
  }
  /// Adds s(α) ≤ β for monotone s, or β ≤ s(α) for anti-monotone s.
  void addSelUpper(SetVar A, Selector S, SetVar B) {
    if (insertUpper(A, UpperBound::selector(S, B)))
      drain();
  }
  /// Adds the conditional constraint α ≤_M β.
  void addFilterUpper(SetVar A, KindMask M, SetVar B) {
    if (insertUpper(A, UpperBound::filter(M, B)))
      drain();
  }

  /// Replays \p N compiled records with quantified variables remapped to
  /// the block starting at \p Base (see BulkConstraint). Each record goes
  /// through the same insert+drain sequence as the closing adders above,
  /// so the resulting system is bit-for-bit what per-record adds would
  /// build; the bulk path only pre-sizes the dedup table and skips the
  /// per-bound substitution machinery of the caller.
  void addBulk(const BulkConstraint *Recs, size_t N, SetVar Base);

  //===------------------------------------------------------------------===
  // Raw adders: insert without closing (for building systems to be closed
  // later, e.g. deserialized constraint files or simplified systems).
  //===------------------------------------------------------------------===

  void addConstLowerRaw(SetVar A, Constant C) {
    insertLowerRaw(A, LowerBound::constant(C));
  }
  void addSelLowerRaw(SetVar A, Selector S, SetVar B) {
    insertLowerRaw(A, LowerBound::selector(S, B));
  }
  void addVarUpperRaw(SetVar A, SetVar B) {
    insertUpperRaw(A, UpperBound::var(B));
  }
  void addSelUpperRaw(SetVar A, Selector S, SetVar B) {
    insertUpperRaw(A, UpperBound::selector(S, B));
  }
  void addFilterUpperRaw(SetVar A, KindMask M, SetVar B) {
    insertUpperRaw(A, UpperBound::filter(M, B));
  }

  /// Closes the system under Θ (needed only after raw adds).
  void close();

  //===------------------------------------------------------------------===
  // Cooperative cancellation. With a token attached, the worklist drain
  // polls it (charging one unit per combine attempted) and unwinds once
  // the token cancels, leaving the system *partially* closed. A partially
  // closed system is internally consistent — every stored bound is real —
  // but not a fixpoint; closureCancelled() tells the caller the result is
  // degraded and must not be cached or trusted as complete.
  //===------------------------------------------------------------------===

  /// Attaches (or detaches, with nullptr) a cancellation token. Not
  /// owned; must outlive every subsequent add/close on this system.
  void setCancel(CancelToken *T) { Cancel = T; }

  /// True if any drain on this system was aborted by its token.
  bool closureCancelled() const { return CancelLatched; }

  //===------------------------------------------------------------------===
  // Queries. All queries present the closed system through the
  // representative map: members of a collapsed ε-cycle report the cycle's
  // shared lower-bound list as their own.
  //===------------------------------------------------------------------===

  /// All variables this system mentions (has any bound for, or appearing
  /// on the far side of a bound), sorted ascending. Linear in the stored
  /// bounds: the slot scan emits owners in order, and only far-side
  /// variables that own no slot are sorted and merged in.
  std::vector<SetVar> variables() const;

  const std::vector<LowerBound> &lowerBounds(SetVar A) const {
    static const std::vector<LowerBound> Empty;
    uint32_t Slot = slotOf(findConst(A));
    return Slot == NoSlot ? Empty : Storage[Slot].Lows;
  }
  const std::vector<UpperBound> &upperBounds(SetVar A) const {
    static const std::vector<UpperBound> Empty;
    uint32_t Slot = slotOf(A);
    return Slot == NoSlot ? Empty : Storage[Slot].Ups;
  }

  /// True if c ≤ α is in the (closed) system, i.e. S ⊢Θ c ≤ α.
  bool hasConstLower(SetVar A, Constant C) const {
    return Keys.contains(findConst(A), lowKey(LowerBound::constant(C)));
  }

  /// The constants of α in the closed system: {c | S ⊢Θ c ≤ α}. This is
  /// const(LeastSoln(S)(α)) by Theorem 2.6.5.
  std::vector<Constant> constantsOf(SetVar A) const;

  /// Total number of stored constraints, counting a collapsed cycle's
  /// shared lower bounds once per member (i.e. the size of the system a
  /// per-variable engine would store — each presented bound counted once).
  size_t size() const { return NumBounds; }

  /// Number of variables with at least one bound list.
  size_t numTouchedVars() const { return Storage.size(); }

  /// Solver counters accumulated so far (never reset).
  const ClosureStats &stats() const { return Stats; }

  /// Copies every constraint of \p Other, which shares this system's
  /// context, into this system (raw); call close() afterwards.
  /// Constraints are copied in ascending variable order, so the result is
  /// deterministic for a given \p Other.
  void absorbRaw(const ConstraintSystem &Other);

  /// Renders the system for debugging/tests, one constraint per line.
  std::string str() const;

  /// Canonical presentation order for bound lists. Sorting a variable's
  /// bounds by these keys makes rendered/serialized output a pure
  /// function of the closed bound *set* (which is a unique fixpoint),
  /// not of the order the engine discovered the bounds in: online and
  /// offline closes of the same constraints render the same bytes, and
  /// every stored constraint file is written in this order.
  static bool lowerBoundLess(const LowerBound &A, const LowerBound &B) {
    return lowKey(A) < lowKey(B);
  }
  static bool upperBoundLess(const UpperBound &A, const UpperBound &B) {
    return upKey(A) < upKey(B);
  }

private:
  /// Per-selector / per-constant-kind index buckets over a
  /// representative's lower-bound list; built lazily once the list is
  /// large enough that scanning it per combine costs more than keeping
  /// the index. Each bucket holds ascending indices into Lows.
  struct LowBuckets {
    std::vector<std::pair<Selector, std::vector<uint32_t>>> BySel;
    std::vector<std::pair<uint8_t, std::vector<uint32_t>>> ByKind;
  };

  struct VarBounds {
    VarBounds() = default;
    VarBounds(VarBounds &&) = default;
    VarBounds &operator=(VarBounds &&) = default;
    /// Deep copy for clone(): the bucket index is duplicated, not shared.
    VarBounds(const VarBounds &O)
        : Lows(O.Lows), Ups(O.Ups), Members(O.Members),
          Buckets(O.Buckets ? std::make_unique<LowBuckets>(*O.Buckets)
                            : nullptr),
          LowsDone(O.LowsDone), UpsDone(O.UpsDone),
          InWorklist(O.InWorklist), Dirty(O.Dirty) {}

    std::vector<LowerBound> Lows; ///< meaningful only at a representative
    std::vector<UpperBound> Ups;  ///< always per original variable
    /// Members of this representative's ε-SCC (ascending, including the
    /// representative itself); empty means the singleton {self}.
    std::vector<SetVar> Members;
    std::unique_ptr<LowBuckets> Buckets; ///< representative-only, lazy
    /// High-water marks for the exactly-once drain: lows [0, LowsDone)
    /// of the representative have been combined against ups
    /// [0, UpsDone) of each member.
    uint32_t LowsDone = 0;
    uint32_t UpsDone = 0;
    bool InWorklist = false;
    bool Dirty = false;
  };
  // Storage grows by moving slots; a throwing move would make the vector
  // deep-copy every slot on each reallocation instead.
  static_assert(std::is_nothrow_move_constructible_v<VarBounds>);

  static constexpr uint32_t NoSlot = ~uint32_t(0);
  /// Lows list length at which the selector/kind buckets are built.
  static constexpr size_t BucketThreshold = 16;
  /// Edge budget for one online cycle search (partial search: exceeding
  /// the budget just misses the collapse; propagation stays correct).
  static constexpr uint64_t CycleSearchBudget = 128;
  /// Floor of the adaptive budget: a run of failed searches decays the
  /// per-edge budget down to this; any successful collapse restores it.
  static constexpr uint64_t CycleSearchBudgetMin = 8;

  uint32_t slotOf(SetVar A) const {
    return A < Slots.size() ? Slots[A] : NoSlot;
  }

  VarBounds &bounds(SetVar A) {
    if (A >= Slots.size())
      Slots.resize(static_cast<size_t>(A) + 1, NoSlot);
    uint32_t &Slot = Slots[A];
    if (Slot == NoSlot) {
      Slot = static_cast<uint32_t>(Storage.size());
      Storage.emplace_back();
    }
    return Storage[Slot];
  }

  //===------------------------------------------------------------------===
  // Union-find over ε-SCCs. Parent is grown lazily; a variable outside
  // the vector is its own representative. The representative of a merged
  // class is always its lowest member, which makes collapse results
  // independent of discovery order.
  //===------------------------------------------------------------------===

  SetVar find(SetVar V) {
    if (V >= Parent.size() || Parent[V] == V)
      return V;
    SetVar Root = Parent[V];
    while (Parent[Root] != Root)
      Root = Parent[Root];
    while (Parent[V] != Root) {
      SetVar Next = Parent[V];
      Parent[V] = Root;
      V = Next;
    }
    return Root;
  }

  SetVar findConst(SetVar V) const {
    while (V < Parent.size() && Parent[V] != V)
      V = Parent[V];
    return V;
  }

  size_t sccSizeOf(const VarBounds &B) const {
    return B.Members.empty() ? 1 : B.Members.size();
  }

  // Packed bound encodings for the dedup set: 3 tag bits (61-63, values
  // 0-4), 29 payload bits (32-60: constant, selector, or kind mask), and
  // the partner variable in the low 32 bits. Lower bounds are keyed under
  // the representative; upper bounds under their original variable.
  static uint64_t lowKey(const LowerBound &L) {
    return L.K == LowerBound::Kind::ConstLB
               ? (uint64_t(L.C) << 32)
               : (uint64_t(1) << 61) | (uint64_t(L.Sel) << 32) | L.Other;
  }
  static uint64_t upKey(const UpperBound &U) {
    return (uint64_t(2 + static_cast<uint8_t>(U.K)) << 61) |
           (uint64_t(U.Sel) << 32) | U.Other;
  }

  /// Returns true if newly inserted (and marks the representative dirty).
  bool insertLower(SetVar A, const LowerBound &L);
  bool insertUpper(SetVar A, const UpperBound &U);
  bool insertLowerRaw(SetVar A, const LowerBound &L);
  bool insertUpperRaw(SetVar A, const UpperBound &U);

  /// Appends L to a representative's lows, maintaining the buckets. Does
  /// not touch NumBounds or the dedup set.
  void appendLow(VarBounds &B, const LowerBound &L);
  void buildBuckets(VarBounds &B);

  /// Pushes R's representative onto the worklist if not already queued.
  void markDirty(SetVar R);

  /// Combines ups [0, UpsDone) of every member and all new ups against
  /// the representative's lows per the high-water marks, to a local fixed
  /// point (deferred collapses excepted).
  void processRep(SetVar R);

  /// Applies one Θ rule family for upper bound U of representative R
  /// against R's lows in index range [Begin, End).
  void combineRange(SetVar R, uint32_t SlotR, const UpperBound &U,
                    uint32_t Begin, uint32_t End);

  /// Resolves queued cross-representative ε-edges: bounded search for a
  /// path back to the source; collapses the cycle when one is found.
  void resolveEpsPending();

  /// Merges the ε-SCC formed by \p Roots (distinct representatives) onto
  /// its lowest member; migrates lows, members, and the virtual bound
  /// count, resets the low high-water mark, and requeues the survivor.
  void collapseCycle(std::vector<SetVar> Roots);

  /// Offline Tarjan SCC pass over the current representative ε-graph;
  /// collapses every non-trivial SCC. Run once per close().
  void collapseAllSccs();

  /// Processes dirty representatives and pending ε-edges to a fixed
  /// point.
  void drain();

  /// Charges the token for combine work done since the last poll and
  /// returns true once cancelled. Cheap when no token is attached; actual
  /// deadline checks happen at most once per PollStride combines unless
  /// \p Force.
  bool pollCancel(bool Force = false) {
    if (!Cancel)
      return false;
    if (CancelLatched)
      return true;
    uint64_t Delta = Stats.CombinesAttempted - ChargedCombines;
    if (!Force && Delta < PollStride)
      return false;
    ChargedCombines = Stats.CombinesAttempted;
    if (Cancel->charge(Delta))
      CancelLatched = true;
    return CancelLatched;
  }

  /// Combine-attempt interval between deadline checks in the inner drain
  /// loops (a deadline can overshoot by at most ~one stride of combines).
  static constexpr uint64_t PollStride = 1024;

  ConstraintContext *Ctx;
  std::vector<uint32_t> Slots; ///< SetVar -> index into Storage, or NoSlot
  std::vector<VarBounds> Storage;
  std::vector<SetVar> Parent; ///< union-find; identity outside the vector
  BoundKeySet Keys;
  std::vector<SetVar> Worklist; ///< dirty representatives (LIFO)
  std::vector<std::pair<SetVar, SetVar>> EpsPending;
  /// Online cycle-search scratch: epoch-stamped visit marks and DFS-tree
  /// parents, indexed by representative. Stamping makes the per-edge
  /// search O(budget) instead of O(budget x visited) and avoids clearing.
  uint64_t EpsSearchEpoch = 0;
  std::vector<uint64_t> EpsVisitEpoch;
  std::vector<SetVar> EpsVisitParent;
  /// Adaptive per-edge search budget: halved (down to CycleSearchBudgetMin)
  /// after every failed search, restored to CycleSearchBudget by a
  /// successful collapse. Dense acyclic graphs (call graphs) stop paying
  /// for searches that never find anything.
  uint64_t EpsSearchBudget = CycleSearchBudget;
  size_t NumBounds = 0;
  ClosureStats Stats;
  CancelToken *Cancel = nullptr; ///< not owned; null = never cancels
  bool CancelLatched = false;
  uint64_t ChargedCombines = 0; ///< combines charged to the token so far
};

} // namespace spidey

#endif // SPIDEY_CONSTRAINTS_CONSTRAINT_SYSTEM_H
