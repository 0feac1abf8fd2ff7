//===-- query/query_engine.cpp --------------------------------*- C++ -*-===//

#include "query/query_engine.h"

#include "constraints/const_kind.h"
#include "debugger/checks.h"

#include <algorithm>
#include <cstring>

using namespace spidey;

namespace {

/// splitmix64's finalizer: a bijection on 64-bit words in which every
/// input bit reaches every output bit.
uint64_t finalize(uint64_t X) {
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Folds one 64-bit word into a running hash: one multiply and one
/// xor-shift per word, and a bijection in either argument.
uint64_t mix(uint64_t H, uint64_t X) {
  H = (H ^ X) * 0x9E3779B97F4A7C15ull;
  return H ^ (H >> 32);
}

uint64_t mixStr(uint64_t H, const std::string &S) {
  size_t I = 0;
  for (; I + 8 <= S.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, S.data() + I, 8);
    H = mix(H, W);
  }
  uint64_t Tail = 0;
  std::memcpy(&Tail, S.data() + I, S.size() - I);
  return mix(mix(H, Tail), S.size());
}

} // namespace

void QueryEngine::rebind(Program &NewP, ComponentialAnalyzer &NewCA,
                         CancelToken *NewTok, bool IsVolatile,
                         bool AllowCache, std::string FP) {
  P = &NewP;
  CA = &NewCA;
  Tok = NewTok;
  Volatile = IsVolatile;
  AllowVerdictCache = AllowCache;
  OptionsFP = std::move(FP);
  Index.clear();
  IndexReady = false;
  NameIndex.clear();
  NameIndexReady = false;
  RegionParent.clear();
  RegionOrdinal.clear();
  RootDigest.clear();
  RegionsReady = false;
}

void QueryEngine::ensureIndex() {
  if (IndexReady)
    return;
  Index.build(CA->combined());
  IndexReady = true;
  ++Stats.IndexBuilds;
}

void QueryEngine::ensureNameIndex() {
  if (NameIndexReady)
    return;
  // First definition wins, matching the legacy ascending-VarId scan.
  for (VarId V = 0; V < P->numVars(); ++V) {
    const VarInfo &Info = P->var(V);
    if (Info.TopLevel)
      NameIndex.emplace(Info.Name, V);
  }
  NameIndexReady = true;
  ++Stats.NameIndexBuilds;
}

uint64_t QueryEngine::regionDigest(SetVar V) const {
  return V < RootDigest.size() ? RootDigest[RegionParent[V]] : 0;
}

uint32_t QueryEngine::ordinalOf(SetVar V) const {
  return V < RegionOrdinal.size() ? RegionOrdinal[V] : ~0u;
}

void QueryEngine::ensureRegions() {
  if (RegionsReady)
    return;
  ++Stats.RegionSweeps;
  const ConstraintSystem &S = CA->combined();
  const ConstraintContext &Ctx = S.context();

  // Pass 1: union-find over the undirected bound graph. Every bound kind
  // unites its endpoints — closure only ever creates facts between
  // already-connected variables, so a region fully determines every
  // closed fact about its members. Representative = lowest member, so
  // identical systems produce identical roots.
  size_t N = Ctx.numVars();
  RegionParent.resize(N);
  for (size_t I = 0; I < N; ++I)
    RegionParent[I] = static_cast<SetVar>(I);
  // Links only ever point to a lower id, and path halving keeps that.
  auto find = [&](SetVar V) {
    while (RegionParent[V] != V) {
      RegionParent[V] = RegionParent[RegionParent[V]];
      V = RegionParent[V];
    }
    return V;
  };
  auto unite = [&](SetVar A, SetVar B) {
    if (A >= N || B >= N)
      return;
    SetVar Ra = find(A), Rb = find(B);
    if (Rb < Ra)
      std::swap(Ra, Rb);
    RegionParent[Rb] = Ra;
  };
  std::vector<SetVar> Vars = S.variables();
  for (SetVar A : Vars) {
    for (const LowerBound &L : S.lowerBounds(A))
      if (L.K == LowerBound::Kind::SelLB && L.Other != NoSetVar)
        unite(A, L.Other);
    for (const UpperBound &U : S.upperBounds(A))
      if (U.Other != NoSetVar)
        unite(A, U.Other);
  }
  // Every link points down, so one ascending pass leaves each variable
  // pointing straight at its root: a variable's parent is lower and has
  // already been pointed at the root.
  for (size_t I = 0; I < N; ++I)
    RegionParent[I] = RegionParent[RegionParent[I]];

  // Region-local ordinals: each variable's rank within its region, in
  // ascending id order. The merge numbers every component's externals
  // ahead of the public blocks, so adding one top-level name anywhere
  // shifts all later ids by one; ordinals are invariant under that shift
  // (relative order within a region is preserved), which is what lets
  // digests — and the memo caches keyed on them — survive warm edits.
  RegionOrdinal.resize(N);
  {
    std::vector<uint32_t> Next(N, 0); // per root: members seen so far
    for (size_t I = 0; I < N; ++I)
      RegionOrdinal[I] = Next[RegionParent[I]]++;
  }

  // Pass 2: the digests. Constants and selectors enter by content — kind,
  // arity, location, label and selector-name spellings — not by table
  // index, so a renumbered-but-identical table entry can never alias a
  // changed one; each is hashed once per generation.
  const ConstantTable &Consts = Ctx.Constants;
  const SelectorTable &Sels = Ctx.Selectors;
  std::vector<uint64_t> ConstHash(Consts.size());
  for (Constant C = 0; C < ConstHash.size(); ++C) {
    const ConstantInfo &Info = Consts.info(C);
    uint64_t H = mix(static_cast<uint64_t>(Info.K), Info.Arity);
    H = mix(H, (uint64_t(Info.Loc.File) << 40) |
                   (uint64_t(Info.Loc.Line) << 16) | Info.Loc.Col);
    if (Info.Label != InvalidSymbol)
      H = mixStr(H, P->Syms.name(Info.Label));
    ConstHash[C] = H;
  }
  std::vector<uint64_t> SelHash(Sels.size());
  for (Selector Sel = 0; Sel < SelHash.size(); ++Sel)
    SelHash[Sel] = mix(mixStr(0, Sels.name(Sel)),
                       static_cast<uint64_t>(Sels.polarity(Sel)));

  // A variable's hash is its ordinal plus a wrapping sum over its bounds,
  // so the bound lists are read in place, in whatever order the engine
  // discovered them. Each bound hash goes through the full finalizer
  // first: a sum of weakly mixed terms could cancel, and a digest
  // collision would reuse a stale verdict. Variables enter as
  // region-local ordinals (endpoints of any bound always share a region —
  // pass 1 united exactly those edges), and fold into their root's digest
  // in ascending id order.
  RootDigest.assign(N, 0);
  for (SetVar A : Vars) {
    if (A >= N)
      continue;
    uint64_t Sum = 0;
    for (const LowerBound &L : S.lowerBounds(A)) {
      uint64_t H = L.K == LowerBound::Kind::ConstLB
                       ? mix(1, ConstHash[L.C])
                       : mix(mix(2, SelHash[L.Sel]), ordinalOf(L.Other));
      Sum += finalize(H);
    }
    for (const UpperBound &U : S.upperBounds(A)) {
      // VarUB: Sel is 0; FilterUB: a KindMask, stable raw.
      uint64_t Payload = U.K == UpperBound::Kind::SelUB ? SelHash[U.Sel]
                                                         : U.Sel;
      uint64_t H = mix(mix(8 + static_cast<uint64_t>(U.K), Payload),
                       ordinalOf(U.Other));
      Sum += finalize(H);
    }
    uint64_t &D = RootDigest[RegionParent[A]];
    D = mix(mix(D, ordinalOf(A)), Sum);
  }
  RegionsReady = true;
}

uint64_t QueryEngine::regionKeyOf(uint32_t I) {
  ensureRegions();
  // Anchors enter as (region digest, ordinal-within-region): which
  // regions the component reads and where in them it is anchored. Raw
  // ids would re-key every component whenever the merge renumbers.
  std::vector<SetVar> Ext = CA->externalsOf(I);
  std::vector<std::pair<uint64_t, uint64_t>> Items;
  Items.reserve(Ext.size());
  for (SetVar V : Ext)
    Items.emplace_back(regionDigest(V), ordinalOf(V));
  std::sort(Items.begin(), Items.end());
  Items.erase(std::unique(Items.begin(), Items.end()), Items.end());
  uint64_t H = 0;
  for (const auto &[D, O] : Items)
    H = mix(mix(H, D), O);
  return H;
}

QueryEngine::FlowAnswer QueryEngine::flow(const std::string &Name) {
  ++Stats.FlowQueries;
  ensureNameIndex();
  FlowAnswer Ans;
  Symbol Sym = P->Syms.lookup(Name);
  auto It = Sym == InvalidSymbol ? NameIndex.end() : NameIndex.find(Sym);
  if (It == NameIndex.end())
    return Ans; // Found=false: no top-level definition of that name
  Ans.Found = true;
  SetVar A = CA->maps().varVar(It->second);
  Ans.Var = A;

  uint64_t Digest = 0;
  uint32_t Ord = 0;
  bool Memoizable = !Volatile && A != NoSetVar;
  if (Memoizable) {
    ensureRegions();
    Digest = regionDigest(A);
    Ord = ordinalOf(A);
    auto M = FlowMemo.find(Name);
    // A memo is reusable when the name still anchors at the same ordinal
    // of a structurally-unchanged region — raw ids may have been shifted
    // by the merge, so the answer's Var field is refreshed from this
    // generation's resolution.
    if (M != FlowMemo.end() && M->second.RegionDigest == Digest &&
        M->second.AnchorOrdinal == Ord) {
      ++Stats.FlowMemoHits;
      FlowAnswer Out = M->second.Answer;
      Out.Var = A;
      Out.FromSummary = true;
      return Out;
    }
  }

  const ConstraintSystem &S = CA->combined();
  for (Constant C : S.constantsOf(A))
    Ans.Kinds.push_back(constKindName(S.context().Constants.kind(C)));
  std::sort(Ans.Kinds.begin(), Ans.Kinds.end());
  Ans.Kinds.erase(std::unique(Ans.Kinds.begin(), Ans.Kinds.end()),
                  Ans.Kinds.end());

  ensureIndex();
  Ans.Parents = Index.parents(A).size();
  Ans.Children = Index.children(A).size();
  FlowIndex::Reach Anc = Index.ancestors(A, Tok);
  Ans.Ancestors = Anc.Count;
  if (Anc.Complete) {
    FlowIndex::Reach Desc = Index.descendants(A, Tok);
    Ans.Descendants = Desc.Count;
    Ans.Degraded = !Desc.Complete;
  } else {
    Ans.Degraded = true;
  }

  if (Ans.Degraded)
    ++Stats.DegradedQueries;
  else if (Memoizable)
    FlowMemo[Name] = FlowMemoEntry{Digest, Ord, Ans};
  return Ans;
}

QueryEngine::SummaryAnswer QueryEngine::checkSummary() {
  SummaryAnswer Out;
  const Program &Prog = *P;
  bool UseCache = !Volatile && AllowVerdictCache;

  struct Piece {
    bool Valid = false;
    size_t Possible = 0, Unsafe = 0;
    std::vector<std::string> Lines;
  };
  std::vector<Piece> Pieces(Prog.Components.size());

  for (uint32_t I = 0; I < Prog.Components.size(); ++I) {
    if (Tok && Tok->cancelled()) {
      Out.Partial = true;
      break;
    }
    const Component &C = Prog.Components[I];
    std::string Key, SrcHash;
    uint64_t RKey = 0;
    if (UseCache) {
      Key = std::to_string(I) + ":" + C.Name;
      SrcHash = CA->sourceHash(I);
      RKey = regionKeyOf(I);
      auto It = Verdicts.find(Key);
      if (It != Verdicts.end() && It->second.SourceHash == SrcHash &&
          It->second.OptionsFP == OptionsFP &&
          It->second.RegionKey == RKey) {
        Piece &Pc = Pieces[I];
        Pc.Valid = true;
        Pc.Possible = It->second.Possible;
        Pc.Unsafe = It->second.Unsafe;
        Pc.Lines = It->second.UnsafeLines;
        ++Out.Reused;
        ++Stats.VerdictsReused;
        continue;
      }
    }

    std::unique_ptr<ConstraintSystem> Full = CA->reconstruct(I);
    if (Full->closureCancelled()) {
      Out.Partial = true;
      break;
    }
    // Only component I's own sites: the sites earlier reconstructs of this
    // generation recorded are precise only in their own reconstructions.
    DebugReport Part = runChecks(Prog, CA->maps(), *Full, I);
    Piece &Pc = Pieces[I];
    Pc.Valid = true;
    for (const CheckResult &CR : Part.Results) {
      ++Pc.Possible;
      if (!CR.Safe) {
        ++Pc.Unsafe;
        Pc.Lines.push_back(DebugReport::unsafeLine(CR, Prog));
      }
    }
    ++Out.Rechecked;
    ++Stats.ComponentsRechecked;
    // Completed verdicts are exact even when a later component trips the
    // token, so cache them unconditionally (under UseCache).
    if (UseCache)
      Verdicts[Key] = VerdictMemoEntry{std::move(SrcHash), OptionsFP, RKey,
                                       Pc.Possible, Pc.Unsafe, Pc.Lines};
  }

  // Assemble in component order: per-component line blocks concatenate to
  // the same byte sequence a monolithic runChecks sweep renders, because
  // within one component the verdict order is the (deterministic) check-
  // site recording order of that component's reconstruction.
  std::string Body;
  for (const Piece &Pc : Pieces) {
    if (!Pc.Valid)
      continue;
    Out.Possible += Pc.Possible;
    Out.Unsafe += Pc.Unsafe;
    for (const std::string &L : Pc.Lines)
      Body += L;
  }
  Out.Summary =
      "CHECKS:\n" + Body + DebugReport::totalLine(Out.Unsafe, Out.Possible);
  return Out;
}
