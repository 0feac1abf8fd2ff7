//===-- query/query_engine.cpp --------------------------------*- C++ -*-===//

#include "query/query_engine.h"

#include "constraints/const_kind.h"
#include "constraints/serialize.h"
#include "debugger/checks.h"

#include <algorithm>

using namespace spidey;

namespace {

constexpr uint64_t FnvOffset = 0xCBF29CE484222325ull;

uint64_t fnv1a(uint64_t H, uint64_t X) {
  for (int I = 0; I < 8; ++I) {
    H ^= (X >> (I * 8)) & 0xFF;
    H *= 0x100000001B3ull;
  }
  return H;
}

uint64_t fnv1aStr(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return fnv1a(H, S.size());
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

SetVar QueryEngine::regionRoot(SetVar V) const {
  while (V < RegionParent.size() && RegionParent[V] != V)
    V = RegionParent[V];
  return V;
}

uint64_t QueryEngine::regionDigest(SetVar V) const {
  auto It = RootDigest.find(regionRoot(V));
  return It == RootDigest.end() ? 0 : It->second;
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
  auto unite = [&](SetVar A, SetVar B) {
    if (A >= N || B >= N)
      return;
    SetVar Ra = regionRoot(A), Rb = regionRoot(B);
    if (Ra == Rb)
      return;
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

  // Region-local ordinals: each variable's rank within its region, in
  // ascending id order. The merge numbers every component's externals
  // ahead of the public blocks, so adding one top-level name anywhere
  // shifts all later ids by one; ordinals are invariant under that shift
  // (relative order within a region is preserved), which is what lets
  // digests — and the memo caches keyed on them — survive warm edits.
  RegionOrdinal.assign(N, 0);
  {
    std::unordered_map<SetVar, uint32_t> Next;
    for (size_t I = 0; I < N; ++I)
      RegionOrdinal[I] = Next[regionRoot(static_cast<SetVar>(I))]++;
  }

  // Pass 2: fold each variable's canonically-sorted bounds into its
  // region root's digest, in ascending variable order. Variables enter as
  // region-local ordinals (endpoints of any bound always share a region —
  // pass 1 united exactly those edges); constants and selectors enter by
  // content — kind, arity, location, label and selector-name spellings —
  // not by table index, so a renumbered-but-identical table entry can
  // never alias a changed one.
  RootDigest.clear();
  const ConstantTable &Consts = Ctx.Constants;
  const SelectorTable &Sels = Ctx.Selectors;
  auto foldConst = [&](uint64_t H, Constant C) {
    const ConstantInfo &Info = Consts.info(C);
    H = fnv1a(H, static_cast<uint64_t>(Info.K));
    H = fnv1a(H, Info.Arity);
    H = fnv1a(H, (uint64_t(Info.Loc.File) << 40) |
                     (uint64_t(Info.Loc.Line) << 16) | Info.Loc.Col);
    if (Info.Label != InvalidSymbol)
      H = fnv1aStr(H, P->Syms.name(Info.Label));
    return H;
  };
  auto foldSel = [&](uint64_t H, Selector Sel) {
    H = fnv1aStr(H, Sels.name(Sel));
    return fnv1a(H, static_cast<uint64_t>(Sels.polarity(Sel)));
  };
  S.forEachBoundSorted([&](SetVar A, const std::vector<LowerBound> &Lows,
                           const std::vector<UpperBound> &Ups) {
    uint64_t H = fnv1a(FnvOffset, ordinalOf(A));
    for (const LowerBound &L : Lows) {
      H = fnv1a(H, static_cast<uint64_t>(L.K));
      if (L.K == LowerBound::Kind::ConstLB)
        H = foldConst(H, L.C);
      else
        H = foldSel(H, L.Sel);
      H = fnv1a(H, ordinalOf(L.Other));
    }
    for (const UpperBound &U : Ups) {
      H = fnv1a(H, 8 + static_cast<uint64_t>(U.K));
      if (U.K == UpperBound::Kind::SelUB)
        H = foldSel(H, U.Sel);
      else
        H = fnv1a(H, U.Sel); // VarUB: 0; FilterUB: a KindMask, stable raw
      H = fnv1a(H, ordinalOf(U.Other));
    }
    uint64_t &Slot = RootDigest[regionRoot(A)];
    if (!Slot)
      Slot = FnvOffset;
    Slot = fnv1a(Slot, H);
  });
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
  uint64_t H = FnvOffset;
  for (const auto &[D, O] : Items) {
    H = fnv1a(H, D);
    H = fnv1a(H, O);
  }
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
      SrcHash = hashSource(C.SourceText);
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
