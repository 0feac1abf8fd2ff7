//===-- constraints/core.h - Set variables, constants, selectors -*- C++ -*-===//
///
/// \file
/// The vocabulary of the constraint language (§2.2, generalized per §3.1):
///
///  - SetVar: set variables α, β, γ. Allocated by a ConstraintContext so
///    that the constraint systems of all components of a program share one
///    variable namespace (needed when componential analysis combines them,
///    §7.1).
///  - Constant: interned abstract constants c — basic constants collapsed
///    per kind, plus per-site tags (function, continuation, unit, class,
///    object tags).
///  - Selector: interned selectors with a polarity bit. Sel⁺ (monotone):
///    rng, car, cdr, box⁺, vec⁺, ue, cl-obj, ivar⁺ z; Sel⁻ (anti-monotone):
///    dom i, box⁻, vec⁻, ui, ivar⁻ z.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_CONSTRAINTS_CORE_H
#define SPIDEY_CONSTRAINTS_CORE_H

#include "constraints/const_kind.h"
#include "support/source.h"
#include "support/symbol.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace spidey {

using SetVar = uint32_t;
using Constant = uint32_t;
using Selector = uint32_t;

inline constexpr SetVar NoSetVar = ~SetVar(0);

/// Whether a selector is monotone (Sel⁺) or anti-monotone (Sel⁻) in the
/// flow ordering ⊑ (§2.3.1, §3.1).
enum class Polarity : uint8_t { Monotone, AntiMonotone };

/// Metadata for one interned constant.
struct ConstantInfo {
  ConstKind K = ConstKind::Num;
  uint32_t Arity = 0;           ///< for FnTag: the function's arity
  SourceLoc Loc;                ///< for per-site tags: the construction site
  Symbol Label = InvalidSymbol; ///< optional display name
};

/// Interns constants. Basic kinds (Num..VecTag) get exactly one constant;
/// a struct tag gets one per declaration (location and label); the other
/// tag kinds get one per call to makeTag.
class ConstantTable {
public:
  ConstantTable() {
    // Pre-intern the basic constants so Constant(K) == index.
    for (unsigned K = 0; K <= static_cast<unsigned>(ConstKind::VecTag); ++K) {
      ConstantInfo Info;
      Info.K = static_cast<ConstKind>(K);
      Infos.push_back(Info);
    }
  }

  /// The unique constant of a basic kind (Num through VecTag).
  Constant basic(ConstKind K) const {
    assert(K <= ConstKind::VecTag && "not a basic kind");
    return static_cast<Constant>(K);
  }

  /// Interns a fresh per-site tag. A StructTag is interned by its
  /// declaration, so every component that builds or reads one structure,
  /// derived or committed from a constraint file, agrees on one tag.
  Constant makeTag(ConstKind K, uint32_t Arity, SourceLoc Loc,
                   Symbol Label = InvalidSymbol) {
    assert(K > ConstKind::VecTag && K < ConstKind::NumConstKinds);
    if (K == ConstKind::StructTag) {
      auto [It, Fresh] = StructTags.try_emplace(
          std::make_tuple(Loc.File, Loc.Line, Loc.Col, Label),
          static_cast<Constant>(Infos.size()));
      if (!Fresh)
        return It->second;
    }
    ConstantInfo Info;
    Info.K = K;
    Info.Arity = Arity;
    Info.Loc = Loc;
    Info.Label = Label;
    Infos.push_back(Info);
    return static_cast<Constant>(Infos.size() - 1);
  }

  const ConstantInfo &info(Constant C) const {
    assert(C < Infos.size());
    return Infos[C];
  }

  ConstKind kind(Constant C) const { return info(C).K; }

  size_t size() const { return Infos.size(); }

  /// Renders a constant for reports/tests, e.g. "num", "fn@3:2/1".
  std::string str(Constant C, const SymbolTable &Syms) const;

private:
  std::vector<ConstantInfo> Infos;
  /// (file, line, column, label) of a struct declaration -> its tag.
  std::map<std::tuple<uint32_t, uint32_t, uint32_t, Symbol>, Constant>
      StructTags;
};

/// Interns selectors. A selector is identified by a (base name, index)
/// pair; the index distinguishes `dom 0`, `dom 1`, ... and per-instance-
/// variable selectors.
class SelectorTable {
public:
  /// \p OwnerKinds: the constant kinds whose values carry this component
  /// (pairs for car/cdr, functions for dom/rng, ...); used by conditional
  /// filters to decide which components pass a kind test.
  Selector intern(std::string Name, Polarity P,
                  KindMask OwnerKinds = AnyKindMask) {
    auto It = Index.find(Name);
    if (It != Index.end()) {
      assert(Polarities[It->second] == P && "selector polarity mismatch");
      return It->second;
    }
    Selector S = static_cast<Selector>(Names.size());
    Names.push_back(Name);
    Polarities.push_back(P);
    Owners.push_back(OwnerKinds);
    Index.emplace(std::move(Name), S);
    return S;
  }

  KindMask ownerKinds(Selector S) const {
    assert(S < Owners.size());
    return Owners[S];
  }

  Polarity polarity(Selector S) const {
    assert(S < Polarities.size());
    return Polarities[S];
  }

  bool isMonotone(Selector S) const {
    return polarity(S) == Polarity::Monotone;
  }

  const std::string &name(Selector S) const {
    assert(S < Names.size());
    return Names[S];
  }

  /// Looks up a selector by name; returns ~0u if unknown.
  Selector lookup(const std::string &Name) const {
    auto It = Index.find(Name);
    return It == Index.end() ? ~Selector(0) : It->second;
  }

  size_t size() const { return Names.size(); }

private:
  std::vector<std::string> Names;
  std::vector<Polarity> Polarities;
  std::vector<KindMask> Owners;
  std::unordered_map<std::string, Selector> Index;
};

/// Shared allocation context for the constraint systems of one analyzed
/// program: the set-variable namespace and the constant and selector
/// tables.
class ConstraintContext {
public:
  ConstraintContext() {
    constexpr KindMask FnKinds =
        kindBit(ConstKind::FnTag) | kindBit(ConstKind::ContTag);
    constexpr KindMask PairKinds = kindBit(ConstKind::Pair);
    Rng = Selectors.intern("rng", Polarity::Monotone, FnKinds);
    Car = Selectors.intern("car", Polarity::Monotone, PairKinds);
    Cdr = Selectors.intern("cdr", Polarity::Monotone, PairKinds);
    BoxPlus = Selectors.intern("box+", Polarity::Monotone,
                               kindBit(ConstKind::BoxTag));
    BoxMinus = Selectors.intern("box-", Polarity::AntiMonotone,
                                kindBit(ConstKind::BoxTag));
    VecPlus = Selectors.intern("vec+", Polarity::Monotone,
                               kindBit(ConstKind::VecTag));
    VecMinus = Selectors.intern("vec-", Polarity::AntiMonotone,
                                kindBit(ConstKind::VecTag));
    Ue = Selectors.intern("ue", Polarity::Monotone,
                          kindBit(ConstKind::UnitTag));
    Ui = Selectors.intern("ui", Polarity::AntiMonotone,
                          kindBit(ConstKind::UnitTag));
    ClObj = Selectors.intern("cl-obj", Polarity::Monotone,
                             kindBit(ConstKind::ClassTag));
  }

  SetVar freshVar() { return NextVar++; }
  /// Reserves \p N consecutive fresh variables and returns the first.
  /// The bulk-clone instantiation path numbers a schema's quantified
  /// copies Base..Base+N-1 — exactly the numbering N individual
  /// freshVar() calls would produce.
  SetVar freshVarRange(uint32_t N) {
    SetVar Base = NextVar;
    NextVar += N;
    return Base;
  }
  uint32_t numVars() const { return NextVar; }

  /// The anti-monotone selector for argument position \p I (App. E.3).
  Selector dom(unsigned I) {
    constexpr KindMask FnKinds =
        kindBit(ConstKind::FnTag) | kindBit(ConstKind::ContTag);
    while (Doms.size() <= I)
      Doms.push_back(Selectors.intern("dom" + std::to_string(Doms.size()),
                                      Polarity::AntiMonotone, FnKinds));
    return Doms[I];
  }

  /// Instance-variable selectors, keyed by the variable's name (§3.7).
  Selector ivarPlus(Symbol Name, const SymbolTable &Syms) {
    return Selectors.intern("ivar+" + Syms.name(Name), Polarity::Monotone,
                            kindBit(ConstKind::ObjTag));
  }
  Selector ivarMinus(Symbol Name, const SymbolTable &Syms) {
    return Selectors.intern("ivar-" + Syms.name(Name),
                            Polarity::AntiMonotone,
                            kindBit(ConstKind::ObjTag));
  }

  SelectorTable Selectors;
  ConstantTable Constants;

  // Well-known selectors.
  Selector Rng, Car, Cdr, BoxPlus, BoxMinus, VecPlus, VecMinus, Ue, Ui,
      ClObj;

private:
  SetVar NextVar = 0;
  std::vector<Selector> Doms;
};

} // namespace spidey

#endif // SPIDEY_CONSTRAINTS_CORE_H
