//===-- constraints/serialize.cpp -----------------------------*- C++ -*-===//

#include "constraints/serialize.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <sstream>
#include <unordered_map>

using namespace spidey;

std::string spidey::hashSource(std::string_view Text) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  std::ostringstream OS;
  OS << std::hex << H;
  return OS.str();
}

std::string spidey::serializeConstraints(
    const ConstraintSystem &S,
    const std::vector<std::pair<std::string, SetVar>> &Externals,
    const SymbolTable &Syms, std::string_view SourceHash,
    std::string_view OptionsFingerprint) {
  const ConstraintContext &Ctx = S.context();
  std::ostringstream OS;
  OS << "spidey-constraint-file 2\n";
  OS << "hash " << SourceHash << "\n";
  OS << "options " << (OptionsFingerprint.empty() ? "-" : OptionsFingerprint)
     << "\n";

  // Local variable numbering.
  std::unordered_map<SetVar, uint32_t> Local;
  auto LocalOf = [&](SetVar V) {
    auto [It, New] = Local.emplace(V, static_cast<uint32_t>(Local.size()));
    (void)New;
    return It->second;
  };
  std::vector<SetVar> Vars = S.variables();
  for (SetVar V : Vars)
    LocalOf(V);
  for (const auto &[Key, Var] : Externals)
    LocalOf(Var); // externals may be untouched by any constraint

  OS << "vars " << Local.size() << "\n";

  OS << "externals " << Externals.size() << "\n";
  for (const auto &[Key, Var] : Externals)
    OS << "  " << Key << " " << LocalOf(Var) << "\n";

  // Selectors used, re-internable by name.
  std::unordered_map<Selector, uint32_t> SelLocal;
  std::vector<Selector> SelList;
  auto SelOf = [&](Selector Sel) {
    auto [It, New] = SelLocal.emplace(Sel, SelList.size());
    if (New)
      SelList.push_back(Sel);
    return It->second;
  };
  // Constants used.
  std::unordered_map<Constant, uint32_t> ConstLocal;
  std::vector<Constant> ConstList;
  auto ConstOf = [&](Constant C) {
    auto [It, New] = ConstLocal.emplace(C, ConstList.size());
    if (New)
      ConstList.push_back(C);
    return It->second;
  };

  // First pass over constraints to populate tables; collect lines. Each
  // variable's bounds are emitted in canonical (key-sorted) order rather
  // than storage order, so the file bytes are a pure function of the
  // closed bound set, not of the order the drain discovered it in.
  std::ostringstream Body;
  size_t NumConstraints = 0;
  std::vector<LowerBound> Lows;
  std::vector<UpperBound> Ups;
  for (SetVar A : Vars) {
    const std::vector<LowerBound> &RawLows = S.lowerBounds(A);
    Lows.assign(RawLows.begin(), RawLows.end());
    std::sort(Lows.begin(), Lows.end(), ConstraintSystem::lowerBoundLess);
    const std::vector<UpperBound> &RawUps = S.upperBounds(A);
    Ups.assign(RawUps.begin(), RawUps.end());
    std::sort(Ups.begin(), Ups.end(), ConstraintSystem::upperBoundLess);
    for (const LowerBound &L : Lows) {
      if (L.K == LowerBound::Kind::ConstLB)
        Body << "cl " << LocalOf(A) << " " << ConstOf(L.C) << "\n";
      else
        Body << "sl " << LocalOf(A) << " " << SelOf(L.Sel) << " "
             << LocalOf(L.Other) << "\n";
      ++NumConstraints;
    }
    for (const UpperBound &U : Ups) {
      if (U.K == UpperBound::Kind::VarUB)
        Body << "vu " << LocalOf(A) << " " << LocalOf(U.Other) << "\n";
      else if (U.K == UpperBound::Kind::FilterUB)
        Body << "fu " << LocalOf(A) << " " << U.Sel << " "
             << LocalOf(U.Other) << "\n";
      else
        Body << "su " << LocalOf(A) << " " << SelOf(U.Sel) << " "
             << LocalOf(U.Other) << "\n";
      ++NumConstraints;
    }
  }

  OS << "selectors " << SelList.size() << "\n";
  for (Selector Sel : SelList)
    OS << "  " << Ctx.Selectors.name(Sel) << " "
       << (Ctx.Selectors.isMonotone(Sel) ? "+" : "-") << "\n";

  OS << "constants " << ConstList.size() << "\n";
  for (Constant C : ConstList) {
    const ConstantInfo &I = Ctx.Constants.info(C);
    OS << "  " << static_cast<unsigned>(I.K) << " " << I.Arity << " "
       << I.Loc.File << " " << I.Loc.Line << " " << I.Loc.Col << " ";
    if (I.Label != InvalidSymbol)
      OS << Syms.name(I.Label);
    else
      OS << "-";
    OS << "\n";
  }

  OS << "constraints " << NumConstraints << "\n";
  OS << Body.str();
  return OS.str();
}

namespace {

/// Whitespace-separated tokens of a constraint file, scanned in place.
/// Whitespace is the C locale's set, as `istream >> std::string` splits.
class Scanner {
public:
  Scanner(std::string_view Text, size_t Pos) : Text(Text), Pos(Pos) {}

  bool word(std::string_view &Out) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() && !isSpace(Text[Pos]))
      ++Pos;
    Out = Text.substr(Start, Pos - Start);
    return Pos > Start;
  }

  /// A whole token of decimal digits that fits \p Out: no sign, no
  /// overflow.
  template <typename T> bool number(T &Out) {
    skipSpace();
    const char *First = Text.data() + Pos, *Last = Text.data() + Text.size();
    auto [End, Ec] = std::from_chars(First, Last, Out);
    if (Ec != std::errc() || (End != Last && !isSpace(*End)))
      return false;
    Pos = End - Text.data();
    return true;
  }

  /// A count, which can be no larger than the text holding it.
  bool count(uint64_t &Out) { return number(Out) && Out <= Text.size(); }

  bool expect(std::string_view Keyword) {
    std::string_view W;
    return word(W) && W == Keyword;
  }

  size_t pos() const { return Pos; }

private:
  static bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

  void skipSpace() {
    while (Pos < Text.size() && isSpace(Text[Pos]))
      ++Pos;
  }

  std::string_view Text;
  size_t Pos;
};

bool allDigits(std::string_view S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (C < '0' || C > '9')
      return false;
  return true;
}

/// Validates a serialized selector name against the selector families the
/// analysis can produce and reports the family's fixed polarity and owner
/// kinds. Constraint files come from a cache directory on disk, so a name
/// outside these families (or with the wrong polarity) is a corrupt or
/// hostile file and must be rejected — interning it would poison the
/// shared selector table (SelectorTable::intern asserts polarity
/// consistency).
bool selectorFamily(std::string_view V, Polarity &P, KindMask &Owners) {
  constexpr KindMask FnKinds =
      kindBit(ConstKind::FnTag) | kindBit(ConstKind::ContTag);
  struct Fixed {
    const char *Name;
    Polarity P;
    KindMask Owners;
  };
  static const Fixed Table[] = {
      {"rng", Polarity::Monotone, FnKinds},
      {"car", Polarity::Monotone, kindBit(ConstKind::Pair)},
      {"cdr", Polarity::Monotone, kindBit(ConstKind::Pair)},
      {"box+", Polarity::Monotone, kindBit(ConstKind::BoxTag)},
      {"box-", Polarity::AntiMonotone, kindBit(ConstKind::BoxTag)},
      {"vec+", Polarity::Monotone, kindBit(ConstKind::VecTag)},
      {"vec-", Polarity::AntiMonotone, kindBit(ConstKind::VecTag)},
      {"ue", Polarity::Monotone, kindBit(ConstKind::UnitTag)},
      {"ui", Polarity::AntiMonotone, kindBit(ConstKind::UnitTag)},
      {"cl-obj", Polarity::Monotone, kindBit(ConstKind::ClassTag)},
  };
  for (const Fixed &F : Table)
    if (V == F.Name) {
      P = F.P;
      Owners = F.Owners;
      return true;
    }
  if (V.substr(0, 3) == "dom" && allDigits(V.substr(3))) {
    P = Polarity::AntiMonotone;
    Owners = FnKinds;
    return true;
  }
  if (V.size() > 5 && (V.substr(0, 5) == "ivar+" || V.substr(0, 5) == "ivar-")) {
    P = V[4] == '+' ? Polarity::Monotone : Polarity::AntiMonotone;
    Owners = kindBit(ConstKind::ObjTag);
    return true;
  }
  if (V.size() > 5 && (V.substr(0, 5) == "sfld+" || V.substr(0, 5) == "sfld-")) {
    P = V[4] == '+' ? Polarity::Monotone : Polarity::AntiMonotone;
    Owners = kindBit(ConstKind::StructTag);
    return true;
  }
  return false;
}

} // namespace

bool spidey::decodeConstraintHeader(std::string_view Text,
                                    ConstraintImage &Img,
                                    std::string &Error) {
  Scanner S(Text, 0);
  auto Fail = [&](const char *Message) {
    Error = Message;
    return false;
  };
  std::string_view W;
  uint64_t Version;
  if (!S.expect("spidey-constraint-file"))
    return Fail("bad magic");
  if (!S.number(Version) || Version != 2)
    return Fail("unsupported version");
  if (!S.expect("hash"))
    return Fail("missing hash");
  if (!S.word(W))
    return Fail("missing hash value");
  Img.SourceHash = W;
  if (!S.expect("options"))
    return Fail("missing options fingerprint");
  if (!S.word(W))
    return Fail("missing options fingerprint value");
  Img.OptionsFingerprint = W == "-" ? std::string_view() : W;

  uint64_t NumVars, NumExternals;
  if (!S.expect("vars") || !S.count(NumVars))
    return Fail("missing vars");
  Img.NumVars = static_cast<uint32_t>(NumVars);
  if (Img.NumVars != NumVars)
    return Fail("missing vars");
  if (!S.expect("externals") || !S.count(NumExternals))
    return Fail("missing externals");
  Img.Externals.clear();
  for (uint64_t I = 0; I < NumExternals; ++I) {
    uint32_t Local;
    if (!S.word(W) || !S.number(Local) || Local >= NumVars)
      return Fail("malformed external");
    Img.Externals.emplace_back(W, Local);
  }
  std::vector<std::string_view> Keys;
  Keys.reserve(Img.Externals.size());
  for (const auto &Ext : Img.Externals)
    Keys.push_back(Ext.first);
  std::sort(Keys.begin(), Keys.end());
  if (std::adjacent_find(Keys.begin(), Keys.end()) != Keys.end())
    return Fail("duplicate external");
  Img.BodyOffset = S.pos();
  return true;
}

bool spidey::decodeConstraintBody(std::string_view Text,
                                  ConstraintImage &Img, std::string &Error) {
  using Op = ConstraintImage::Record::Op;
  Scanner S(Text, Img.BodyOffset);
  auto Fail = [&](const char *Message) {
    Error = Message;
    return false;
  };
  std::string_view W;

  uint64_t NumSelectors;
  if (!S.expect("selectors") || !S.count(NumSelectors))
    return Fail("missing selectors");
  Img.Selectors.clear();
  for (uint64_t I = 0; I < NumSelectors; ++I) {
    std::string_view Name, Pol;
    if (!S.word(Name) || !S.word(Pol) || (Pol != "+" && Pol != "-"))
      return Fail("malformed selector");
    ConstraintImage::SelectorEntry &E = Img.Selectors.emplace_back();
    if (!selectorFamily(Name, E.P, E.Owners))
      return Fail("unknown selector name");
    if (E.P != (Pol == "+" ? Polarity::Monotone : Polarity::AntiMonotone))
      return Fail("selector polarity mismatch");
    E.Name = Name;
  }

  uint64_t NumConstants;
  if (!S.expect("constants") || !S.count(NumConstants))
    return Fail("missing constants");
  Img.Constants.clear();
  for (uint64_t I = 0; I < NumConstants; ++I) {
    uint32_t Kind;
    ConstraintImage::ConstantEntry &E = Img.Constants.emplace_back();
    if (!S.number(Kind) || !S.number(E.Arity) || !S.number(E.Loc.File) ||
        !S.number(E.Loc.Line) || !S.number(E.Loc.Col) || !S.word(W))
      return Fail("malformed constant");
    if (Kind >= static_cast<uint32_t>(ConstKind::NumConstKinds))
      return Fail("bad constant kind");
    E.K = static_cast<ConstKind>(Kind);
    if (W != "-")
      E.Label = W;
  }

  uint64_t NumConstraints;
  if (!S.expect("constraints") || !S.count(NumConstraints))
    return Fail("missing constraints");
  const uint64_t NumVars = Img.NumVars;
  Img.Records.clear();
  // A record takes at least 7 bytes ("\nvu 0 1"), so the reservation
  // follows the text actually there, whatever the count claims.
  Img.Records.reserve(std::min<uint64_t>(NumConstraints,
                                         (Text.size() - S.pos()) / 7));
  for (uint64_t I = 0; I < NumConstraints; ++I) {
    if (!S.word(W))
      return Fail("truncated constraints");
    ConstraintImage::Record R;
    if (W == "cl") {
      R.K = Op::ConstLow;
      if (!S.number(R.A) || !S.number(R.X) || R.A >= NumVars ||
          R.X >= NumConstants)
        return Fail("malformed cl");
    } else if (W == "sl") {
      R.K = Op::SelLow;
      if (!S.number(R.A) || !S.number(R.X) || !S.number(R.B) ||
          R.A >= NumVars || R.B >= NumVars || R.X >= NumSelectors)
        return Fail("malformed sl");
    } else if (W == "vu") {
      R.K = Op::VarUp;
      if (!S.number(R.A) || !S.number(R.B) || R.A >= NumVars ||
          R.B >= NumVars)
        return Fail("malformed vu");
    } else if (W == "fu") {
      R.K = Op::FilterUp;
      if (!S.number(R.A) || !S.number(R.X) || !S.number(R.B) ||
          R.A >= NumVars || R.B >= NumVars)
        return Fail("malformed fu");
    } else if (W == "su") {
      R.K = Op::SelUp;
      if (!S.number(R.A) || !S.number(R.X) || !S.number(R.B) ||
          R.A >= NumVars || R.B >= NumVars || R.X >= NumSelectors)
        return Fail("malformed su");
    } else {
      return Fail("unknown constraint op");
    }
    Img.Records.push_back(R);
  }
  return true;
}

bool spidey::decodeConstraintFile(std::string_view Text,
                                  ConstraintImage &Img, std::string &Error) {
  return decodeConstraintHeader(Text, Img, Error) &&
         decodeConstraintBody(Text, Img, Error);
}

SetVar spidey::commitConstraintImage(const ConstraintImage &Img,
                                     SymbolTable &Syms, ConstraintSystem &Out,
                                     const std::vector<SetVar> &Links) {
  using Op = ConstraintImage::Record::Op;
  assert((Links.empty() || Links.size() == Img.Externals.size()) &&
         "one link per external");
  ConstraintContext &Ctx = Out.context();
  const SetVar Base = Ctx.freshVarRange(Img.NumVars);
  std::vector<Selector> SelMap;
  SelMap.reserve(Img.Selectors.size());
  for (const ConstraintImage::SelectorEntry &E : Img.Selectors)
    SelMap.push_back(Ctx.Selectors.intern(E.Name, E.P, E.Owners));
  std::vector<Constant> ConstMap;
  ConstMap.reserve(Img.Constants.size());
  for (const ConstraintImage::ConstantEntry &E : Img.Constants) {
    if (E.K <= ConstKind::VecTag) {
      ConstMap.push_back(Ctx.Constants.basic(E.K));
      continue;
    }
    Symbol Label = E.Label.empty() ? InvalidSymbol : Syms.intern(E.Label);
    ConstMap.push_back(Ctx.Constants.makeTag(E.K, E.Arity, E.Loc, Label));
  }

  for (const ConstraintImage::Record &R : Img.Records) {
    const SetVar A = Base + R.A, B = Base + R.B;
    switch (R.K) {
    case Op::ConstLow:
      Out.addConstLowerRaw(A, ConstMap[R.X]);
      break;
    case Op::SelLow:
      Out.addSelLowerRaw(A, SelMap[R.X], B);
      break;
    case Op::VarUp:
      Out.addVarUpperRaw(A, B);
      break;
    case Op::FilterUp:
      Out.addFilterUpperRaw(A, static_cast<KindMask>(R.X), B);
      break;
    case Op::SelUp:
      Out.addSelUpperRaw(A, SelMap[R.X], B);
      break;
    }
  }
  for (size_t I = 0; I < Links.size(); ++I) {
    const SetVar V = Base + Img.Externals[I].second;
    Out.addVarUpperRaw(V, Links[I]);
    Out.addVarUpperRaw(Links[I], V);
  }
  return Base;
}
