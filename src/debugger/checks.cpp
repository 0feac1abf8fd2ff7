//===-- debugger/checks.cpp -----------------------------------*- C++ -*-===//

#include "debugger/checks.h"

#include <map>
#include <sstream>

using namespace spidey;

namespace {

/// Evaluates one scrutinee: returns the offending constants (empty means
/// this operand is provably appropriate).
std::vector<Constant> offendingConstants(const CheckScrutinee &Scr,
                                         const ConstraintSystem &S) {
  std::vector<Constant> Bad;
  const ConstantTable &Consts = S.context().Constants;
  for (Constant C : S.constantsOf(Scr.V)) {
    const ConstantInfo &Info = Consts.info(C);
    if (!(Scr.Accept & kindBit(Info.K))) {
      Bad.push_back(C);
      continue;
    }
    if (Scr.HasRequiredTag && Info.K == ConstKind::StructTag &&
        C != Scr.RequiredTag) {
      // The right kind but the wrong declared constructor (App. D.5.4).
      Bad.push_back(C);
      continue;
    }
    if (!Scr.CheckArity)
      continue;
    // Arity checking (App. E.3): function tags must match the number of
    // arguments; continuations always take exactly one.
    if (Info.K == ConstKind::FnTag && Info.Arity != Scr.Arity)
      Bad.push_back(C);
    else if (Info.K == ConstKind::ContTag && Scr.Arity != 1)
      Bad.push_back(C);
  }
  return Bad;
}

} // namespace

DebugReport spidey::runChecks(const Program &P, const AnalysisMaps &Maps,
                              const ConstraintSystem &S,
                              std::optional<uint32_t> File) {
  DebugReport Report;
  const ConstantTable &Consts = S.context().Constants;
  for (const CheckSite &Site : Maps.Checks) {
    const SourceLoc &Loc = P.expr(Site.Site).Loc;
    if (File && Loc.File != *File)
      continue;
    CheckResult R;
    R.Site = Site.Site;
    R.Loc = Loc;
    R.What = Site.What;
    for (const CheckScrutinee &Scr : Site.Scrutinees) {
      std::vector<Constant> Bad = offendingConstants(Scr, S);
      if (Bad.empty())
        continue;
      R.Safe = false;
      std::ostringstream Why;
      Why << R.What << " may be applied to inappropriate value(s):";
      for (Constant C : Bad) {
        Why << ' ' << Consts.str(C, P.Syms);
        R.Offending.push_back(C);
      }
      if (!R.Reason.empty())
        R.Reason += "; ";
      R.Reason += Why.str();
    }
    Report.Results.push_back(std::move(R));
  }
  return Report;
}

std::string DebugReport::unsafeLine(const CheckResult &R, const Program &P) {
  uint32_t File = R.Loc.File < P.Components.size() ? R.Loc.File : 0;
  std::ostringstream OS;
  OS << R.What << " check in file \"" << P.Components[File].Name
     << "\" line " << R.Loc.Line << "\n";
  return OS.str();
}

std::string DebugReport::totalLine(size_t Unsafe, size_t Possible) {
  double Pct = Possible == 0 ? 0.0 : 100.0 * Unsafe / Possible;
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "TOTAL CHECKS: %zu (of %zu possible checks is %.1f%%)\n",
                Unsafe, Possible, Pct);
  return Buf;
}

std::string DebugReport::summary(const Program &P) const {
  std::string Out = "CHECKS:\n";
  for (const CheckResult &R : Results)
    if (!R.Safe)
      Out += unsafeLine(R, P);
  Out += totalLine(numUnsafe(), numPossible());
  return Out;
}

std::string DebugReport::perFileSummary(const Program &P) const {
  std::map<uint32_t, std::pair<size_t, size_t>> ByFile; // unsafe, possible
  for (const CheckResult &R : Results) {
    auto &[Unsafe, Possible] = ByFile[R.Loc.File];
    ++Possible;
    if (!R.Safe)
      ++Unsafe;
  }
  std::ostringstream OS;
  for (uint32_t I = 0; I < P.Components.size(); ++I) {
    auto [Unsafe, Possible] = ByFile.count(I) ? ByFile[I]
                                              : std::make_pair(size_t(0),
                                                               size_t(0));
    double Pct = Possible == 0 ? 0.0 : 100.0 * Unsafe / Possible;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%-18s CHECKS: %zu (of %zu possible checks is %.1f%%)\n",
                  P.Components[I].Name.c_str(), Unsafe, Possible, Pct);
    OS << Buf;
  }
  return OS.str();
}
