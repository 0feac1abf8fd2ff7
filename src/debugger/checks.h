//===-- debugger/checks.h - Unsafe-operation identification ----*- C++ -*-===//
///
/// \file
/// MrSpidey's core judgment (§4.3, App. E.5): a program operation is
/// *safe* when the value-set invariants prove it is only applied to
/// appropriate arguments, and *unsafe* (a "check") otherwise. This module
/// evaluates every check site recorded during derivation against the
/// closed constraint system and produces the per-file CHECKS summary shown
/// throughout the dissertation (figs. 1.1, 5.1, ch. 8).
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_DEBUGGER_CHECKS_H
#define SPIDEY_DEBUGGER_CHECKS_H

#include "analysis/analysis.h"

#include <optional>
#include <string>
#include <vector>

namespace spidey {

/// Verdict for one check site.
struct CheckResult {
  ExprId Site = NoExpr;
  SourceLoc Loc;
  std::string What; ///< "car", "application", ...
  bool Safe = true;
  /// The constants that make the operation unsafe (inappropriate
  /// arguments), for explanation.
  std::vector<Constant> Offending;
  std::string Reason;
};

/// The static-debugging report for a whole program.
struct DebugReport {
  std::vector<CheckResult> Results;

  size_t numPossible() const { return Results.size(); }
  size_t numUnsafe() const {
    size_t N = 0;
    for (const CheckResult &R : Results)
      N += R.Safe ? 0 : 1;
    return N;
  }

  /// Renders the MrSpidey summary, e.g.
  ///   CHECKS:
  ///   car check in file "sum.ss" line 8
  ///   TOTAL CHECKS: 1 (of 10 possible checks is 10.0%)
  std::string summary(const Program &P) const;

  /// One summary line for an unsafe result (including the trailing
  /// newline). Split out so the demand-driven query engine can cache
  /// per-component verdict lines and reassemble a summary byte-identical
  /// to a monolithic render.
  static std::string unsafeLine(const CheckResult &R, const Program &P);

  /// The closing "TOTAL CHECKS: ..." line (including the newline).
  static std::string totalLine(size_t Unsafe, size_t Possible);

  /// Per-file one-line summaries (the ch. 8.3 table).
  std::string perFileSummary(const Program &P) const;
};

/// Evaluates the recorded check sites against \p S (closed under Θ): all
/// of them, or with \p File only those in that component's file — the
/// step-3 view of one reconstructed component (§7.1), whose system is
/// precise only for its own sites.
DebugReport runChecks(const Program &P, const AnalysisMaps &Maps,
                      const ConstraintSystem &S,
                      std::optional<uint32_t> File = std::nullopt);

} // namespace spidey

#endif // SPIDEY_DEBUGGER_CHECKS_H
