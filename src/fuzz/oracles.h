//===-- fuzz/oracles.h - Metamorphic oracles -------------------*- C++ -*-===//
///
/// \file
/// The metamorphic oracles of the differential fuzzing harness. Each
/// oracle takes a program (as source files) and checks one of the
/// repository's central correctness claims:
///
///  - Soundness (Thm 2.6.4): CEK-evaluate under a step budget; every
///    (label, value) observation must be predicted by the analysis, and
///    every run-time fault must land on a check site the debugger flags
///    as unsafe. Checked across three analysis configurations.
///  - Simplify (Lemma 6.1.1 / §6.4): the constants visible at external
///    variables — and along monotone selector paths below them, to a
///    configurable depth — agree across the none/empty/unreachable/
///    ε-removal/Hopcroft simplifiers.
///  - Componential (§7.1): the whole-program analysis and the componential
///    analysis (derive → simplify → combine → close) agree on the
///    constants of every top-level definition.
///  - Threads: the componential combined system is byte-identical
///    (ConstraintSystem::str()) for Threads=1 and Threads=N.
///  - Closure: re-closing the worklist engine's closed whole-program
///    system with the naive reference fixpoint (ReferenceClosure) must
///    not grow any variable's constant set — i.e. the incremental engine
///    reached the full Θ fixpoint.
///  - Chaos: a serve session driven with every cache/store/parse fault
///    site armed (seeded from the program text) must answer every request
///    with well-formed JSON, never fail an analyze (without a deadline,
///    lost cache entries only cost re-derivation), and — once faults are
///    disarmed — hold a combined system byte-identical to a fault-free
///    cold run.
///  - Query: the demand-driven serve answers (DESIGN.md §12) are
///    identical to the closed engine's: every top-level name's flow
///    response (var, kinds, parent/child/ancestor/descendant counts)
///    matches a per-request FlowGraph over a reference analyzer, and
///    check-summary (possible, unsafe, the summary bytes) matches a full
///    reconstruct sweep — cold, warm-repeated, and across per-file edit
///    cycles that exercise the memo invalidation. A budget-starved query
///    must degrade cleanly and the next in-budget query answer exactly.
///
/// Oracles never throw; a program that fails to parse is reported via
/// Parsed=false (for generated programs that is a generator bug).
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_FUZZ_ORACLES_H
#define SPIDEY_FUZZ_ORACLES_H

#include "lang/parser.h"

#include <string>
#include <vector>

namespace spidey {

enum class Oracle : uint8_t {
  Soundness,
  Simplify,
  Componential,
  Threads,
  Closure,
  Chaos,
  Query,
};
inline constexpr unsigned NumOracles = 7;

const char *oracleName(Oracle O);
/// Parses an oracle name; returns false if unknown.
bool oracleFromName(std::string_view Name, Oracle &Out);

struct OracleOptions {
  /// Machine step budget for the soundness oracle.
  uint64_t Fuel = 300'000;
  /// Thread count compared against 1 by the thread-determinism oracle.
  unsigned Threads = 4;
  /// Selector-path probe depth for the simplify/componential oracles.
  unsigned Depth = 4;
  /// Simulated stdin for the soundness oracle's evaluation.
  std::string Input;
};

struct OracleVerdict {
  bool Parsed = true;
  bool Violation = false;
  std::string Message; ///< diagnosis of the first violation (or parse error)
};

/// Runs one oracle over a program.
OracleVerdict checkOracle(Oracle O, const std::vector<SourceFile> &Files,
                          const OracleOptions &Opts);

} // namespace spidey

#endif // SPIDEY_FUZZ_ORACLES_H
