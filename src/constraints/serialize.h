//===-- constraints/serialize.h - Constraint files -------------*- C++ -*-===//
///
/// \file
/// Constraint files (§7.1): the simplified constraint system of a program
/// component, saved for reuse in later runs of the analysis. A file
/// records the component's source hash (to detect changes and skip
/// re-derivation), a fingerprint of the analysis options it was derived
/// under (a file produced by one configuration is not reusable by
/// another), its external variables keyed by stable string names, and the
/// constraints themselves.
///
/// The paper uses "a straight-forward, text-based representation" whose
/// size is "typically within a factor of two or three of the corresponding
/// source file" (§7.2); we use the same approach.
///
/// Loading is two steps. decodeConstraintFile checks every part of a file
/// and yields a ConstraintImage without touching any context, so it runs
/// on any thread and a rejected file leaves nothing behind.
/// commitConstraintImage then allocates the image's variables fresh in the
/// target context as one block (a component's internal variables must not
/// collide across runs), interns its selectors and constants, and inserts
/// its constraints; it cannot fail. External variables keep their stable
/// names, for the caller to re-link.
///
//===----------------------------------------------------------------------===//

#ifndef SPIDEY_CONSTRAINTS_SERIALIZE_H
#define SPIDEY_CONSTRAINTS_SERIALIZE_H

#include "constraints/constraint_system.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spidey {

/// Stable FNV-1a content hash used to detect component changes.
std::string hashSource(std::string_view Text);

/// Serializes \p S with its \p Externals (stable key -> variable) into the
/// constraint-file text format (version 2). \p OptionsFingerprint is an
/// opaque whitespace-free token identifying the analysis configuration;
/// loaders reject files whose fingerprint differs from theirs.
std::string serializeConstraints(
    const ConstraintSystem &S,
    const std::vector<std::pair<std::string, SetVar>> &Externals,
    const SymbolTable &Syms, std::string_view SourceHash,
    std::string_view OptionsFingerprint);

/// A decoded constraint file, independent of any context. Variables are
/// file-local (0..NumVars-1); selectors and constants are positions in
/// the file's own tables. Every index, count, selector family and
/// polarity has been checked, so committing the image cannot fail.
struct ConstraintImage {
  std::string SourceHash;
  std::string OptionsFingerprint; ///< empty when the file records "-"
  uint32_t NumVars = 0;
  /// (stable key, file-local variable), in file order; keys are distinct.
  std::vector<std::pair<std::string, uint32_t>> Externals;

  struct SelectorEntry {
    std::string Name;
    Polarity P = Polarity::Monotone;
    KindMask Owners = AnyKindMask;
  };
  std::vector<SelectorEntry> Selectors;

  struct ConstantEntry {
    ConstKind K = ConstKind::Num;
    uint32_t Arity = 0;
    SourceLoc Loc;
    std::string Label; ///< empty: no label
  };
  std::vector<ConstantEntry> Constants;

  /// One constraint line: `cl A X`, `sl A X B`, `vu A B`, `fu A X B` or
  /// `su A X B`, where X is a constant, a selector or a kind mask.
  struct Record {
    enum class Op : uint8_t { ConstLow, SelLow, VarUp, FilterUp, SelUp };
    Op K = Op::VarUp;
    uint32_t A = 0, X = 0, B = 0;
  };
  std::vector<Record> Records;

  /// Offset of the body (the selector table) in the decoded text.
  size_t BodyOffset = 0;
};

/// Decodes the header of \p Text: format and version, source hash,
/// options fingerprint, variable count and externals. That is all the
/// cache reuse checks read (DESIGN.md §8). Any count larger than the
/// text's length is rejected before anything is sized by it. Returns
/// false with \p Error set on malformed input.
bool decodeConstraintHeader(std::string_view Text, ConstraintImage &Img,
                            std::string &Error);

/// Decodes the body of \p Text (selectors, constants and constraints)
/// into \p Img, whose header decodeConstraintHeader filled from the same
/// text.
bool decodeConstraintBody(std::string_view Text, ConstraintImage &Img,
                          std::string &Error);

/// decodeConstraintHeader, then decodeConstraintBody.
bool decodeConstraintFile(std::string_view Text, ConstraintImage &Img,
                          std::string &Error);

/// Commits \p Img into \p Out and its context: the image's variables
/// become the block starting at the returned variable, its selectors and
/// constants are interned in file order (constant labels into \p Syms),
/// and its constraints are inserted raw (unclosed). \p Links is empty or
/// holds, per external of the image, a variable that already exists in
/// the context; each is identified with its external's variable v by the
/// two ε-constraints `v ≤ link` and `link ≤ v`, added after the file's
/// constraints. Every bound list thus ends up in the order absorbRaw
/// would copy a system holding the image and its links in.
SetVar commitConstraintImage(const ConstraintImage &Img, SymbolTable &Syms,
                             ConstraintSystem &Out,
                             const std::vector<SetVar> &Links = {});

} // namespace spidey

#endif // SPIDEY_CONSTRAINTS_SERIALIZE_H
