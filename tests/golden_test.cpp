//===-- tests/golden_test.cpp - Checked-in constraint-file bytes -*- C++ -*-===//
///
/// \file
/// Golden bytes for the constraint-file format (§7.1) and for the combined
/// system merged from it. `tests/golden/` holds lib.ss's `.scf` text and
/// `combined().str()` for the two-file program below, whose files use
/// every record kind (cl, sl, vu, fu, su) and both labelled and
/// unlabelled constants. The expected files were generated before the
/// loader was split into a context-free decode and a commit, so they pin
/// two things across loader changes: files that earlier builds wrote stay
/// loadable, and loading keeps the variable, constant and selector
/// numbering of the combined system.
///
/// On a mismatch the actual text is written to the system temp directory
/// and its path printed; an intended format change regenerates the
/// expected files from there.
///
//===----------------------------------------------------------------------===//

#include "componential/componential.h"
#include "test_util.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace spidey;
using namespace spidey::test;

namespace {

namespace fs = std::filesystem;

const std::vector<SourceFile> GoldenProgram = {
    {"lib.ss", "(define-struct point (x y))\n"
               "(define origin (make-point 0 'zero))\n"
               "(define (first p) (car p))\n"
               "(define (pick x) (if (pair? x) (car x) x))\n"
               "(define mk (lambda (a) (cons a 'tag)))\n"
               "(define alias first)\n"},
    {"main.ss", "(define r (alias (mk 1)))\n"
                "(define q (first (cons \"q\" r)))\n"
                "(define s (pick (cons 2 \"three\")))\n"
                "(define t ((lambda (n) (+ n 1)) 4))\n"
                "(define ox (point-x origin))\n"},
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string golden(const char *Name) {
  return readFile(std::string(SPIDEY_GOLDEN_DIR) + "/" + Name);
}

/// Expects \p Actual to equal the checked-in file \p Name; on a mismatch,
/// saves \p Actual for inspection or regeneration.
void expectGolden(const std::string &Actual, const char *Name) {
  std::string Expected = golden(Name);
  ASSERT_FALSE(Expected.empty()) << "missing golden file " << Name;
  if (Actual == Expected)
    return;
  std::string Saved =
      (fs::temp_directory_path() / (std::string("spidey-actual-") + Name))
          .string();
  std::ofstream(Saved, std::ios::binary) << Actual;
  ADD_FAILURE() << Name << " differs from the golden bytes ("
                << Actual.size() << " against " << Expected.size()
                << "); actual text saved to " << Saved;
}

struct ScratchDir {
  explicit ScratchDir(const char *Tag)
      : Path((fs::temp_directory_path() / Tag).string()) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() { fs::remove_all(Path); }
  std::string Path;
};

ComponentialOptions cachedIn(const std::string &CacheDir) {
  ComponentialOptions Opts;
  Opts.CacheDir = CacheDir;
  Opts.Threads = 1;
  return Opts;
}

} // namespace

TEST(Golden, WriterAndCombinedSystemKeepTheirBytes) {
  ScratchDir Dir("spidey_golden_cold");
  Parsed R = parseFiles(GoldenProgram);
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  ComponentialAnalyzer CA(*R.Prog, cachedIn(Dir.Path));
  CA.run();
  for (const ComponentRunStats &CS : CA.componentStats())
    EXPECT_EQ(CS.Cache, CacheOutcome::MissNoEntry);
  expectGolden(readFile(Dir.Path + "/" + componentCacheFileName("lib.ss")),
               "lib.ss.scf.txt");
  expectGolden(CA.combined().str(), "combined.txt");
}

TEST(Golden, CheckedInFileLoadsToTheSameCombinedSystem) {
  // Plant the checked-in file as lib.ss's cache entry: it must be reused
  // as is, and the combined system must keep the golden numbering.
  ScratchDir Dir("spidey_golden_warm");
  std::ofstream(Dir.Path + "/" + componentCacheFileName("lib.ss"),
                std::ios::binary)
      << golden("lib.ss.scf.txt");
  Parsed R = parseFiles(GoldenProgram);
  ASSERT_TRUE(R.Ok) << R.Diags.str();
  ComponentialAnalyzer CA(*R.Prog, cachedIn(Dir.Path));
  CA.run();
  EXPECT_EQ(CA.componentStats()[0].Cache, CacheOutcome::Hit);
  EXPECT_TRUE(CA.componentStats()[0].ReusedFile);
  EXPECT_EQ(CA.componentStats()[1].Cache, CacheOutcome::MissNoEntry);
  expectGolden(CA.combined().str(), "combined.txt");
}
