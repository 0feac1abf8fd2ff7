//===-- tests/prims_test.cpp - Primitive table coverage --------*- C++ -*-===//
///
/// Table-driven coverage of every primitive (App. E.5): each entry runs a
/// sample application, checks the produced value, and asserts the
/// analysis's prediction for the call covers the runtime result — i.e.
/// each PrimSpec's result mask and shape are consistent with the
/// evaluator.
///
//===----------------------------------------------------------------------===//

#include "debugger/checks.h"
#include "test_util.h"

#include <map>
#include <ostream>
#include <string_view>

using namespace spidey;
using namespace spidey::test;

namespace {

using NameTable = std::map<std::string_view, std::string_view>;

/// Prints a case as its ctest name. gtest_discover_tests names each case
/// after its printed parameter, and without a printer these structs printed
/// as their raw bytes: pointer values, different in every build and run.
/// The cases of that time keep the name their results were recorded under
/// (\p Recorded, keyed by source), so test lists from before and after
/// compare name by name; a case added since is named by its source.
void printCaseName(const char *Source, const NameTable &Recorded,
                   std::ostream *OS) {
  auto It = Recorded.find(Source);
  *OS << (It != Recorded.end() ? It->second : std::string_view(Source));
}

struct PrimCase {
  const char *Source;
  const char *Expected;
  const char *Input = "";
};

const NameTable RecordedPrimNames = {
    {"(cons 1 2)", "24-byte object <F4-96 FB-B7 98-55 00-00 FF-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(car (cons 1 2))", "24-byte object <07-97 FB-B7 98-55 00-00 6C-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(cdr (cons 1 2))", "24-byte object <18-97 FB-B7 98-55 00-00 F0-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(pair? (cons 1 2))", "24-byte object <29-97 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(null? '())", "24-byte object <3C-97 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(list 1 'a \"s\")", "24-byte object <48-97 FB-B7 98-55 00-00 58-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(box 1)", "24-byte object <62-97 FB-B7 98-55 00-00 6A-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(unbox (box 'x))", "24-byte object <6E-97 FB-B7 98-55 00-00 26-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(let ([b (box 0)]) (set-box! b 9))", "24-byte object <40-90 FB-B7 98-55 00-00 7F-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(box? 5)", "24-byte object <81-97 FB-B7 98-55 00-00 E1-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(make-vector 2 'z)", "24-byte object <8A-97 FB-B7 98-55 00-00 9D-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(vector 1 2)", "24-byte object <A4-97 FB-B7 98-55 00-00 B1-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(vector-ref (vector 7 8) 1)", "24-byte object <B8-97 FB-B7 98-55 00-00 EB-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(let ([v (vector 0)]) (vector-set! v 0 5))", "24-byte object <68-90 FB-B7 98-55 00-00 D4-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(vector-length (vector 1 2 3))", "24-byte object <98-90 FB-B7 98-55 00-00 ED-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(vector? (vector))", "24-byte object <DC-97 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(+ 1 2 3)", "24-byte object <EF-97 FB-B7 98-55 00-00 F9-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(- 9 4)", "24-byte object <FB-97 FB-B7 98-55 00-00 6D-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(* 3 4)", "24-byte object <03-98 FB-B7 98-55 00-00 EF-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(/ 8 2)", "24-byte object <0B-98 FB-B7 98-55 00-00 F2-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(quotient 9 2)", "24-byte object <13-98 FB-B7 98-55 00-00 F2-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(remainder 9 2)", "24-byte object <22-98 FB-B7 98-55 00-00 6C-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(modulo -9 2)", "24-byte object <32-98 FB-B7 98-55 00-00 6C-97 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(min 4 2 8)", "24-byte object <40-98 FB-B7 98-55 00-00 F0-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(max 4 2 8)", "24-byte object <4C-98 FB-B7 98-55 00-00 EB-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(abs -3)", "24-byte object <58-98 FB-B7 98-55 00-00 ED-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(floor 3.7)", "24-byte object <61-98 FB-B7 98-55 00-00 ED-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(add1 1)", "24-byte object <6D-98 FB-B7 98-55 00-00 F0-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(sub1 1)", "24-byte object <76-98 FB-B7 98-55 00-00 7F-98 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(zero? 0)", "24-byte object <81-98 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(< 1 2)", "24-byte object <8B-98 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(> 1 2)", "24-byte object <93-98 FB-B7 98-55 00-00 E1-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(<= 2 2)", "24-byte object <9B-98 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(>= 1 2)", "24-byte object <A4-98 FB-B7 98-55 00-00 E1-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(= 3 3)", "24-byte object <AD-98 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(number? 'a)", "24-byte object <B5-98 FB-B7 98-55 00-00 E1-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(bitwise-and 6 3)", "24-byte object <C2-98 FB-B7 98-55 00-00 F0-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(bitwise-ior 6 3)", "24-byte object <D4-98 FB-B7 98-55 00-00 E6-98 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(bitwise-xor 6 3)", "24-byte object <E8-98 FB-B7 98-55 00-00 6D-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(arithmetic-shift 3 2)", "24-byte object <FA-98 FB-B7 98-55 00-00 EF-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(< (random 10) 10)", "24-byte object <11-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(not #f)", "24-byte object <24-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(boolean? #t)", "24-byte object <2D-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(symbol? 'a)", "24-byte object <3B-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string? \"s\")", "24-byte object <48-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(char? #\\a)", "24-byte object <56-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(procedure? (lambda (x) x))", "24-byte object <62-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(procedure? (call/cc (lambda (k) k)))", "24-byte object <B8-90 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(eof-object? (read-char))", "24-byte object <7E-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(eq? 'a 'a)", "24-byte object <98-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(equal? (list 1) (list 1))", "24-byte object <A4-99 FB-B7 98-55 00-00 E8-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string-length \"abc\")", "24-byte object <BF-99 FB-B7 98-55 00-00 ED-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string-append \"a\" \"b\")", "24-byte object <D5-99 FB-B7 98-55 00-00 ED-99 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(substring \"hello\" 1 4)", "24-byte object <F2-99 FB-B7 98-55 00-00 0A-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string-ref \"xy\" 0)", "24-byte object <10-9A FB-B7 98-55 00-00 24-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string=? \"a\" \"b\")", "24-byte object <28-9A FB-B7 98-55 00-00 E1-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(number->string 12)", "24-byte object <3B-9A FB-B7 98-55 00-00 4F-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string->number \"3.5\")", "24-byte object <54-9A FB-B7 98-55 00-00 6B-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string->number \"zzz\")", "24-byte object <6F-9A FB-B7 98-55 00-00 E1-96 FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(symbol->string 'hey)", "24-byte object <86-9A FB-B7 98-55 00-00 9C-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(string->symbol \"dyn\")", "24-byte object <A2-9A FB-B7 98-55 00-00 B9-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(char->integer #\\A)", "24-byte object <BD-9A FB-B7 98-55 00-00 D1-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(integer->char 66)", "24-byte object <D4-9A FB-B7 98-55 00-00 E7-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(begin (display 1) (newline) 'done)", "24-byte object <E0-90 FB-B7 98-55 00-00 EB-9A FB-B7 98-55 00-00 34-C4 FB-B7 98-55 00-00>"},
    {"(read-line)", "24-byte object <F0-9A FB-B7 98-55 00-00 FC-9A FB-B7 98-55 00-00 04-9B FB-B7 98-55 00-00>"},
    {"(read-char)", "24-byte object <0F-9B FB-B7 98-55 00-00 E4-96 FB-B7 98-55 00-00 E6-96 FB-B7 98-55 00-00>"},
    {"(peek-char)", "24-byte object <1B-9B FB-B7 98-55 00-00 E4-96 FB-B7 98-55 00-00 E6-96 FB-B7 98-55 00-00>"},
};

void PrintTo(const PrimCase &C, std::ostream *OS) {
  printCaseName(C.Source, RecordedPrimNames, OS);
}

class PrimTableTest : public ::testing::TestWithParam<PrimCase> {};

} // namespace

TEST_P(PrimTableTest, RunsAndIsPredicted) {
  const PrimCase &Case = GetParam();
  Parsed R = parseOk(Case.Source);
  ASSERT_TRUE(R.Ok);
  Analysis A = analyzeProgram(*R.Prog);

  Machine M(*R.Prog);
  M.setInput(Case.Input);
  RunResult Out = M.runProgram();
  ASSERT_EQ(Out.St, RunResult::Status::Ok)
      << Case.Source << ": " << Out.Message;
  EXPECT_EQ(Out.Result.str(R.Prog->Syms), Case.Expected) << Case.Source;

  // The analysis must predict the result's kind at the top expression.
  ConstKind Want = valueAbstractKind(Out.Result);
  bool Covered = false;
  for (Constant C : A.sba(lastTopExpr(*R.Prog)))
    Covered |= A.Ctx->Constants.kind(C) == Want;
  EXPECT_TRUE(Covered) << Case.Source << " result kind "
                       << constKindName(Want) << " not predicted";
}

INSTANTIATE_TEST_SUITE_P(
    AllPrims, PrimTableTest,
    ::testing::Values(
        // Pairs.
        PrimCase{"(cons 1 2)", "(1 . 2)"},
        PrimCase{"(car (cons 1 2))", "1"},
        PrimCase{"(cdr (cons 1 2))", "2"},
        PrimCase{"(pair? (cons 1 2))", "#t"},
        PrimCase{"(null? '())", "#t"},
        PrimCase{"(list 1 'a \"s\")", "(1 a \"s\")"},
        // Boxes.
        PrimCase{"(box 1)", "#&1"},
        PrimCase{"(unbox (box 'x))", "x"},
        PrimCase{"(let ([b (box 0)]) (set-box! b 9))", "9"},
        PrimCase{"(box? 5)", "#f"},
        // Vectors.
        PrimCase{"(make-vector 2 'z)", "#(z z)"},
        PrimCase{"(vector 1 2)", "#(1 2)"},
        PrimCase{"(vector-ref (vector 7 8) 1)", "8"},
        PrimCase{"(let ([v (vector 0)]) (vector-set! v 0 5))", "#<void>"},
        PrimCase{"(vector-length (vector 1 2 3))", "3"},
        PrimCase{"(vector? (vector))", "#t"},
        // Arithmetic.
        PrimCase{"(+ 1 2 3)", "6"},
        PrimCase{"(- 9 4)", "5"},
        PrimCase{"(* 3 4)", "12"},
        PrimCase{"(/ 8 2)", "4"},
        PrimCase{"(quotient 9 2)", "4"},
        PrimCase{"(remainder 9 2)", "1"},
        PrimCase{"(modulo -9 2)", "1"},
        PrimCase{"(min 4 2 8)", "2"},
        PrimCase{"(max 4 2 8)", "8"},
        PrimCase{"(abs -3)", "3"},
        PrimCase{"(floor 3.7)", "3"},
        PrimCase{"(add1 1)", "2"},
        PrimCase{"(sub1 1)", "0"},
        PrimCase{"(zero? 0)", "#t"},
        PrimCase{"(< 1 2)", "#t"},
        PrimCase{"(> 1 2)", "#f"},
        PrimCase{"(<= 2 2)", "#t"},
        PrimCase{"(>= 1 2)", "#f"},
        PrimCase{"(= 3 3)", "#t"},
        PrimCase{"(number? 'a)", "#f"},
        PrimCase{"(bitwise-and 6 3)", "2"},
        PrimCase{"(bitwise-ior 6 3)", "7"},
        PrimCase{"(bitwise-xor 6 3)", "5"},
        PrimCase{"(arithmetic-shift 3 2)", "12"},
        PrimCase{"(< (random 10) 10)", "#t"},
        // Predicates / equality.
        PrimCase{"(not #f)", "#t"},
        PrimCase{"(boolean? #t)", "#t"},
        PrimCase{"(symbol? 'a)", "#t"},
        PrimCase{"(string? \"s\")", "#t"},
        PrimCase{"(char? #\\a)", "#t"},
        PrimCase{"(procedure? (lambda (x) x))", "#t"},
        PrimCase{"(procedure? (call/cc (lambda (k) k)))", "#t"},
        PrimCase{"(eof-object? (read-char))", "#t"},
        PrimCase{"(eq? 'a 'a)", "#t"},
        PrimCase{"(equal? (list 1) (list 1))", "#t"},
        // Strings / chars.
        PrimCase{"(string-length \"abc\")", "3"},
        PrimCase{"(string-append \"a\" \"b\")", "\"ab\""},
        PrimCase{"(substring \"hello\" 1 4)", "\"ell\""},
        PrimCase{"(string-ref \"xy\" 0)", "#\\x"},
        PrimCase{"(string=? \"a\" \"b\")", "#f"},
        PrimCase{"(number->string 12)", "\"12\""},
        PrimCase{"(string->number \"3.5\")", "3.5"},
        PrimCase{"(string->number \"zzz\")", "#f"},
        PrimCase{"(symbol->string 'hey)", "\"hey\""},
        PrimCase{"(string->symbol \"dyn\")", "dyn"},
        PrimCase{"(char->integer #\\A)", "65"},
        PrimCase{"(integer->char 66)", "#\\B"},
        // I/O.
        PrimCase{"(begin (display 1) (newline) 'done)", "done"},
        PrimCase{"(read-line)", "\"alpha\"", "alpha\nbeta"},
        PrimCase{"(read-char)", "#\\q", "q"},
        PrimCase{"(peek-char)", "#\\q", "q"}));

namespace {

/// Every checked primitive faults on its canonical bad argument, and the
/// fault site is always flagged by the debugger (exhaustive variant of the
/// soundness suite's spot checks).
struct FaultCase {
  const char *Source;
};

const NameTable RecordedFaultNames = {
    {"(car 'a)", "8-byte object <03-95 FB-B7 98-55 00-00>"},
    {"(cdr 1)", "8-byte object <0C-95 FB-B7 98-55 00-00>"},
    {"(unbox \"s\")", "8-byte object <14-95 FB-B7 98-55 00-00>"},
    {"(set-box! 1 2)", "8-byte object <20-95 FB-B7 98-55 00-00>"},
    {"(make-vector 'n)", "8-byte object <2F-95 FB-B7 98-55 00-00>"},
    {"(vector-ref '() 0)", "8-byte object <40-95 FB-B7 98-55 00-00>"},
    {"(vector-set! 'v 0 1)", "8-byte object <53-95 FB-B7 98-55 00-00>"},
    {"(vector-length 0)", "8-byte object <68-95 FB-B7 98-55 00-00>"},
    {"(+ 1 'a)", "8-byte object <7A-95 FB-B7 98-55 00-00>"},
    {"(- \"x\")", "8-byte object <83-95 FB-B7 98-55 00-00>"},
    {"(* 1 #t)", "8-byte object <8B-95 FB-B7 98-55 00-00>"},
    {"(/ 'a 1)", "8-byte object <94-95 FB-B7 98-55 00-00>"},
    {"(quotient #f 1)", "8-byte object <9D-95 FB-B7 98-55 00-00>"},
    {"(abs 'a)", "8-byte object <AD-95 FB-B7 98-55 00-00>"},
    {"(add1 \"1\")", "8-byte object <B6-95 FB-B7 98-55 00-00>"},
    {"(zero? 'z)", "8-byte object <C1-95 FB-B7 98-55 00-00>"},
    {"(< 1 'two)", "8-byte object <CC-95 FB-B7 98-55 00-00>"},
    {"(bitwise-and 'a 1)", "8-byte object <D7-95 FB-B7 98-55 00-00>"},
    {"(arithmetic-shift #t 1)", "8-byte object <EA-95 FB-B7 98-55 00-00>"},
    {"(string-length 'sym)", "8-byte object <02-96 FB-B7 98-55 00-00>"},
    {"(string-append \"a\" 5)", "8-byte object <17-96 FB-B7 98-55 00-00>"},
    {"(substring 5 0 1)", "8-byte object <2D-96 FB-B7 98-55 00-00>"},
    {"(string-ref 'a 0)", "8-byte object <3F-96 FB-B7 98-55 00-00>"},
    {"(string=? \"a\" 'a)", "8-byte object <51-96 FB-B7 98-55 00-00>"},
    {"(number->string \"5\")", "8-byte object <63-96 FB-B7 98-55 00-00>"},
    {"(string->number 5)", "8-byte object <78-96 FB-B7 98-55 00-00>"},
    {"(symbol->string \"s\")", "8-byte object <8B-96 FB-B7 98-55 00-00>"},
    {"(string->symbol 'already)", "8-byte object <A0-96 FB-B7 98-55 00-00>"},
    {"(char->integer 97)", "8-byte object <BA-96 FB-B7 98-55 00-00>"},
    {"(integer->char #\\a)", "8-byte object <CD-96 FB-B7 98-55 00-00>"},
};

void PrintTo(const FaultCase &C, std::ostream *OS) {
  printCaseName(C.Source, RecordedFaultNames, OS);
}

class PrimFaultTest : public ::testing::TestWithParam<FaultCase> {};

} // namespace

TEST_P(PrimFaultTest, FaultsAndIsFlagged) {
  const FaultCase &Case = GetParam();
  Parsed R = parseOk(Case.Source);
  Analysis A = analyzeProgram(*R.Prog);
  Machine M(*R.Prog);
  RunResult Out = M.runProgram();
  ASSERT_EQ(Out.St, RunResult::Status::Fault) << Case.Source;
  DebugReport Rep = runChecks(*R.Prog, A.Maps, *A.System);
  bool Flagged = false;
  for (const CheckResult &C : Rep.Results)
    Flagged |= C.Site == Out.FaultSite && !C.Safe;
  EXPECT_TRUE(Flagged) << Case.Source;
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, PrimFaultTest,
    ::testing::Values(FaultCase{"(car 'a)"}, FaultCase{"(cdr 1)"},
                      FaultCase{"(unbox \"s\")"},
                      FaultCase{"(set-box! 1 2)"},
                      FaultCase{"(make-vector 'n)"},
                      FaultCase{"(vector-ref '() 0)"},
                      FaultCase{"(vector-set! 'v 0 1)"},
                      FaultCase{"(vector-length 0)"},
                      FaultCase{"(+ 1 'a)"}, FaultCase{"(- \"x\")"},
                      FaultCase{"(* 1 #t)"}, FaultCase{"(/ 'a 1)"},
                      FaultCase{"(quotient #f 1)"},
                      FaultCase{"(abs 'a)"}, FaultCase{"(add1 \"1\")"},
                      FaultCase{"(zero? 'z)"}, FaultCase{"(< 1 'two)"},
                      FaultCase{"(bitwise-and 'a 1)"},
                      FaultCase{"(arithmetic-shift #t 1)"},
                      FaultCase{"(string-length 'sym)"},
                      FaultCase{"(string-append \"a\" 5)"},
                      FaultCase{"(substring 5 0 1)"},
                      FaultCase{"(string-ref 'a 0)"},
                      FaultCase{"(string=? \"a\" 'a)"},
                      FaultCase{"(number->string \"5\")"},
                      FaultCase{"(string->number 5)"},
                      FaultCase{"(symbol->string \"s\")"},
                      FaultCase{"(string->symbol 'already)"},
                      FaultCase{"(char->integer 97)"},
                      FaultCase{"(integer->char #\\a)"}));
