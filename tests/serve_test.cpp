//===-- tests/serve_test.cpp - spidey-serve session tests ------*- C++ -*-===//
///
/// \file
/// The incremental re-analysis daemon: JSON protocol round-trips, warm
/// edits re-deriving only dirtied components, and byte-identity of the
/// warm combined system against a cold whole run at the same options.
///
//===----------------------------------------------------------------------===//

#include "componential/componential.h"
#include "constraints/const_kind.h"
#include "debugger/checks.h"
#include "debugger/flow.h"
#include "serve/serve.h"
#include "test_util.h"

#include <algorithm>

using namespace spidey;
using namespace spidey::test;

namespace {

const std::vector<SourceFile> ThreeFiles = {
    {"list.ss", "(define (first p) (car p))"
                "(define (second p) (car (cdr p)))"},
    {"data.ss", "(define good (cons 1 (cons 'two '())))"
                "(define bad 42)"},
    {"main.ss", "(define r1 (first good))"
                "(define r2 (second good))"
                "(define r3 (first bad))"},
};

json::Value request(const std::string &Text) {
  std::string Error;
  std::optional<json::Value> V = json::Value::parse(Text, &Error);
  EXPECT_TRUE(V) << Error;
  return V ? *V : json::Value();
}

double num(const json::Value &R, std::string_view Key) {
  const json::Value *M = R.find(Key);
  EXPECT_TRUE(M && M->isNumber()) << "missing number member " << Key;
  return M ? M->asNumber() : -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON plumbing
//===----------------------------------------------------------------------===//

TEST(ServeJson, ParseDumpRoundTrip) {
  const char *Text =
      R"js({"cmd":"edit","file":"a.ss","n":3,"neg":-2.5,"flag":true,)js"
      R"js("none":null,"list":[1,"two",[]],"esc":"a\"b\\c\ndA"})js";
  std::string Error;
  std::optional<json::Value> V = json::Value::parse(Text, &Error);
  ASSERT_TRUE(V) << Error;
  EXPECT_EQ(V->str("cmd"), "edit");
  EXPECT_EQ(V->str("file"), "a.ss");
  EXPECT_EQ(V->find("n")->asNumber(), 3);
  EXPECT_EQ(V->find("neg")->asNumber(), -2.5);
  EXPECT_TRUE(V->find("flag")->asBool());
  EXPECT_TRUE(V->find("none")->isNull());
  EXPECT_EQ(V->find("list")->items().size(), 3u);
  EXPECT_EQ(V->find("esc")->asString(), "a\"b\\c\ndA");
  // Dump → parse is stable (insertion order is preserved).
  std::string Dumped = V->dump();
  std::optional<json::Value> Again = json::Value::parse(Dumped);
  ASSERT_TRUE(Again);
  EXPECT_EQ(Again->dump(), Dumped);
}

TEST(ServeJson, RejectsMalformedInput) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "{\"a\":1}x", "nul",
        "\"unterminated", "{\"a\" 1}"}) {
    std::string Error;
    EXPECT_FALSE(json::Value::parse(Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

TEST(ServeJson, NumbersDumpAsIntegersWhenExact) {
  json::Value V = json::Value::object();
  V.set("count", size_t(42));
  V.set("ms", 1.5);
  EXPECT_EQ(V.dump(), "{\"count\":42,\"ms\":1.5}");
}

//===----------------------------------------------------------------------===//
// Protocol round-trips
//===----------------------------------------------------------------------===//

TEST(Serve, AnalyzeEditAnalyzeRederivesOnlyDirtied) {
  ServeSession S({});
  S.setFiles(ThreeFiles);

  json::Value First = S.handle(request(R"js({"cmd":"analyze"})js"));
  EXPECT_TRUE(First.find("ok")->asBool());
  EXPECT_EQ(num(First, "components"), 3);
  EXPECT_EQ(num(First, "rederived"), 3);
  EXPECT_EQ(num(First, "reused"), 0);

  // A clean re-analyze is a no-op: everything already resident.
  json::Value Clean = S.handle(request(R"js({"cmd":"analyze"})js"));
  EXPECT_FALSE(Clean.find("reanalyzed")->asBool());

  // Edit main.ss keeping its foreign references: only main.ss rederives.
  json::Value Edit = S.handle(request(
      R"js({"cmd":"edit","file":"main.ss","text":"(define r1 (first good))(define r2 (second good))(define r3 (first bad))(define r4 \"warm\")"})js"));
  ASSERT_TRUE(Edit.find("ok")->asBool()) << Edit.dump();

  json::Value Warm = S.handle(request(R"js({"cmd":"analyze"})js"));
  EXPECT_TRUE(Warm.find("reanalyzed")->asBool());
  EXPECT_EQ(num(Warm, "rederived"), 1);
  EXPECT_EQ(num(Warm, "reused"), 2);
  EXPECT_EQ(num(Warm, "cache_hits"), 2);
  // The store is content-addressed (componentStoreKey), so the edited
  // component's probe simply misses — its new source hash forms a new
  // key; the old image is never *found* and re-validated. Stale-hash
  // invalidation still exists on the name-keyed disk-cache path.
  EXPECT_EQ(num(Warm, "cache_invalidations"), 0);
  EXPECT_EQ(num(Warm, "cache_misses"), 1);
  const json::Value *Per = Warm.find("per_component");
  ASSERT_TRUE(Per && Per->isArray());
  EXPECT_EQ(Per->items()[0].str("cache"), "hit");
  EXPECT_EQ(Per->items()[2].str("cache"), "miss-no-entry");
}

TEST(Serve, ByteIdenticalEditKeepsSessionClean) {
  ServeSession S({});
  S.setFiles(ThreeFiles);
  ASSERT_TRUE(
      S.handle(request(R"js({"cmd":"analyze"})js")).find("ok")->asBool());

  // Re-sending the file's current text is a no-op: nothing to re-derive,
  // the session stays clean, and the warm query generation survives.
  json::Value NoOp = S.handle(request(
      R"js({"cmd":"edit","file":"main.ss","text":"(define r1 (first good))(define r2 (second good))(define r3 (first bad))"})js"));
  ASSERT_TRUE(NoOp.find("ok")->asBool()) << NoOp.dump();
  ASSERT_TRUE(NoOp.find("changed"));
  EXPECT_FALSE(NoOp.find("changed")->asBool(true));
  EXPECT_EQ(S.totals().Edits, 1u);

  json::Value After = S.handle(request(R"js({"cmd":"analyze"})js"));
  EXPECT_TRUE(After.find("ok")->asBool());
  EXPECT_FALSE(After.find("reanalyzed")->asBool(true));

  // A real edit still dirties and reports so.
  json::Value Real = S.handle(request(
      R"js({"cmd":"edit","file":"main.ss","text":"(define r1 (first good))"})js"));
  ASSERT_TRUE(Real.find("ok")->asBool());
  EXPECT_TRUE(Real.find("changed")->asBool(false));
  json::Value Again = S.handle(request(R"js({"cmd":"analyze"})js"));
  EXPECT_TRUE(Again.find("reanalyzed")->asBool(false));
}

TEST(Serve, WarmEditMatchesColdRunByteForByte) {
  std::vector<SourceFile> Edited = ThreeFiles;
  Edited[2].Text = "(define r1 (first good))"
                   "(define r2 (second good))"
                   "(define r3 (first bad))"
                   "(define r4 \"warm\")";

  // Warm: analyze, edit one component, re-analyze incrementally.
  ServeSession Warm({});
  Warm.setFiles(ThreeFiles);
  ASSERT_FALSE(Warm.combinedText().empty());
  Warm.handle(request(
      R"js({"cmd":"edit","file":"main.ss","text":"(define r1 (first good))(define r2 (second good))(define r3 (first bad))(define r4 \"warm\")"})js"));
  std::string WarmText = Warm.combinedText();
  EXPECT_EQ(Warm.lastRun().ComponentsRederived, 1u);
  EXPECT_EQ(Warm.lastRun().ComponentsReused, 2u);

  // Cold: a fresh session over the edited sources, everything rederived.
  ServeSession Cold({});
  Cold.setFiles(Edited);
  std::string ColdText = Cold.combinedText();
  EXPECT_EQ(Cold.lastRun().ComponentsRederived, 3u);

  ASSERT_FALSE(WarmText.empty());
  EXPECT_EQ(WarmText, ColdText);
}

TEST(Serve, FlowAndCheckSummary) {
  ServeSession S({});
  S.setFiles(ThreeFiles);

  json::Value Flow = S.handle(request(R"js({"cmd":"flow","name":"good"})js"));
  ASSERT_TRUE(Flow.find("ok")->asBool()) << Flow.dump();
  const json::Value *Kinds = Flow.find("kinds");
  ASSERT_TRUE(Kinds && Kinds->isArray());
  ASSERT_EQ(Kinds->items().size(), 1u);
  EXPECT_EQ(Kinds->items()[0].asString(), "pair");
  EXPECT_GT(num(Flow, "descendants"), 0);

  json::Value Missing =
      S.handle(request(R"js({"cmd":"flow","name":"no-such"})js"));
  EXPECT_FALSE(Missing.find("ok")->asBool());

  // (first bad) applies car to a num: exactly one unsafe check.
  json::Value Checks = S.handle(request(R"js({"cmd":"check-summary"})js"));
  ASSERT_TRUE(Checks.find("ok")->asBool()) << Checks.dump();
  EXPECT_EQ(num(Checks, "unsafe"), 1);
  EXPECT_NE(Checks.str("summary").find("car check"), std::string::npos);
}

// A structure built in lib.ss and read in main.ss: the session's summary
// is the standard analysis's, both cold and after an edit that serves
// lib.ss from the store. Only (point-x box) is unsafe.
TEST(Serve, CrossFileStructSummaryMatchesWhole) {
  std::vector<SourceFile> Files = {
      {"lib.ss", "(define-struct point (x y))\n"
                 "(define-struct size (w h))\n"
                 "(define origin (make-point 0 0))\n"
                 "(define box (make-size 3 4))\n"},
      {"main.ss", "(define ox (point-x origin))\n"
                  "(define bx (point-x box))\n"
                  "(define bw (size-w box))\n"},
  };
  Parsed W = parseFiles(Files);
  ASSERT_TRUE(W.Ok) << W.Diags.str();
  Analysis Whole = analyzeProgram(*W.Prog);
  const std::string Want =
      runChecks(*W.Prog, Whole.Maps, *Whole.System).summary(*W.Prog);
  EXPECT_NE(Want.find("TOTAL CHECKS: 1 "), std::string::npos) << Want;

  ServeSession S({});
  S.setFiles(Files);
  json::Value Cold = S.handle(request(R"js({"cmd":"check-summary"})js"));
  ASSERT_TRUE(Cold.find("ok")->asBool()) << Cold.dump();
  EXPECT_EQ(Cold.str("summary"), Want);

  json::Value Req = json::Value::object();
  Req.set("cmd", "edit");
  Req.set("file", "main.ss");
  Req.set("text", Files[1].Text + "(define probe 1)\n");
  ASSERT_TRUE(S.handle(Req).find("ok")->asBool());
  json::Value Analyzed = S.handle(request(R"js({"cmd":"analyze"})js"));
  EXPECT_EQ(num(Analyzed, "reused"), 1);
  json::Value Warm = S.handle(request(R"js({"cmd":"check-summary"})js"));
  ASSERT_TRUE(Warm.find("ok")->asBool()) << Warm.dump();
  EXPECT_EQ(Warm.str("summary"), Want);
}

TEST(Serve, StatsAndErrors) {
  ServeSession S({});
  S.setFiles(ThreeFiles);
  S.handle(request(R"js({"cmd":"analyze"})js"));

  json::Value Stats = S.handle(request(R"js({"cmd":"stats"})js"));
  EXPECT_TRUE(Stats.find("ok")->asBool());
  EXPECT_EQ(num(Stats, "analyzes"), 1);
  EXPECT_EQ(num(Stats, "components_rederived"), 3);
  EXPECT_EQ(num(Stats, "store_entries"), 3);
  EXPECT_GT(num(Stats, "store_bytes"), 0);

  EXPECT_FALSE(
      S.handle(request(R"js({"cmd":"edit","file":"nope.ss"})js")).find("ok")->asBool());
  EXPECT_FALSE(S.handle(request(R"js({"cmd":"wat"})js")).find("ok")->asBool());
  EXPECT_FALSE(S.handle(request(R"js({"x":1})js")).find("ok")->asBool());

  // A broken edit surfaces the parse diagnostics, and the session
  // recovers once the source is fixed.
  S.handle(request(
      R"js({"cmd":"edit","file":"main.ss","text":"(define r1 (oops"})js"));
  json::Value Broken = S.handle(request(R"js({"cmd":"analyze"})js"));
  EXPECT_FALSE(Broken.find("ok")->asBool());
  EXPECT_FALSE(Broken.str("error").empty());
  S.handle(request(
      R"js({"cmd":"edit","file":"main.ss","text":"(define r1 (first good))"})js"));
  EXPECT_TRUE(
      S.handle(request(R"js({"cmd":"analyze"})js")).find("ok")->asBool());

  // handleLine rejects garbage without dying.
  EXPECT_NE(S.handleLine("not json").find("\"ok\":false"), std::string::npos);

  json::Value Bye = S.handle(request(R"js({"cmd":"shutdown"})js"));
  EXPECT_TRUE(Bye.find("ok")->asBool());
  EXPECT_TRUE(S.shutdownRequested());
}

//===----------------------------------------------------------------------===//
// Hostile input
//===----------------------------------------------------------------------===//

// Every hostile line gets a structured refusal with a *stable* machine-
// readable code — clients branch on these, so the table pins them down —
// and the session keeps serving afterwards.
TEST(ServeHostile, StructuredErrorCodesAreStable) {
  struct Case {
    const char *Line;
    const char *Code;
  };
  const Case Cases[] = {
      // Transport garbage.
      {"", "bad-json"},
      {"not json at all", "bad-json"},
      {"{\"cmd\":\"analyze\"", "bad-json"},
      {"{\"cmd\":\"analyze\"}trailing", "bad-json"},
      // Valid JSON, wrong shape.
      {"[1,2,3]", "bad-request"},
      {"42", "bad-request"},
      {"\"analyze\"", "bad-request"},
      {"null", "bad-request"},
      {"{}", "bad-request"},
      {"{\"verb\":\"analyze\"}", "bad-request"},
      // Mistyped or unknown commands.
      {"{\"cmd\":42}", "bad-cmd"},
      {"{\"cmd\":null}", "bad-cmd"},
      {"{\"cmd\":[\"analyze\"]}", "bad-cmd"},
      {"{\"cmd\":\"analyse\"}", "unknown-cmd"},
      {"{\"cmd\":\"\"}", "unknown-cmd"},
      // Well-formed commands with hostile fields.
      {"{\"cmd\":\"edit\"}", "bad-field"},
      {"{\"cmd\":\"edit\",\"file\":7}", "bad-field"},
      {"{\"cmd\":\"edit\",\"file\":\"nope.ss\",\"text\":\"x\"}",
       "unknown-file"},
      {"{\"cmd\":\"edit\",\"file\":\"main.ss\",\"text\":[]}", "bad-field"},
      {"{\"cmd\":\"flow\"}", "bad-field"},
      {"{\"cmd\":\"flow\",\"name\":3}", "bad-field"},
      {"{\"cmd\":\"flow\",\"name\":\"no-such\"}", "unknown-name"},
      {"{\"cmd\":\"configure\",\"deadline_ms\":\"fast\"}", "bad-field"},
      {"{\"cmd\":\"configure\",\"deadline_ms\":-5}", "bad-field"},
      // Out of uint64 range: converting would be undefined behavior.
      {"{\"cmd\":\"configure\",\"deadline_ms\":1e300}", "bad-field"},
      {"{\"cmd\":\"configure\",\"max_constraints\":2e19}", "bad-field"},
      // Fractional limits: silently truncating 1.5ms to 1ms would honor
      // a deadline the client never asked for.
      {"{\"cmd\":\"configure\",\"deadline_ms\":1.5}", "bad-field"},
      {"{\"cmd\":\"configure\",\"max_constraints\":0.25}", "bad-field"},
      {"{\"cmd\":\"configure\",\"max_store_bytes\":99.9}", "bad-field"},
      {"{\"cmd\":\"configure\",\"faults\":\"no-such-site=1\"}", "bad-field"},
      {"{\"cmd\":\"configure\",\"faults\":17}", "bad-field"},
      // The multi-tenant "open" command's hostile shapes.
      {"{\"cmd\":\"open\"}", "bad-field"},
      {"{\"cmd\":\"open\",\"files\":\"main.ss\"}", "bad-field"},
      {"{\"cmd\":\"open\",\"files\":[42]}", "bad-field"},
      {"{\"cmd\":\"open\",\"files\":[\"/no/such/file.ss\"]}",
       "unknown-file"},
  };

  ServeSession S({});
  S.setFiles(ThreeFiles);
  for (const Case &C : Cases) {
    std::string Resp = S.handleLine(C.Line);
    std::string Error;
    std::optional<json::Value> R = json::Value::parse(Resp, &Error);
    ASSERT_TRUE(R) << "unparseable response to '" << C.Line << "': " << Resp;
    const json::Value *Ok = R->find("ok");
    ASSERT_TRUE(Ok && Ok->isBool()) << C.Line;
    EXPECT_FALSE(Ok->asBool()) << C.Line;
    EXPECT_EQ(R->str("code"), C.Code) << C.Line << " -> " << Resp;
    EXPECT_FALSE(R->str("error").empty()) << C.Line;
  }
  // None of it hurt the session: hostile input is an answered request,
  // not an internal error, and real work still succeeds.
  EXPECT_EQ(S.totals().InternalErrors, 0u);
  EXPECT_EQ(S.totals().Errors, sizeof(Cases) / sizeof(*Cases));
  EXPECT_TRUE(
      S.handle(request(R"js({"cmd":"analyze"})js")).find("ok")->asBool());
}

TEST(ServeHostile, LineTooLongResponseIsStructured) {
  std::string Resp = ServeSession::lineTooLongResponse(1 << 20);
  std::optional<json::Value> R = json::Value::parse(Resp);
  ASSERT_TRUE(R) << Resp;
  EXPECT_FALSE(R->find("ok")->asBool());
  EXPECT_EQ(R->str("code"), "line-too-long");
  EXPECT_NE(R->str("error").find("1048576"), std::string::npos);
}

TEST(ServeHostile, DegradedFlagAbsentOnHealthyRuns) {
  ServeSession S({});
  S.setFiles(ThreeFiles);
  json::Value R = S.handle(request(R"js({"cmd":"analyze"})js"));
  ASSERT_TRUE(R.find("ok")->asBool());
  EXPECT_EQ(R.find("degraded"), nullptr);
  EXPECT_EQ(R.find("unconverged"), nullptr);
}

//===----------------------------------------------------------------------===//
// Demand-driven queries (DESIGN.md §12)
//===----------------------------------------------------------------------===//

namespace {

/// What the pre-demand-driven flow path reported: a fresh reference
/// analyzer (same deterministic numbering as the session) and a fresh
/// FlowGraph per query.
struct FlowRef {
  SetVar Var = NoSetVar;
  std::vector<std::string> Kinds;
  size_t Parents = 0, Children = 0, Ancestors = 0, Descendants = 0;
};

FlowRef flowReference(const std::vector<SourceFile> &Files,
                      const std::string &Name) {
  FlowRef F;
  Parsed PR = parseFiles(Files);
  EXPECT_TRUE(PR.Ok) << PR.Diags.str();
  if (!PR.Ok)
    return F;
  ComponentialOptions CO;
  CO.Threads = 1;
  ComponentialAnalyzer CA(*PR.Prog, CO);
  CA.run();
  for (VarId V = 0; V < PR.Prog->numVars(); ++V) {
    const VarInfo &Info = PR.Prog->var(V);
    if (!Info.TopLevel || PR.Prog->Syms.name(Info.Name) != Name)
      continue;
    const ConstraintSystem &S = CA.combined();
    F.Var = CA.maps().varVar(V);
    for (Constant C : S.constantsOf(F.Var))
      F.Kinds.push_back(constKindName(S.context().Constants.kind(C)));
    std::sort(F.Kinds.begin(), F.Kinds.end());
    F.Kinds.erase(std::unique(F.Kinds.begin(), F.Kinds.end()), F.Kinds.end());
    FlowGraph FG(S);
    F.Parents = FG.parents(F.Var).size();
    F.Children = FG.children(F.Var).size();
    F.Ancestors = FG.ancestors(F.Var).size();
    F.Descendants = FG.descendants(F.Var).size();
    break; // first definition wins, matching the serve lookup
  }
  return F;
}

/// Asserts one flow response carries exactly the reference payload.
void expectFlowMatches(const json::Value &R, const FlowRef &F,
                       const std::string &Name) {
  ASSERT_TRUE(R.find("ok")->asBool()) << Name << ": " << R.dump();
  EXPECT_EQ(R.find("degraded"), nullptr) << Name;
  EXPECT_EQ(num(R, "var"), double(F.Var)) << Name;
  EXPECT_EQ(num(R, "parents"), double(F.Parents)) << Name;
  EXPECT_EQ(num(R, "children"), double(F.Children)) << Name;
  EXPECT_EQ(num(R, "ancestors"), double(F.Ancestors)) << Name;
  EXPECT_EQ(num(R, "descendants"), double(F.Descendants)) << Name;
  const json::Value *Kinds = R.find("kinds");
  ASSERT_TRUE(Kinds && Kinds->isArray()) << Name;
  std::vector<std::string> Got;
  for (const json::Value &K : Kinds->items())
    Got.push_back(K.asString());
  EXPECT_EQ(Got, F.Kinds) << Name;
}

} // namespace

// Table-driven payloads: every top-level name of the three-file program,
// cold and memoized-warm, against the per-request FlowGraph path the
// query engine replaced.
TEST(ServeQuery, FlowPayloadsMatchReferenceAnalyzer) {
  const char *Names[] = {"first", "second", "good", "bad", "r1", "r2", "r3"};
  ServeSession S({});
  S.setFiles(ThreeFiles);
  for (const char *Name : Names) {
    FlowRef F = flowReference(ThreeFiles, std::string(Name));
    json::Value Req = json::Value::object();
    Req.set("cmd", "flow");
    Req.set("name", std::string(Name));
    json::Value Cold = S.handle(Req);
    expectFlowMatches(Cold, F, Name);
    EXPECT_EQ(Cold.find("memoized"), nullptr) << Name;
    // The warm repeat is served from the region-summary memo — and must
    // be payload-identical.
    json::Value Warm = S.handle(Req);
    expectFlowMatches(Warm, F, Name);
    ASSERT_NE(Warm.find("memoized"), nullptr) << Name;
    EXPECT_TRUE(Warm.find("memoized")->asBool()) << Name;
  }
}

// The legacy path resolved a flow name by scanning every program variable
// per request; the engine builds one Name -> VarId index per generation
// and answers even the last-defined name through it. The stats counters
// pin the regression: many queries, one name-index build, one flow-index
// build.
TEST(ServeQuery, LateBoundNameUsesOneNameIndexBuild) {
  ServeSession S({});
  S.setFiles(ThreeFiles);
  // "r3" is the last top-level definition of the last file — the worst
  // case for the old ascending scan.
  for (int I = 0; I < 8; ++I) {
    json::Value R = S.handle(request(R"js({"cmd":"flow","name":"r3"})js"));
    ASSERT_TRUE(R.find("ok")->asBool()) << R.dump();
  }
  S.handle(request(R"js({"cmd":"flow","name":"first"})js"));
  json::Value Stats = S.handle(request(R"js({"cmd":"stats"})js"));
  EXPECT_EQ(num(Stats, "name_index_builds"), 1);
  EXPECT_EQ(num(Stats, "flow_index_builds"), 1);
  EXPECT_EQ(num(Stats, "flow_queries"), 9);
  EXPECT_GE(num(Stats, "flow_memo_hits"), 7);
}

// The incremental summary: a self-contained edit to one component must
// re-check exactly that component, and the reassembled summary must be
// byte-identical to a cold session over the edited sources.
TEST(ServeQuery, SummaryRechecksExactlyTheEditedComponent) {
  ServeSession S({});
  S.setFiles(ThreeFiles);
  json::Value Cold = S.handle(request(R"js({"cmd":"check-summary"})js"));
  ASSERT_TRUE(Cold.find("ok")->asBool()) << Cold.dump();
  EXPECT_EQ(num(Cold, "components_rechecked"), 3);
  EXPECT_EQ(num(Cold, "components_reused"), 0);

  // Warm repeat: nothing changed, every verdict reused.
  json::Value Warm = S.handle(request(R"js({"cmd":"check-summary"})js"));
  EXPECT_EQ(num(Warm, "components_rechecked"), 0);
  EXPECT_EQ(num(Warm, "components_reused"), 3);
  EXPECT_EQ(Warm.str("summary"), Cold.str("summary"));

  // Append a self-contained define to main.ss: one component dirtied,
  // one component rechecked.
  std::vector<SourceFile> Edited = ThreeFiles;
  Edited[2].Text += "(define probe \"q\")";
  json::Value Req = json::Value::object();
  Req.set("cmd", "edit");
  Req.set("file", Edited[2].Name);
  Req.set("text", Edited[2].Text);
  ASSERT_TRUE(S.handle(Req).find("ok")->asBool());
  json::Value AfterEdit = S.handle(request(R"js({"cmd":"check-summary"})js"));
  ASSERT_TRUE(AfterEdit.find("ok")->asBool()) << AfterEdit.dump();
  EXPECT_EQ(num(AfterEdit, "components_rechecked"), 1);
  EXPECT_EQ(num(AfterEdit, "components_reused"), 2);

  ServeSession Fresh({});
  Fresh.setFiles(Edited);
  json::Value Ref = Fresh.handle(request(R"js({"cmd":"check-summary"})js"));
  EXPECT_EQ(AfterEdit.str("summary"), Ref.str("summary"));
  EXPECT_EQ(num(AfterEdit, "possible"), num(Ref, "possible"));
  EXPECT_EQ(num(AfterEdit, "unsafe"), num(Ref, "unsafe"));
}

// A flow query against a generation whose analyze was cut short answers
// over the partial system with degraded:true instead of failing; lifting
// the budget recovers the exact payload. The program is a long cons
// chain so a one-unit budget actually trips the closure's poll stride.
TEST(ServeQuery, FlowAfterDegradedAnalyzeRecoversExactly) {
  std::string Chain = "(define c0 (cons 1 2))";
  for (int I = 1; I < 150; ++I)
    Chain += "(define c" + std::to_string(I) + " (cons c" +
             std::to_string(I - 1) + " c" + std::to_string(I - 1) + "))";
  std::vector<SourceFile> Files = {{"chain.ss", Chain},
                                   {"top.ss", "(define top (car c149))"}};
  ServeOptions O;
  O.Threads = 1;
  ServeSession S(O);
  S.setFiles(Files);
  FlowRef F = flowReference(Files, "top");
  json::Value Exact = S.handle(request(R"js({"cmd":"flow","name":"top"})js"));
  expectFlowMatches(Exact, F, "top");

  // Dirty the session, then strangle the analyze budget: the next flow
  // rides a degraded generation. The volatile generation never reads the
  // memo, so the stale exact answer cannot leak through.
  std::vector<SourceFile> Edited = Files;
  Edited[1].Text = "(define top (car c149))(define extra (cdr c149))";
  json::Value EditReq = json::Value::object();
  EditReq.set("cmd", "edit");
  EditReq.set("file", Edited[1].Name);
  EditReq.set("text", Edited[1].Text);
  ASSERT_TRUE(S.handle(EditReq).find("ok")->asBool());
  S.handle(request(R"js({"cmd":"configure","max_constraints":1})js"));
  json::Value Degraded =
      S.handle(request(R"js({"cmd":"flow","name":"top"})js"));
  ASSERT_TRUE(Degraded.find("ok")->asBool()) << Degraded.dump();
  ASSERT_NE(Degraded.find("degraded"), nullptr) << Degraded.dump();
  EXPECT_TRUE(Degraded.find("degraded")->asBool());
  EXPECT_EQ(Degraded.find("memoized"), nullptr) << Degraded.dump();

  // Budget restored: clean re-analyze, exact answer over the edited
  // program.
  S.handle(request(R"js({"cmd":"configure","max_constraints":0})js"));
  json::Value Recovered =
      S.handle(request(R"js({"cmd":"flow","name":"top"})js"));
  expectFlowMatches(Recovered, flowReference(Edited, "top"), "top");
}

// Mid-walk cancellation: the analyze is clean and in budget, but the
// reachability walk itself trips the work budget. The response is still
// well-formed and the next in-budget query is exact.
TEST(ServeQuery, MidQueryCancellationDegradesThenRecovers) {
  ServeSession S({});
  S.setFiles(ThreeFiles);
  // Analyze (and memoize "good") with no limits armed.
  json::Value Exact = S.handle(request(R"js({"cmd":"flow","name":"good"})js"));
  expectFlowMatches(Exact, flowReference(ThreeFiles, "good"), "good");

  // A one-unit budget: the analyze is a no-op (session clean), so only
  // the walk charges it. "r2" has not been queried yet — no memo to
  // answer from — and its walk visits more than one variable, so it
  // degrades with partial counts and is not memoized.
  S.handle(request(R"js({"cmd":"configure","max_constraints":1})js"));
  json::Value Degraded = S.handle(request(R"js({"cmd":"flow","name":"r2"})js"));
  ASSERT_TRUE(Degraded.find("ok")->asBool()) << Degraded.dump();
  ASSERT_NE(Degraded.find("degraded"), nullptr) << Degraded.dump();
  EXPECT_EQ(Degraded.find("memoized"), nullptr);

  S.handle(request(R"js({"cmd":"configure","max_constraints":0})js"));
  json::Value Recovered =
      S.handle(request(R"js({"cmd":"flow","name":"r2"})js"));
  expectFlowMatches(Recovered, flowReference(ThreeFiles, "r2"), "r2");

  json::Value Stats = S.handle(request(R"js({"cmd":"stats"})js"));
  EXPECT_GE(num(Stats, "query_degraded"), 1);
}
