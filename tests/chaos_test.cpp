//===-- tests/chaos_test.cpp - Fault-injection chaos harness ---*- C++ -*-===//
///
/// \file
/// The robustness layer under seeded fault injection: the FaultInjector's
/// deterministic schedules and spec validation, CancelToken deadlines and
/// budgets, LRU eviction and wipe recovery of the in-memory constraint
/// store, graceful degradation of over-budget analyzes, and the main
/// chaos loop — 500 randomized fault schedules against one long-lived
/// ServeSession, asserting every response stays well-formed and the
/// combined system returns to fault-free cold-run bytes once injection
/// stops.
///
/// Everything here runs with Threads=1: the injector's draw stream is
/// keyed on (seed, site, per-site draw count), so single-threaded runs
/// replay the identical fault schedule for a given spec.
///
//===----------------------------------------------------------------------===//

#include "serve/serve.h"
#include "support/cancel.h"
#include "support/faultinject.h"
#include "test_util.h"

#include <chrono>
#include <filesystem>
#include <random>
#include <thread>

using namespace spidey;
using namespace spidey::test;

namespace {

namespace fs = std::filesystem;

/// A scratch cache directory, wiped on construction and destruction.
struct ScratchDir {
  explicit ScratchDir(const char *Tag)
      : Path((fs::temp_directory_path() / Tag).string()) {
    fs::remove_all(Path);
  }
  ~ScratchDir() { fs::remove_all(Path); }
  std::string Path;
};

/// Disarms the global injector when a test exits, pass or fail: armed
/// sites must never leak into the next test.
struct FaultScope {
  FaultScope() { FaultInjector::instance().reset(); }
  ~FaultScope() { FaultInjector::instance().reset(); }
};

const std::string MainA = "(define r1 (first good))"
                          "(define r2 (second good))"
                          "(define r3 (first bad))";
const std::string MainB = MainA + "(define r4 \"chaos\")";

std::vector<SourceFile> filesWith(const std::string &MainText) {
  return {
      {"list.ss", "(define (first p) (car p))"
                  "(define (second p) (car (cdr p)))"},
      {"data.ss", "(define good (cons 1 (cons 'two '())))"
                  "(define bad 42)"},
      {"main.ss", MainText},
  };
}

/// Fault-free combined text of a cold session over the given main.ss.
std::string coldText(const std::string &MainText) {
  FaultInjector::instance().reset();
  ServeOptions O;
  O.Threads = 1;
  ServeSession C(O);
  C.setFiles(filesWith(MainText));
  return C.combinedText();
}

json::Value parsedResponse(const std::string &Resp) {
  std::string Error;
  std::optional<json::Value> V = json::Value::parse(Resp, &Error);
  EXPECT_TRUE(V) << "unparseable response: " << Resp << " (" << Error << ")";
  return V ? *V : json::Value();
}

json::Value editRequest(const std::string &File, const std::string &Text) {
  json::Value R = json::Value::object();
  R.set("cmd", "edit");
  R.set("file", File);
  R.set("text", Text);
  return R;
}

double num(const json::Value &R, std::string_view Key) {
  const json::Value *M = R.find(Key);
  EXPECT_TRUE(M && M->isNumber()) << "missing number member " << Key;
  return M ? M->asNumber() : -1;
}

/// A two-component chain program big enough that its derivation runs the
/// closure far past the cancellation poll stride (the budget tests need
/// real work to interrupt).
std::vector<SourceFile> chainProgram(int Defines) {
  std::string A = "(define c0 (cons 1 2))";
  for (int I = 1; I < Defines; ++I)
    A += "(define c" + std::to_string(I) + " (cons c" + std::to_string(I - 1) +
         " c" + std::to_string(I - 1) + "))";
  std::string B = "(define top (car c" + std::to_string(Defines - 1) + "))";
  return {{"chain.ss", A}, {"top.ss", B}};
}

} // namespace

//===----------------------------------------------------------------------===//
// FaultInjector: deterministic schedules and spec validation
//===----------------------------------------------------------------------===//

TEST(FaultInject, SameSpecReplaysIdenticalSchedule) {
  FaultScope Scope;
  FaultInjector &FI = FaultInjector::instance();
  auto draw = [&](const char *Spec) {
    std::string Error;
    EXPECT_TRUE(FI.configure(Spec, &Error)) << Error;
    std::vector<bool> Out;
    for (int I = 0; I < 200; ++I)
      Out.push_back(FI.shouldFail("cache.load"));
    return Out;
  };
  std::vector<bool> First = draw("seed=7,cache.load=0.4");
  std::vector<bool> Again = draw("seed=7,cache.load=0.4");
  EXPECT_EQ(First, Again);
  // Some decisions fire and some don't at p=0.4.
  EXPECT_NE(std::count(First.begin(), First.end(), true), 0);
  EXPECT_NE(std::count(First.begin(), First.end(), false), 0);
  // A different seed produces a different schedule.
  EXPECT_NE(draw("seed=8,cache.load=0.4"), First);
}

TEST(FaultInject, CountersAndExtremeProbabilities) {
  FaultScope Scope;
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("seed=3,cache.load=1,cache.write=0"));
  for (int I = 0; I < 50; ++I) {
    EXPECT_TRUE(FI.shouldFail("cache.load"));
    EXPECT_FALSE(FI.shouldFail("cache.write"));
    EXPECT_FALSE(FI.shouldFail("scf.parse")); // unarmed site never fires
  }
  EXPECT_EQ(FI.injectedAt("cache.load"), 50u);
  EXPECT_EQ(FI.injectedAt("cache.write"), 0u);
  EXPECT_EQ(FI.totalInjected(), 50u);
  FI.reset();
  EXPECT_FALSE(FI.enabled());
  EXPECT_EQ(FI.totalInjected(), 0u);
  EXPECT_FALSE(FI.shouldFail("cache.load"));
}

TEST(FaultInject, WildcardArmsEveryMatchingSite) {
  FaultScope Scope;
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("seed=1,store.*=1"));
  EXPECT_TRUE(FI.shouldFail("store.load"));
  EXPECT_TRUE(FI.shouldFail("store.store"));
  EXPECT_TRUE(FI.shouldFail("store.wipe"));
  EXPECT_FALSE(FI.shouldFail("cache.load"));
}

TEST(FaultInject, MalformedSpecsRejectedAndPreviousConfigKept) {
  FaultScope Scope;
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("seed=1,cache.load=1"));
  for (const char *Bad :
       {"no-such-site=0.5", "zzz.*=0.5", "cache.load=1.5", "cache.load=-0.1",
        "cache.load=abc", "cache.load", "seed=abc", "=0.5"}) {
    std::string Error;
    EXPECT_FALSE(FI.configure(Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
    // The previous (working) configuration survives a rejected spec.
    EXPECT_TRUE(FI.enabled()) << Bad;
    EXPECT_TRUE(FI.shouldFail("cache.load")) << Bad;
  }
  ASSERT_TRUE(FI.configure(""));
  EXPECT_FALSE(FI.enabled());
}

//===----------------------------------------------------------------------===//
// CancelToken: budgets and deadlines
//===----------------------------------------------------------------------===//

TEST(CancelTok, DisarmedTokenNeverCancels) {
  CancelToken T;
  EXPECT_FALSE(T.cancelled());
  EXPECT_FALSE(T.charge(1'000'000));
  EXPECT_EQ(T.workUsed(), 1'000'000u);
}

TEST(CancelTok, WorkBudgetLatches) {
  CancelToken T;
  T.setWorkBudget(10);
  EXPECT_FALSE(T.charge(5));
  EXPECT_FALSE(T.cancelled());
  EXPECT_TRUE(T.charge(6)); // 11 > 10: over budget, latches
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(T.charge(0)); // stays cancelled
}

TEST(CancelTok, DeadlinePassingCancels) {
  CancelToken T;
  T.setDeadlineMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(T.charge(1));
  EXPECT_TRUE(T.cancelled());
}

TEST(CancelTok, ExplicitCancelLatches) {
  CancelToken T;
  T.cancel();
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(T.charge(0));
}

TEST(CancelTok, RearmClearsLatchAndWork) {
  CancelToken T;
  T.setWorkBudget(10);
  EXPECT_TRUE(T.charge(11));
  EXPECT_TRUE(T.cancelled());

  // The latch and accumulated work are gone; the new budget is live.
  T.rearm(/*DeadlineMs=*/0, /*BudgetUnits=*/5);
  EXPECT_FALSE(T.cancelled());
  EXPECT_EQ(T.workUsed(), 0u);
  EXPECT_FALSE(T.charge(5));
  EXPECT_TRUE(T.charge(1)); // 6 > 5: over the new budget

  // Rearming to disarmed limits clears everything for good.
  T.rearm(0, 0);
  EXPECT_FALSE(T.cancelled());
  EXPECT_FALSE(T.charge(1'000'000));
}

//===----------------------------------------------------------------------===//
// MemoryConstraintStore: LRU eviction under a byte cap
//===----------------------------------------------------------------------===//

TEST(ChaosStore, LruEvictionUnderByteCap) {
  FaultScope Scope;
  MemoryConstraintStore St;
  St.store("a", std::string(100, 'a'));
  St.store("b", std::string(100, 'b'));
  St.store("c", std::string(100, 'c'));
  EXPECT_EQ(St.entries(), 3u);
  EXPECT_EQ(St.bytes(), 300u);

  // Touch "a" so "b" becomes least recently used, then cap below 300:
  // exactly "b" is evicted.
  ASSERT_TRUE(St.load("a"));
  St.setMaxBytes(250);
  EXPECT_EQ(St.entries(), 2u);
  EXPECT_EQ(St.bytes(), 200u);
  EXPECT_EQ(St.evictions(), 1u);
  EXPECT_FALSE(St.load("b"));
  EXPECT_TRUE(St.load("c"));
  EXPECT_TRUE(St.load("a"));

  // An oversized insert evicts as much as needed, never wedges.
  St.store("d", std::string(200, 'd'));
  EXPECT_LE(St.bytes(), 250u);
  EXPECT_TRUE(St.load("d"));
  EXPECT_GE(St.evictions(), 2u);

  St.clear();
  EXPECT_EQ(St.entries(), 0u);
  EXPECT_EQ(St.bytes(), 0u);
}

TEST(ChaosStore, SessionStoreCapOnlyCostsRederivation) {
  FaultScope Scope;
  ServeOptions O;
  O.Threads = 1;
  O.MaxStoreBytes = 1; // every entry evicted immediately
  ServeSession S(O);
  S.setFiles(filesWith(MainA));
  std::string First = S.combinedText();
  ASSERT_FALSE(First.empty());
  EXPECT_EQ(S.store().entries(), 0u);
  EXPECT_GT(S.store().evictions(), 0u);

  // Warm edits find nothing to reuse but still converge to the cold text.
  S.handle(editRequest("main.ss", MainB));
  json::Value R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  EXPECT_TRUE(R.find("ok")->asBool()) << R.dump();
  EXPECT_EQ(num(R, "reused"), 0);
  EXPECT_EQ(S.combinedText(), coldText(MainB));
}

//===----------------------------------------------------------------------===//
// Degradation: over-budget analyze answers degraded, then recovers
//===----------------------------------------------------------------------===//

TEST(ChaosDegrade, OverBudgetAnalyzeDegradesThenRecoversExactly) {
  FaultScope Scope;
  std::vector<SourceFile> Files = chainProgram(150);

  ServeOptions O;
  O.Threads = 1;
  O.MaxConstraints = 1; // one combine attempt: nothing can converge
  ServeSession S(O);
  S.setFiles(Files);

  json::Value R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(R.find("ok")->asBool()) << R.dump();
  const json::Value *Degraded = R.find("degraded");
  ASSERT_TRUE(Degraded && Degraded->asBool()) << R.dump();
  const json::Value *Unconverged = R.find("unconverged");
  ASSERT_TRUE(Unconverged && Unconverged->isArray()) << R.dump();
  EXPECT_FALSE(Unconverged->items().empty());
  EXPECT_TRUE(S.lastDegraded());

  // The session stays dirty: a degraded pass never masquerades as done.
  json::Value Stats = S.handle(parsedResponse(R"({"cmd":"stats"})"));
  EXPECT_TRUE(Stats.find("dirty")->asBool());
  EXPECT_EQ(num(Stats, "degraded"), 1);

  // Lift the budget through the protocol; the next analyze starts from
  // scratch and produces the exact cold-run system.
  json::Value Conf =
      S.handle(parsedResponse(R"({"cmd":"configure","max_constraints":0})"));
  ASSERT_TRUE(Conf.find("ok")->asBool()) << Conf.dump();
  json::Value Full = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(Full.find("ok")->asBool()) << Full.dump();
  EXPECT_EQ(Full.find("degraded"), nullptr) << Full.dump();
  EXPECT_FALSE(S.lastDegraded());

  ServeOptions Unlimited;
  Unlimited.Threads = 1;
  ServeSession Cold(Unlimited);
  Cold.setFiles(Files);
  std::string Want = Cold.combinedText();
  ASSERT_FALSE(Want.empty());
  EXPECT_EQ(S.combinedText(), Want);
}

// The combined close under a work budget: the token trips mid-close, the
// answer degrades with every component derived (the budget fell in the
// close phase, not in step 1), the session stays dirty, and the next
// in-budget pass reproduces the exact cold bytes. (The name is kept from
// when a sharded close engine ran this phase.)
TEST(ChaosDegrade, ShardedCloseBudgetTripsMidRoundThenRecovers) {
  FaultScope Scope;
  // One define per file: every chain link crosses a component boundary,
  // so after per-component simplification the propagation work lives in
  // the *combined* close — exactly the phase the budget must interrupt.
  // (chainProgram's two fat components would spend the budget in derive.)
  // 300 links keep the close's drain past the forced-poll stride, so the
  // close phase actually charges the token.
  std::vector<SourceFile> Files;
  Files.push_back({"c000.ss", "(define c0 (cons 1 2))"});
  for (int I = 1; I < 300; ++I) {
    std::string N = std::to_string(I), P = std::to_string(I - 1);
    Files.push_back({"c" + N + ".ss", "(define c" + N + " (cons c" + P +
                                          " (car c" + P + ")))"});
  }
  Files.push_back({"top.ss", "(define top (car c299))"});

  ServeOptions Base;
  Base.Threads = 1; // deterministic charge counts

  std::string Want;
  {
    ServeSession Cold(Base);
    Cold.setFiles(Files);
    Want = Cold.combinedText();
    ASSERT_FALSE(Want.empty());
  }

  // Classify a budget: where in the pass did it trip? The charge sequence
  // is deterministic at Threads=1, so classification is monotone in the
  // budget — binary-search the window where derive completes but the
  // combined close does not.
  enum class Trip { Derive, Close, None };
  auto classify = [&](uint64_t Budget, ServeSession *&Out) {
    ServeOptions O = Base;
    O.MaxConstraints = Budget;
    Out = new ServeSession(O);
    Out->setFiles(Files);
    json::Value R = Out->handle(parsedResponse(R"({"cmd":"analyze"})"));
    EXPECT_TRUE(R.find("ok")->asBool()) << R.dump();
    const json::Value *Degraded = R.find("degraded");
    if (!Degraded || !Degraded->asBool())
      return Trip::None;
    const json::Value *U = R.find("unconverged");
    EXPECT_TRUE(U && U->isArray()) << R.dump();
    if (U && !U->items().empty())
      return Trip::Derive;
    const json::Value *CC = R.find("close_converged");
    EXPECT_TRUE(CC) << R.dump();
    EXPECT_FALSE(CC && CC->asBool()) << R.dump();
    return Trip::Close;
  };

  uint64_t Lo = 1, Hi = 1;
  std::unique_ptr<ServeSession> MidClose;
  // Grow Hi until the pass completes, then bisect.
  for (; Hi < (uint64_t(1) << 30); Hi *= 2) {
    ServeSession *S = nullptr;
    Trip T = classify(Hi, S);
    if (T == Trip::Close)
      MidClose.reset(S);
    else
      delete S;
    if (T == Trip::None)
      break;
    if (MidClose)
      break;
    Lo = Hi;
  }
  while (!MidClose && Lo + 1 < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    ServeSession *S = nullptr;
    Trip T = classify(Mid, S);
    if (T == Trip::Close) {
      MidClose.reset(S);
      break;
    }
    delete S;
    (T == Trip::Derive ? Lo : Hi) = Mid;
  }
  ASSERT_TRUE(MidClose)
      << "no budget landed in the close phase (window empty?)";

  // Degraded-by-close pass: the session must stay dirty.
  json::Value Stats = MidClose->handle(parsedResponse(R"({"cmd":"stats"})"));
  EXPECT_TRUE(Stats.find("dirty")->asBool());
  EXPECT_GE(num(Stats, "degraded"), 1);

  // Lift the budget; the next pass starts from scratch and produces the
  // exact cold bytes.
  json::Value Conf = MidClose->handle(
      parsedResponse(R"({"cmd":"configure","max_constraints":0})"));
  ASSERT_TRUE(Conf.find("ok")->asBool()) << Conf.dump();
  json::Value Full = MidClose->handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(Full.find("ok")->asBool()) << Full.dump();
  EXPECT_EQ(Full.find("degraded"), nullptr) << Full.dump();
  EXPECT_EQ(MidClose->combinedText(), Want);
}

// Regression: a check-summary sweep that blows its budget or deadline
// latches the session token cancelled, and the partial path leaves the
// session clean — nothing else ever mints a fresh token. The next sweep
// must rearm the token instead of seeing the stale latch and answering
// degraded with zero components checked forever.
TEST(ChaosDegrade, CheckSummaryRecoversAfterDegradedSweep) {
  FaultScope Scope;
  std::vector<SourceFile> Files = chainProgram(150);

  ServeOptions O;
  O.Threads = 1;
  ServeSession S(O);
  S.setFiles(Files);
  ASSERT_TRUE(
      S.handle(parsedResponse(R"({"cmd":"analyze"})")).find("ok")->asBool());

  // Starve only the reconstruct sweep: the analyze above ran unlimited,
  // so the session stays clean while the sweep degrades.
  S.handle(parsedResponse(R"({"cmd":"configure","max_constraints":1})"));
  json::Value Starved = S.handle(parsedResponse(R"({"cmd":"check-summary"})"));
  ASSERT_TRUE(Starved.find("ok")->asBool()) << Starved.dump();
  const json::Value *Degraded = Starved.find("degraded");
  ASSERT_TRUE(Degraded && Degraded->asBool()) << Starved.dump();
  EXPECT_LT(num(Starved, "components_checked"), 2);

  // Unlimited again: the sweep runs fresh instead of inheriting the
  // latched cancellation, and matches a never-degraded session's summary.
  S.handle(parsedResponse(R"({"cmd":"configure","max_constraints":0})"));
  json::Value Healed = S.handle(parsedResponse(R"({"cmd":"check-summary"})"));
  ASSERT_TRUE(Healed.find("ok")->asBool()) << Healed.dump();
  EXPECT_EQ(Healed.find("degraded"), nullptr) << Healed.dump();

  ServeSession Cold(O);
  Cold.setFiles(Files);
  json::Value Want = Cold.handle(parsedResponse(R"({"cmd":"check-summary"})"));
  ASSERT_TRUE(Want.find("ok")->asBool()) << Want.dump();
  EXPECT_EQ(Healed.str("summary"), Want.str("summary"));
}

TEST(ChaosDegrade, DegradedPassNeverPoisonsTheCache) {
  FaultScope Scope;
  ScratchDir Dir("spidey-chaos-degrade-cache");
  std::vector<SourceFile> Files = chainProgram(150);

  ServeOptions O;
  O.Threads = 1;
  O.CacheDir = Dir.Path;
  O.MaxConstraints = 1;
  ServeSession S(O);
  S.setFiles(Files);
  json::Value R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(R.find("ok")->asBool());
  ASSERT_TRUE(R.find("degraded") && R.find("degraded")->asBool());
  // No partial constraint file may have been written for a timed-out
  // component: a fresh unlimited session over the same cache dir must
  // match a cache-less cold run byte for byte.
  ServeOptions FromCache;
  FromCache.Threads = 1;
  FromCache.CacheDir = Dir.Path;
  ServeSession S2(FromCache);
  S2.setFiles(Files);
  ServeOptions NoCache;
  NoCache.Threads = 1;
  ServeSession S3(NoCache);
  S3.setFiles(Files);
  std::string Want = S3.combinedText();
  ASSERT_FALSE(Want.empty());
  EXPECT_EQ(S2.combinedText(), Want);
}

//===----------------------------------------------------------------------===//
// Crash recovery: a wiped store warms back up from the disk cache
//===----------------------------------------------------------------------===//

TEST(ChaosRecovery, StoreWipeRefillsFromCacheDir) {
  FaultScope Scope;
  ScratchDir Dir("spidey-chaos-wipe");
  ServeOptions O;
  O.Threads = 1;
  O.CacheDir = Dir.Path;
  ServeSession S(O);
  S.setFiles(filesWith(MainA));
  ASSERT_FALSE(S.combinedText().empty());
  EXPECT_EQ(S.store().entries(), 3u);

  // The "crash": every in-memory entry is lost, the disk cache survives.
  S.store().clear();
  EXPECT_EQ(S.store().entries(), 0u);

  S.handle(editRequest("main.ss", MainB));
  json::Value R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(R.find("ok")->asBool()) << R.dump();
  // Both unchanged components come back as disk-cache hits, not fresh
  // derivations, and the hits refill the in-memory store.
  EXPECT_EQ(num(R, "reused"), 2);
  EXPECT_EQ(num(R, "cache_hits"), 2);
  EXPECT_EQ(S.store().entries(), 3u);
  EXPECT_EQ(S.combinedText(), coldText(MainB));
}

TEST(ChaosRecovery, InjectedWipeRecoversMidSession) {
  FaultScope Scope;
  ScratchDir Dir("spidey-chaos-injected-wipe");
  ServeOptions O;
  O.Threads = 1;
  O.CacheDir = Dir.Path;
  ServeSession S(O);
  S.setFiles(filesWith(MainA));
  ASSERT_FALSE(S.combinedText().empty());

  // store.wipe=1 clears the store at the head of every analyze pass;
  // every pass then rebuilds entirely from the disk cache.
  ASSERT_TRUE(FaultInjector::instance().configure("seed=5,store.wipe=1"));
  S.handle(editRequest("main.ss", MainB));
  json::Value R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(R.find("ok")->asBool()) << R.dump();
  EXPECT_EQ(num(R, "cache_hits"), 2);
  FaultInjector::instance().reset();
  EXPECT_EQ(S.combinedText(), coldText(MainB));
}

TEST(ChaosRecovery, ParseFaultsDrawOnlyForStoredTexts) {
  // scf.parse fails the commit of a stored text, which then re-derives. A
  // fresh derivation's own image never draws: a cold session under
  // scf.parse=1 builds the fault-free cold system and stays clean.
  FaultScope Scope;
  const std::string ColdA = coldText(MainA);
  const std::string ColdB = coldText(MainB);
  ServeOptions O;
  O.Threads = 1;
  ServeSession S(O);
  S.setFiles(filesWith(MainA));
  ASSERT_TRUE(FaultInjector::instance().configure("seed=3,scf.parse=1"));
  json::Value R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(R.find("ok")->asBool()) << R.dump();
  EXPECT_EQ(num(R, "rederived"), 3);
  EXPECT_EQ(S.combinedText(), ColdA);
  R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  EXPECT_FALSE(R.find("reanalyzed")->asBool()) << R.dump();

  // After an edit, both unchanged components are store hits whose commit
  // faults, so all three re-derive, to the cold bytes of the edit.
  S.handle(editRequest("main.ss", MainB));
  R = S.handle(parsedResponse(R"({"cmd":"analyze"})"));
  ASSERT_TRUE(R.find("ok")->asBool()) << R.dump();
  EXPECT_EQ(num(R, "reused"), 0);
  EXPECT_EQ(num(R, "rederived"), 3);
  EXPECT_EQ(S.combinedText(), ColdB);
}

//===----------------------------------------------------------------------===//
// The chaos loop: 500 randomized fault schedules, one surviving session
//===----------------------------------------------------------------------===//

TEST(Chaos, FiveHundredRandomSchedulesNeverWedgeOrCorrupt) {
  FaultScope Scope;
  ScratchDir Dir("spidey-chaos-loop");

  std::string RefA = coldText(MainA);
  std::string RefB = coldText(MainB);
  ASSERT_FALSE(RefA.empty());
  ASSERT_FALSE(RefB.empty());
  ASSERT_NE(RefA, RefB);

  ServeOptions O;
  O.Threads = 1;
  O.CacheDir = Dir.Path;
  ServeSession S(O);
  S.setFiles(filesWith(MainA));
  bool UsingB = false;

  // Fixed-seed PRNG: the whole run — fault schedules included — replays
  // identically, so a failure here is a deterministic repro.
  std::mt19937 Rng(0xC0FFEE);
  const std::vector<std::string> &Sites = faultSiteNames();
  const char *Hostile[] = {"definitely not json", "[1,2,3]", "{\"cmd\":42}",
                           "{\"cmd\":\"no-such\"}", "{}"};
  int IdentityChecks = 0;

  for (int Iter = 0; Iter < 500; ++Iter) {
    // A random subset of sites at random probabilities, reseeded per
    // iteration.
    std::string Spec = "seed=" + std::to_string(Iter + 1);
    for (const std::string &Site : Sites)
      if (Rng() % 2)
        Spec += "," + Site + "=0." + std::to_string(1 + Rng() % 9);
    std::string Error;
    ASSERT_TRUE(FaultInjector::instance().configure(Spec, &Error)) << Error;

    unsigned Ops = 1 + Rng() % 4;
    for (unsigned J = 0; J < Ops; ++J) {
      std::string Line;
      bool WantOk = true;
      switch (Rng() % 6) {
      case 0:
        Line = R"({"cmd":"analyze"})";
        break;
      case 1:
        UsingB = !UsingB;
        Line = editRequest("main.ss", UsingB ? MainB : MainA).dump();
        break;
      case 2:
        Line = R"({"cmd":"flow","name":"good"})";
        break;
      case 3:
        Line = R"({"cmd":"stats"})";
        break;
      case 4:
        Line = R"({"cmd":"check-summary"})";
        break;
      case 5:
        Line = Hostile[Rng() % (sizeof(Hostile) / sizeof(*Hostile))];
        WantOk = false;
        break;
      }
      // Whatever the fault schedule does, the session must answer every
      // line with a JSON object carrying a boolean "ok" — and since no
      // deadline is armed, lost cache or store entries only cost
      // re-derivation, so legitimate requests must succeed outright.
      json::Value R = parsedResponse(S.handleLine(Line));
      const json::Value *Ok = R.find("ok");
      ASSERT_TRUE(Ok && Ok->isBool())
          << "iteration " << Iter << ": " << Line;
      EXPECT_EQ(Ok->asBool(), WantOk)
          << "iteration " << Iter << ": " << Line << " -> " << R.dump();
    }

    // Periodically stop injecting and demand the exact fault-free bytes.
    if (Iter % 10 == 9) {
      FaultInjector::instance().reset();
      ASSERT_EQ(S.combinedText(), UsingB ? RefB : RefA)
          << "corrupt after iteration " << Iter;
      ++IdentityChecks;
    }
  }

  FaultInjector::instance().reset();
  EXPECT_EQ(S.combinedText(), UsingB ? RefB : RefA);
  EXPECT_EQ(IdentityChecks, 50);
  // The exception barrier never had to fire: fault paths are handled
  // paths, not crashes.
  EXPECT_EQ(S.totals().InternalErrors, 0u);
}
