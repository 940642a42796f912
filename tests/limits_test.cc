// Tests for the unified resource governor: every budget kind trips with
// a diagnostic naming the budget and the tripping subsystem, Cancel()
// works from another thread, and partial-results mode keeps the model
// computed so far.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/limits.h"
#include "core/answer_enumerator.h"
#include "core/idlog_engine.h"
#include "eval/engine_impl.h"
#include "parser/parser.h"
#include "storage/csv.h"
#include "storage/tid_assigner.h"
#include "test_util.h"

namespace idlog {
namespace {

// Safe (the head variable is builtin-bound) but has an infinite
// fixpoint: evaluation only stops when a budget trips.
constexpr char kNonTerminating[] =
    "p(0).\n"
    "p(X) :- p(Y), X = Y + 1.\n";

TEST(ResourceGovernor, UnlimitedByDefault) {
  ResourceGovernor gov;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(gov.CheckPoint().ok());
  }
  EXPECT_TRUE(gov.OnDerived(1000, 1 << 20).ok());
  EXPECT_TRUE(gov.OnIteration().ok());
  EXPECT_FALSE(gov.tripped());
}

TEST(ResourceGovernor, TripLatchesUntilRearmed) {
  ResourceGovernor gov(EvalLimits::TupleBudget(5));
  EXPECT_TRUE(gov.OnDerived(5, 0).ok());
  Status st = gov.OnDerived(1, 0);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // Latched: every later check reports the same trip.
  EXPECT_EQ(gov.CheckPoint().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.OnIteration().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.trip().budget, BudgetKind::kTuples);
  gov.Arm(EvalLimits::TupleBudget(5));
  EXPECT_FALSE(gov.tripped());
  EXPECT_TRUE(gov.CheckPoint().ok());
}

TEST(ResourceGovernor, CancelObservedWithinOneProbeInterval) {
  ResourceGovernor gov;
  gov.Cancel();
  Status st = Status::OK();
  uint64_t units = 0;
  while (st.ok() && units < 10 * ResourceGovernor::kProbeInterval) {
    st = gov.CheckPoint();
    ++units;
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(units, ResourceGovernor::kProbeInterval + 1);
  EXPECT_EQ(gov.trip().budget, BudgetKind::kCancelled);
}

TEST(ResourceGovernor, ScopeGuardRestoresStatsSourceAndLabels) {
  ResourceGovernor gov(EvalLimits::TupleBudget(1));
  gov.set_scope("outer");
  {
    EvalStats inner_stats;
    GovernorScope scope(&gov, &inner_stats, "inner");
    EXPECT_EQ(gov.scope(), "inner");
    EXPECT_EQ(gov.stats_source(), &inner_stats);
    gov.set_stratum(3);
  }
  EXPECT_EQ(gov.scope(), "outer");
  EXPECT_EQ(gov.stratum(), -1);
  EXPECT_EQ(gov.stats_source(), nullptr);
  // A trip after the guard exits blames the outer scope, not the dead
  // inner one.
  Status st = gov.OnDerived(2, 0);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("outer"), std::string::npos)
      << st.ToString();
}

TEST(ResourceGovernor, RearmClearsLabelsAndStatsSource) {
  ResourceGovernor gov;
  EvalStats stats;
  gov.set_scope("stale");
  gov.set_stratum(5);
  gov.set_stats_source(&stats);
  gov.Arm(EvalLimits::TupleBudget(10));
  EXPECT_EQ(gov.scope(), "evaluation");
  EXPECT_EQ(gov.stratum(), -1);
  EXPECT_EQ(gov.stats_source(), nullptr);
}

// Regression: an engine borrowing a longer-lived shared governor must
// withdraw its EvalStats pointer when it is done; a budget tripping
// after the engine was destroyed (as in enumerators that evaluate many
// stack-local engines) would otherwise snapshot freed memory.
TEST(ResourceGovernor, TripAfterEngineDestroyedReadsNoDanglingStats) {
  ResourceGovernor gov(EvalLimits::TupleBudget(100));
  gov.set_scope("enumeration driver");

  SymbolTable symbols;
  Database db(&symbols);
  ASSERT_TRUE(db.AddRow("q", {"a"}).ok());
  auto program = ParseProgram("out(X) :- q(X).", &symbols);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  {
    EngineImpl engine(&*program, &db);
    engine.set_governor(&gov);
    ASSERT_TRUE(engine.Prepare().ok());
    IdentityTidAssigner identity;
    ASSERT_TRUE(engine.Evaluate(&identity).ok());
    // The engine restored the driver's labels on its way out.
    EXPECT_EQ(gov.scope(), "enumeration driver");
    EXPECT_EQ(gov.stats_source(), nullptr);
  }
  // Trip with the engine gone: must not dereference its stats
  // (ASan-checked in CI) and must blame the driver's scope.
  Status st = Status::OK();
  while (st.ok()) st = gov.OnDerived(50, 0);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("enumeration driver"), std::string::npos)
      << st.ToString();
}

TEST(Limits, DeadlineTripsNonTerminatingFixpoint) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(kNonTerminating).ok());
  engine.SetLimits(EvalLimits::Deadline(100));
  auto start = std::chrono::steady_clock::now();
  Status st = engine.Run();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("deadline budget"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("stratum 0"), std::string::npos)
      << st.ToString();
  // Within ~1s of the 100ms deadline, not hanging.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_EQ(engine.governor().trip().budget, BudgetKind::kDeadline);
}

TEST(Limits, TupleBudgetTripsWithDiagnostics) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(kNonTerminating).ok());
  engine.SetLimits(EvalLimits::TupleBudget(500));
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("tuples budget"), std::string::npos)
      << st.ToString();
  const TripInfo& trip = engine.governor().trip();
  EXPECT_EQ(trip.budget, BudgetKind::kTuples);
  EXPECT_EQ(trip.scope, "stratum fixpoint");
  EXPECT_EQ(trip.stratum, 0);
  EXPECT_GT(trip.stats.facts_derived, 0u);
}

TEST(Limits, MemoryBudgetTrips) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(kNonTerminating).ok());
  EvalLimits limits;
  limits.max_memory_bytes = 64 * 1024;
  engine.SetLimits(limits);
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("memory budget"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(engine.governor().trip().budget, BudgetKind::kMemory);
}

TEST(Limits, IterationBudgetTrips) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(kNonTerminating).ok());
  engine.SetLimits(EvalLimits::IterationBudget(50));
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("iterations budget"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(engine.governor().trip().budget, BudgetKind::kIterations);
}

TEST(Limits, BudgetsDoNotAffectTerminatingPrograms) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine.LoadProgramText(
                        "path(X, Y) :- edge(X, Y).\n"
                        "path(X, Z) :- path(X, Y), edge(Y, Z).\n")
                  .ok());
  engine.SetLimits(EvalLimits::TupleBudget(1000));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ((*engine.Query("path"))->size(), 3u);
}

TEST(Limits, CancelFromSecondThreadStopsRun) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(kNonTerminating).ok());
  // No budgets at all: only the cancellation can stop this run.
  std::thread canceller([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.Cancel();
  });
  Status st = engine.Run();
  canceller.join();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("cancelled"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(engine.governor().trip().budget, BudgetKind::kCancelled);
}

TEST(Limits, PartialResultsKeepTrippedModelQueryable) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(kNonTerminating).ok());
  engine.SetLimits(EvalLimits::TupleBudget(200));
  engine.SetPartialResults(true);
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.last_trip().code(), StatusCode::kResourceExhausted);
  auto rel = engine.Query("p");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_GE((*rel)->size(), 200u);
}

// Enumeration over tid assignments of an 8-element group: 8! branches,
// far too many to finish before the cancel lands.
TEST(Limits, CancelFromSecondThreadStopsEnumeration) {
  IdlogEngine engine;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        engine.AddRow("emp", {"e" + std::to_string(i), "sales"}).ok());
  }
  ASSERT_TRUE(
      engine.LoadProgramText("first(N) :- emp[2](N, D, 0).").ok());

  ResourceGovernor gov;
  EnumerateOptions options;
  options.governor = &gov;
  std::thread canceller([&gov] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gov.Cancel();
  });
  auto answers = EnumerateAnswers(engine.program(), engine.database(),
                                  "first", options);
  canceller.join();
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(answers.status().message().find("cancelled"),
            std::string::npos)
      << answers.status().ToString();
}

TEST(Limits, PreCancelledGovernorStopsEnumerationImmediately) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(
      engine.LoadProgramText("first(N) :- emp[2](N, D, 0).").ok());
  ResourceGovernor gov;
  gov.Cancel();
  EnumerateOptions options;
  options.governor = &gov;
  auto answers = EnumerateAnswers(engine.program(), engine.database(),
                                  "first", options);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(Limits, EnumerationRespectsTupleBudget) {
  IdlogEngine engine;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        engine.AddRow("emp", {"e" + std::to_string(i), "sales"}).ok());
  }
  ASSERT_TRUE(
      engine.LoadProgramText("first(N) :- emp[2](N, D, 0).").ok());
  ResourceGovernor gov(EvalLimits::TupleBudget(50));
  EnumerateOptions options;
  options.governor = &gov;
  auto answers = EnumerateAnswers(engine.program(), engine.database(),
                                  "first", options);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(answers.status().message().find("tuples budget"),
            std::string::npos)
      << answers.status().ToString();
}

TEST(Limits, CsvLoadChargesTupleBudget) {
  SymbolTable symbols;
  Database db(&symbols);
  ResourceGovernor gov(EvalLimits::TupleBudget(10));
  std::string csv;
  for (int i = 0; i < 20; ++i) csv += "row" + std::to_string(i) + ",x\n";
  Status st = LoadCsvRelationFromString(&db, "r", csv,
                                        /*skip_header=*/false, &gov);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("csv loader"), std::string::npos)
      << st.ToString();
}

TEST(Limits, RearmingAllowsReuseAfterTrip) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(kNonTerminating).ok());
  engine.SetLimits(EvalLimits::TupleBudget(100));
  EXPECT_EQ(engine.Run().code(), StatusCode::kResourceExhausted);
  // A fresh Run() with workable budgets (on a terminating program)
  // succeeds: SetLimits + Run re-arm the governor.
  IdlogEngine fresh;
  ASSERT_TRUE(fresh.AddRow("q", {"a"}).ok());
  ASSERT_TRUE(fresh.LoadProgramText("out(X) :- q(X).").ok());
  fresh.SetLimits(EvalLimits::TupleBudget(100));
  EXPECT_TRUE(fresh.Run().ok());
}

}  // namespace
}  // namespace idlog
