// Storage observability: the dbstats walker's `idlog-dbstats-v1` JSON
// must be strictly valid, its component byte sums must reconcile
// exactly against the governor's memory charges for fresh complete
// runs, and every logical field must be byte-identical across --jobs
// settings — over fixed programs and the randomized corpus.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/idlog_engine.h"
#include "obs/dbstats.h"
#include "obs/json.h"
#include "test_util.h"

namespace idlog {
namespace {

void SeedEdb(IdlogEngine* engine,
             const std::vector<std::vector<std::string>>& edb) {
  for (const auto& row : edb) {
    std::vector<std::string> fields(row.begin() + 1, row.end());
    ASSERT_TRUE(engine->AddRow(row[0], fields).ok());
  }
}

// --------------------------------------------------------------------
// Shape and validity.

TEST(DbStats, JsonIsStrictlyValid) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("path(X, Y) :- edge(X, Y)."
                                     "path(X, Z) :- path(X, Y), edge(Y, Z).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  std::string json = engine.DbStatsJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"schema\":\"idlog-dbstats-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"relations\":["), std::string::npos);
  EXPECT_NE(json.find("\"governor\":{"), std::string::npos);
  // Physical index data must not leak into the JSON document.
  EXPECT_EQ(json.find("index_"), std::string::npos) << json;
}

TEST(DbStats, PreRunEngineReportsEdbOnly) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("r", {"a", "1"}).ok());
  StorageStats stats = engine.DbStats();
  ASSERT_EQ(stats.relations.size(), 1u);
  EXPECT_EQ(stats.relations[0].name, "r");
  EXPECT_EQ(stats.relations[0].kind, "edb");
  EXPECT_EQ(stats.relations[0].arity, 2);
  EXPECT_EQ(stats.relations[0].tuples, 1u);
  EXPECT_EQ(stats.relations[0].approx_bytes, ApproxTupleBytes(2));
  EXPECT_EQ(stats.derived_tuples, 0u);
  EXPECT_EQ(stats.id_tuples, 0u);
  EXPECT_GT(stats.symbol_count, 0u);  // "a" interned.
  EXPECT_TRUE(ValidateJson(engine.DbStatsJson()).ok());
  EXPECT_FALSE(engine.DbStatsText().empty());
}

TEST(DbStats, TableListsEveryRelationAndComponents) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.LoadProgramText(
                  "first(N) :- edge[1](N, M, 0).").ok());
  ASSERT_TRUE(engine.Run().ok());
  std::string table = engine.DbStatsText();
  EXPECT_NE(table.find("edge"), std::string::npos);
  EXPECT_NE(table.find("first"), std::string::npos);
  EXPECT_NE(table.find("components"), std::string::npos);
  EXPECT_NE(table.find("governor:"), std::string::npos);
  // The ID-relation row carries its grouping columns (0-based).
  EXPECT_NE(table.find("edge[0]"), std::string::npos) << table;
}

// EDB relations keep the indexes a run builds in them, reported as
// uncharged next to the governor's accounting, until the engine loads
// another program.
TEST(DbStats, EdbIndexesAreReportedAndDroppedOnProgramLoad) {
  IdlogEngine engine;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                    "n" + std::to_string(i + 1)})
                    .ok());
  }
  const char* kProgram =
      "p(X, Y) :- e(X, Y)."
      "p(X, Z) :- p(X, Y), e(Y, Z).";
  ASSERT_TRUE(engine.LoadProgramText(kProgram).ok());
  ASSERT_TRUE(engine.Run().ok());
  StorageStats stats = engine.DbStats();
  EXPECT_GT(stats.edb_index_bytes, 0u);
  EXPECT_LE(stats.edb_index_bytes, stats.total_index_bytes);
  EXPECT_NE(engine.DbStatsText().find(
                "uncharged edb indexes=" +
                std::to_string(stats.edb_index_bytes)),
            std::string::npos);
  ASSERT_TRUE(engine.LoadProgramText(kProgram).ok());
  EXPECT_EQ(engine.DbStats().edb_index_bytes, 0u);
}

// --------------------------------------------------------------------
// The sum invariant: for a fresh, complete, untripped run the governor
// charged exactly the derived commits + ID materializations (+ the
// provenance arena when recording), and the walker reconstructs the
// same number from relation sizes via ApproxTupleBytes.

void ExpectSumInvariant(IdlogEngine* engine) {
  StorageStats stats = engine->DbStats();
  ASSERT_TRUE(stats.has_governor);
  EXPECT_EQ(stats.accounted_bytes, stats.governor_memory_bytes)
      << "derived=" << stats.derived_bytes << " id=" << stats.id_bytes
      << " prov=" << stats.provenance_bytes;
}

TEST(DbStats, SumInvariantRecursiveProgram) {
  IdlogEngine engine;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                    "n" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  ExpectSumInvariant(&engine);
}

TEST(DbStats, SumInvariantWithIdRelationsAndProvenance) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"cal", "dev"}).ok());
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.LoadProgramText(
                  "one_per_dept(N) :- emp[2](N, D, 0).").ok());
  ASSERT_TRUE(engine.Run().ok());
  StorageStats stats = engine.DbStats();
  EXPECT_GT(stats.id_tuples, 0u);
  EXPECT_GT(stats.provenance_bytes, 0u);
  ExpectSumInvariant(&engine);
}

// A trip in partial-results mode may leave post-trip commits uncharged;
// the documented relaxation is accounted >= charged.
TEST(DbStats, TripLeavesAccountedAtLeastCharged) {
  IdlogEngine engine;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                    "n" + std::to_string(i + 1)})
                    .ok());
  }
  EvalLimits limits;
  limits.max_tuples = 25;
  engine.SetLimits(limits);
  engine.SetPartialResults(true);
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_FALSE(engine.last_trip().ok());
  StorageStats stats = engine.DbStats();
  EXPECT_GE(stats.accounted_bytes, stats.governor_memory_bytes);
}

// --------------------------------------------------------------------
// --jobs byte-identity across the randomized corpus, plus the sum
// invariant at every thread count.

class DbStatsCorpus : public ::testing::TestWithParam<int> {};

TEST_P(DbStatsCorpus, LogicalJsonByteIdenticalAcrossJobs) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  testing_util::CorpusGenerator gen(seed);
  std::string text = gen.Generate();
  std::vector<std::vector<std::string>> edb = testing_util::CorpusEdb(seed);

  auto run = [&](int jobs) {
    IdlogEngine engine;
    SeedEdb(&engine, edb);
    engine.SetThreads(jobs);
    EXPECT_TRUE(engine.LoadProgramText(text).ok());
    EXPECT_TRUE(engine.Run().ok());
    ExpectSumInvariant(&engine);
    std::string json = engine.DbStatsJson();
    EXPECT_TRUE(ValidateJson(json).ok());
    return json;
  };

  std::string baseline = run(1);
  for (int jobs : {2, 3, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    EXPECT_EQ(run(jobs), baseline);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbStatsCorpus, ::testing::Range(0, 40));

}  // namespace
}  // namespace idlog
