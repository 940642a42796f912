// Checkpoint/resume equivalence: a run interrupted by a governor trip
// and resumed from its round-boundary snapshot must be indistinguishable
// from a run that never stopped — same answers, same logical EvalStats,
// same EXPLAIN ANALYZE document and profile counters, same tid choices
// under a random assigner — across the randomized corpus and at every
// --jobs setting (thread count is physical and may differ between save
// and resume).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/idlog_engine.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Dump;

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("idlog_resume_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

void SeedEdb(IdlogEngine* engine,
             const std::vector<std::vector<std::string>>& edb) {
  for (const auto& row : edb) {
    std::vector<std::string> fields(row.begin() + 1, row.end());
    ASSERT_TRUE(engine->AddRow(row[0], fields).ok());
  }
}

/// What a run looks like to a caller who only sees logical outputs.
struct Observed {
  std::string answers;
  EvalStats stats;
  std::string explain_json;
  std::string profile;  ///< The profile's logical columns.
};

/// The profile without its timing columns: per stratum its index, rules
/// and rounds; per rule its firings, considered, derived and inserted
/// counts.
std::string LogicalProfile(const EvalProfile& profile) {
  std::string out;
  for (const StratumProfile& sp : profile.strata) {
    out += "stratum " + std::to_string(sp.index) + " rules " +
           std::to_string(sp.rules) + " rounds " +
           std::to_string(sp.rounds) + "\n";
  }
  for (const RuleProfile& rp : profile.rules) {
    out += "rule " + std::to_string(rp.clause_index) + " firings " +
           std::to_string(rp.firings) + " considered " +
           std::to_string(rp.tuples_considered) + " derived " +
           std::to_string(rp.facts_derived) + " inserted " +
           std::to_string(rp.facts_inserted) + "\n";
  }
  return out;
}

Observed Observe(IdlogEngine* engine,
                 const std::vector<std::string>& queries) {
  Observed out;
  for (const std::string& q : queries) {
    auto rel = engine->Query(q);
    EXPECT_TRUE(rel.ok()) << q << ": " << rel.status().ToString();
    if (rel.ok()) {
      out.answers += q + ":\n" + Dump(**rel, engine->symbols());
    }
  }
  out.stats = engine->stats();
  auto doc = engine->ExplainPlanJson(/*analyze=*/true);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (doc.ok()) out.explain_json = *doc;
  // No engine here asks for a profile; it is whole anyway.
  const EvalProfile profile = engine->profile();
  EXPECT_EQ(profile.rules.size(), engine->program().clauses.size());
  out.profile = LogicalProfile(profile);
  return out;
}

void ExpectSameLogicalStats(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.tuples_considered, b.tuples_considered);
  EXPECT_EQ(a.facts_derived, b.facts_derived);
  EXPECT_EQ(a.facts_inserted, b.facts_inserted);
  EXPECT_EQ(a.rule_firings, b.rule_firings);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.strata_evaluated, b.strata_evaluated);
  EXPECT_EQ(a.id_groups_assigned, b.id_groups_assigned);
  EXPECT_EQ(a.id_tuples_materialized, b.id_tuples_materialized);
  EXPECT_EQ(a.index_probes, b.index_probes);
  // index_builds, index_cache_misses and eval_wall_ns are physical —
  // legitimately different between an uninterrupted run and a resumed
  // one (the resumed engine rebuilds its indexes from scratch).
}

/// Runs `program` to completion in one engine (jobs = `full_jobs`), and
/// again in a second engine that trips an iteration budget while
/// checkpointing (jobs = `trip_jobs`), then resumes the checkpoint in a
/// third, fresh engine (jobs = `resume_jobs`). The resumed engine must
/// be observationally identical to the uninterrupted one.
void ExpectResumeMatchesFullRun(
    const std::string& program,
    const std::vector<std::vector<std::string>>& edb,
    const std::vector<std::string>& queries, const std::string& snap_path,
    int full_jobs, int trip_jobs, int resume_jobs,
    uint64_t trip_iterations) {
  SCOPED_TRACE("jobs " + std::to_string(full_jobs) + "/" +
               std::to_string(trip_jobs) + "/" +
               std::to_string(resume_jobs) + ", trip after " +
               std::to_string(trip_iterations) + ": " + program);

  IdlogEngine full;
  SeedEdb(&full, edb);
  full.SetThreads(full_jobs);
  ASSERT_TRUE(full.LoadProgramText(program).ok());
  ASSERT_TRUE(full.Run().ok());
  Observed expected = Observe(&full, queries);

  IdlogEngine tripper;
  SeedEdb(&tripper, edb);
  tripper.SetThreads(trip_jobs);
  ASSERT_TRUE(tripper.LoadProgramText(program).ok());
  EvalLimits limits;
  limits.max_iterations = trip_iterations;
  tripper.SetLimits(limits);
  tripper.SetPartialResults(true);
  tripper.SetCheckpoint(snap_path);
  ASSERT_TRUE(tripper.Run().ok());
  // Small corpus programs may finish inside the budget; both outcomes
  // must resume correctly (mid-fixpoint frame vs completed frame).

  IdlogEngine resumed;
  resumed.SetThreads(resume_jobs);
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap_path).ok());
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  ASSERT_TRUE(resumed.Run().ok());
  Observed actual = Observe(&resumed, queries);

  EXPECT_EQ(actual.answers, expected.answers);
  ExpectSameLogicalStats(expected.stats, actual.stats);
  // The EXPLAIN ANALYZE document carries only logical counters, so a
  // resumed run must reproduce it byte for byte; so must the profile's
  // logical columns, including the rows of strata finished before the
  // frame was cut: the snapshot carries no profile, and the resumed
  // engine renders it from the counters the snapshot restored.
  EXPECT_EQ(actual.explain_json, expected.explain_json);
  EXPECT_EQ(actual.profile, expected.profile);
}

// --------------------------------------------------------------------
// Randomized corpus, the same 40 seeds as parallel_eval_test: each
// program is interrupted early and resumed, serially and in parallel.

class ResumeCorpus : public ::testing::TestWithParam<int> {};

TEST_P(ResumeCorpus, ResumedRunMatchesUninterrupted) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  testing_util::CorpusGenerator gen(seed);
  std::string program = gen.Generate();
  auto edb = testing_util::CorpusEdb(seed);
  ScratchDir scratch("corpus" + std::to_string(seed));

  ExpectResumeMatchesFullRun(program, edb, gen.queries(),
                             scratch.Path("serial.snap"),
                             /*full_jobs=*/1, /*trip_jobs=*/1,
                             /*resume_jobs=*/1, /*trip_iterations=*/3);
  ExpectResumeMatchesFullRun(program, edb, gen.queries(),
                             scratch.Path("parallel.snap"),
                             /*full_jobs=*/4, /*trip_jobs=*/4,
                             /*resume_jobs=*/4, /*trip_iterations=*/3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResumeCorpus, ::testing::Range(0, 40));

// --------------------------------------------------------------------
// Cross-jobs resume: a snapshot saved under one thread count must
// resume under another with identical logical outcomes, both ways.

TEST(CheckpointResume, CrossJobsResume) {
  ScratchDir scratch("crossjobs");
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 60; ++i) {
    edb.push_back({"edge", "n" + std::to_string(i),
                   "n" + std::to_string(i + 1)});
  }
  std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
      "also(X, Y) :- tc(X, Y).\n";
  ExpectResumeMatchesFullRun(program, edb, {"tc", "also"},
                             scratch.Path("save4.snap"),
                             /*full_jobs=*/1, /*trip_jobs=*/4,
                             /*resume_jobs=*/1, /*trip_iterations=*/10);
  ExpectResumeMatchesFullRun(program, edb, {"tc", "also"},
                             scratch.Path("save1.snap"),
                             /*full_jobs=*/4, /*trip_jobs=*/1,
                             /*resume_jobs=*/4, /*trip_iterations=*/10);
}

// A snapshot always carries the EXPLAIN ANALYZE counters, so a resumed
// run's counters cover the rounds before the trip too and reconcile
// with the totals the snapshot restored.
TEST(CheckpointResume, ResumedCountersReconcile) {
  ScratchDir scratch("reconcile");
  const std::string snap = scratch.Path("tc.snap");
  const std::string program =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 40; ++i) {
    edb.push_back({"edge", "n" + std::to_string(i),
                   "n" + std::to_string((i * 7 + 1) % 40)});
    edb.push_back({"edge", "n" + std::to_string(i),
                   "n" + std::to_string((i + 1) % 40)});
  }

  IdlogEngine tripper;
  SeedEdb(&tripper, edb);
  ASSERT_TRUE(tripper.LoadProgramText(program).ok());
  EvalLimits limits;
  limits.max_iterations = 4;
  tripper.SetLimits(limits);
  tripper.SetPartialResults(true);
  tripper.SetCheckpoint(snap);
  ASSERT_TRUE(tripper.Run().ok());
  ASSERT_FALSE(tripper.last_trip().ok());

  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  ASSERT_TRUE(resumed.Run().ok());
  EXPECT_GT(resumed.stats().iterations, 5u);
  testing_util::ExpectCountersReconcile(resumed);
}

// --------------------------------------------------------------------
// Random-tid stability: resuming must not re-draw tids the snapshot
// already fixed, at several interruption depths. The query selects by
// tid bound, so any re-draw changes the visible answer.

TEST(CheckpointResume, RandomTidsSurviveResumeAtEveryDepth) {
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 40; ++i) {
    edb.push_back({"edge", "n" + std::to_string(i),
                   "n" + std::to_string(i + 1)});
  }
  std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
      "picked(X, Y) :- tc[1](X, Y, T), T < 3.\n";

  IdlogEngine full;
  SeedEdb(&full, edb);
  full.SetTidAssigner(std::make_unique<RandomTidAssigner>(99));
  ASSERT_TRUE(full.LoadProgramText(program).ok());
  auto expected_rel = full.Query("picked");
  ASSERT_TRUE(expected_rel.ok());
  std::string expected = Dump(**expected_rel, full.symbols());

  for (uint64_t depth : {1u, 2u, 5u, 20u}) {
    SCOPED_TRACE("interrupted after " + std::to_string(depth) + " rounds");
    ScratchDir scratch("tids" + std::to_string(depth));
    std::string snap = scratch.Path("trip.snap");

    IdlogEngine tripper;
    SeedEdb(&tripper, edb);
    tripper.SetTidAssigner(std::make_unique<RandomTidAssigner>(99));
    ASSERT_TRUE(tripper.LoadProgramText(program).ok());
    EvalLimits limits;
    limits.max_iterations = depth;
    tripper.SetLimits(limits);
    tripper.SetPartialResults(true);
    tripper.SetCheckpoint(snap);
    ASSERT_TRUE(tripper.Run().ok());

    IdlogEngine resumed;
    ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
    ASSERT_TRUE(resumed.LoadProgramText(program).ok());
    auto rel = resumed.Query("picked");
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    EXPECT_EQ(Dump(**rel, resumed.symbols()), expected);
  }
}

// --------------------------------------------------------------------
// Checkpoint cadence: --checkpoint-every-rounds N still produces a
// resumable snapshot (the final frame on a trip is always written,
// whatever the cadence), and the answers still match.

TEST(CheckpointResume, SparseCadenceStillResumable) {
  ScratchDir scratch("cadence");
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 50; ++i) {
    edb.push_back({"edge", "n" + std::to_string(i),
                   "n" + std::to_string(i + 1)});
  }
  std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n";

  IdlogEngine full;
  SeedEdb(&full, edb);
  ASSERT_TRUE(full.LoadProgramText(program).ok());
  auto expected_rel = full.Query("tc");
  ASSERT_TRUE(expected_rel.ok());
  std::string expected = Dump(**expected_rel, full.symbols());

  IdlogEngine tripper;
  SeedEdb(&tripper, edb);
  ASSERT_TRUE(tripper.LoadProgramText(program).ok());
  EvalLimits limits;
  limits.max_iterations = 13;
  tripper.SetLimits(limits);
  tripper.SetPartialResults(true);
  tripper.SetCheckpoint(scratch.Path("sparse.snap"), /*every_rounds=*/7);
  ASSERT_TRUE(tripper.Run().ok());

  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(scratch.Path("sparse.snap")).ok());
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  auto rel = resumed.Query("tc");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(Dump(**rel, resumed.symbols()), expected);
}

// --------------------------------------------------------------------
// Completed-snapshot resume: adopting a finished model answers queries
// without re-evaluating, and preserves the run's stats.

TEST(CheckpointResume, CompletedSnapshotResumesWithoutReevaluation) {
  ScratchDir scratch("completed");
  std::string snap = scratch.Path("done.snap");

  IdlogEngine source;
  SeedEdb(&source, {{"edge", "a", "b"}, {"edge", "b", "c"}});
  ASSERT_TRUE(source.LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                     "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")
                  .ok());
  ASSERT_TRUE(source.Run().ok());
  ASSERT_TRUE(source.SaveCheckpoint(snap).ok());

  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  ASSERT_TRUE(resumed.LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")
                  .ok());
  auto rel = resumed.Query("tc");
  ASSERT_TRUE(rel.ok());
  auto src = source.Query("tc");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(Dump(**rel, resumed.symbols()), Dump(**src, source.symbols()));
  // No re-evaluation happened: the resumed engine reports the original
  // run's logical counters, not a fresh run's worth on top.
  ExpectSameLogicalStats(source.stats(), resumed.stats());
}

// --------------------------------------------------------------------
// Cold-start snapshot: saving before any run captures config + EDB and
// resumes into a full evaluation with matching answers.

TEST(CheckpointResume, ColdStartSnapshotResumes) {
  ScratchDir scratch("coldstart");
  std::string snap = scratch.Path("cold.snap");

  IdlogEngine source;
  SeedEdb(&source, {{"edge", "a", "b"}, {"edge", "b", "c"},
                    {"edge", "c", "d"}});
  ASSERT_TRUE(source.SaveCheckpoint(snap).ok());  // before any program

  std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n";
  ASSERT_TRUE(source.LoadProgramText(program).ok());
  auto src = source.Query("tc");
  ASSERT_TRUE(src.ok());

  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  auto rel = resumed.Query("tc");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(Dump(**rel, resumed.symbols()), Dump(**src, source.symbols()));
}

// A tripped run that never armed checkpointing has no consistent frame
// to save after the fact.

TEST(CheckpointResume, TrippedRunWithoutCheckpointingCannotSave) {
  ScratchDir scratch("notripframe");
  IdlogEngine engine;
  SeedEdb(&engine, {{"edge", "a", "b"}, {"edge", "b", "c"},
                    {"edge", "c", "d"}, {"edge", "d", "e"}});
  ASSERT_TRUE(engine.LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                     "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")
                  .ok());
  EvalLimits limits;
  limits.max_iterations = 1;
  engine.SetLimits(limits);
  engine.SetPartialResults(true);
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_FALSE(engine.last_trip().ok());
  EXPECT_FALSE(engine.SaveCheckpoint(scratch.Path("late.snap")).ok());
}

// --------------------------------------------------------------------
// Derived relations take the sorts of the stored data they come from.
// Without a .decl, inference leaves the columns of an integer-only
// transitive closure unconstrained (sort u); typing `path` that way put
// integer tuples under a u-typed relation, and the snapshot holding it
// could not be read back.

TEST(CheckpointResume, UndeclaredIntegerColumnsResume) {
  ScratchDir scratch("intcols");
  const std::string program =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  auto seed = [](IdlogEngine* engine) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(engine
                      ->AddRow("edge", {std::to_string(i),
                                        std::to_string(i + 1)})
                      .ok());
    }
  };
  IdlogEngine full;
  seed(&full);
  ASSERT_TRUE(full.LoadProgramText(program).ok());
  auto expected = full.Query("path");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(TypeToString((*expected)->type()), "11");

  // A frame cut mid-fixpoint, then a completed one.
  for (uint64_t max_iterations : {2, 0}) {
    SCOPED_TRACE("max_iterations=" + std::to_string(max_iterations));
    std::string snap =
        scratch.Path("int" + std::to_string(max_iterations) + ".snap");
    IdlogEngine source;
    seed(&source);
    ASSERT_TRUE(source.LoadProgramText(program).ok());
    EvalLimits limits;
    limits.max_iterations = max_iterations;
    source.SetLimits(limits);
    source.SetPartialResults(true);
    source.SetCheckpoint(snap);
    ASSERT_TRUE(source.Run().ok());

    IdlogEngine resumed;
    Status st = resumed.ResumeFromCheckpoint(snap);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(resumed.LoadProgramText(program).ok());
    auto rel = resumed.Query("path");
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    EXPECT_EQ(Dump(**rel, resumed.symbols()),
              Dump(**expected, full.symbols()));
  }
}

// A program that constrains a column against the sort of the data
// stored for it is a real conflict: Run reports it instead of deriving
// a relation whose tuples disagree with its type.
TEST(CheckpointResume, SortConflictWithStoredDataIsATypeError) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("low(A) :- emp(A, D), A < 5.").ok());
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st.ToString();
}

}  // namespace
}  // namespace idlog
