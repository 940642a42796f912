// Crash-safe flight recorder: the disarmed fast path must be a no-op,
// ring wraparound must deterministically keep the newest events in seq
// order, a governor trip with no trace sink must still leave a
// non-empty black box, a failure Status out of Run() must dump to the
// engine's configured path, and recording must compose with
// checkpoint/resume.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/idlog_engine.h"
#include "exec/round_executor.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "test_util.h"

namespace idlog {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("idlog_flight_test_" + tag + "_" + std::to_string(::getpid()));
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

/// The recorder is process-global; every test arms it afresh and
/// disarms on exit so later tests (and other suites) see it off.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FlightRecorder::Instance().Disarm();
    Failpoints::Instance().Reset();
  }
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Occurrences of `"kind":"<kind>"` in a dump.
size_t CountKind(const std::string& json, const std::string& kind) {
  const std::string needle = "\"kind\":\"" + kind + "\"";
  size_t n = 0;
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// --------------------------------------------------------------------
// Ring mechanics.

TEST_F(FlightRecorderTest, DisarmedRecordIsANoOp) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Disarm();
  ASSERT_FALSE(FlightRecorder::Enabled());
  FlightRecorder::Record(FlightEventKind::kRunStart, "ignored", 1, 2, 3);
  rec.Arm(16);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.retained(), 0u);
}

TEST_F(FlightRecorderTest, ArmDiscardsPriorEventsAndClampsCapacity) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Arm(16);
  FlightRecorder::Record(FlightEventKind::kRunStart, "old");
  EXPECT_EQ(rec.total_recorded(), 1u);
  rec.Arm(1);  // below the minimum: clamps to 16
  EXPECT_EQ(rec.capacity_per_thread(), 16u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.ToJson().find("old"), std::string::npos);
}

TEST_F(FlightRecorderTest, WraparoundKeepsNewestInSeqOrder) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Arm(16);
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i) {
    FlightRecorder::Record(FlightEventKind::kRoundStart, "wrap", i);
  }
  EXPECT_EQ(rec.total_recorded(), static_cast<uint64_t>(kEvents));
  EXPECT_EQ(rec.retained(), 16u);
  std::string json = rec.ToJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"schema\":\"idlog-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"retained\":16"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":984"), std::string::npos);
  // Exactly the last 16 payloads survive, in ascending seq order: the
  // single-thread wraparound is fully deterministic.
  for (int i = kEvents - 16; i < kEvents; ++i) {
    EXPECT_NE(json.find("\"a\":" + std::to_string(i)), std::string::npos)
        << "missing event " << i;
  }
  EXPECT_EQ(json.find("\"a\":" + std::to_string(kEvents - 17) + ","),
            std::string::npos);
  size_t prev = 0;
  size_t count = 0;
  for (size_t at = json.find("\"seq\":"); at != std::string::npos;
       at = json.find("\"seq\":", at + 1)) {
    size_t seq = std::stoull(json.substr(at + 6));
    if (count > 0) EXPECT_GT(seq, prev);
    prev = seq;
    ++count;
  }
  EXPECT_EQ(count, 16u);
}

TEST_F(FlightRecorderTest, LabelsAreTruncatedNotOverrun) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Arm(16);
  std::string longlabel(100, 'x');
  FlightRecorder::Record(FlightEventKind::kIndexBuild, longlabel.c_str());
  std::string json = rec.ToJson();
  ASSERT_TRUE(ValidateJson(json).ok());
  EXPECT_EQ(json.find(longlabel), std::string::npos);
  EXPECT_NE(json.find(std::string(22, 'x')), std::string::npos);
}

// --------------------------------------------------------------------
// Engine integration: a run leaves a narrative in the rings.

TEST_F(FlightRecorderTest, RunRecordsRoundsAndRunBoundaries) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Arm(256);
  IdlogEngine engine;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                    "n" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  std::string json = rec.ToJson();
  ASSERT_TRUE(ValidateJson(json).ok());
  EXPECT_EQ(CountKind(json, "run-start"), 1u);
  EXPECT_EQ(CountKind(json, "run-end"), 1u);
  EXPECT_GT(CountKind(json, "round-start"), 1u);
  EXPECT_EQ(CountKind(json, "round-start"), CountKind(json, "round-commit"));
  EXPECT_GT(CountKind(json, "index-build"), 0u);
}

// Right-linear closure differentiates plan step 1, not step 0, so its
// tasks split on the step-0 edge scan: a pool commits split tasks, and
// a serial run commits none. The edges are the complete graph on the
// fewest nodes whose edge count reaches kMinPartitionRows.
TEST_F(FlightRecorderTest, RightLinearClosureSplitsOnlyWithAPool) {
  size_t nodes = 2;
  while (nodes * (nodes - 1) < kMinPartitionRows) ++nodes;
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    FlightRecorder& rec = FlightRecorder::Instance();
    rec.Arm(4096);
    IdlogEngine engine;
    for (size_t i = 0; i < nodes; ++i) {
      for (size_t j = 0; j < nodes; ++j) {
        if (i == j) continue;
        ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                        "n" + std::to_string(j)})
                        .ok());
      }
    }
    engine.SetThreads(jobs);
    ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                       "p(X, Z) :- e(X, Y), p(Y, Z).")
                    .ok());
    ASSERT_TRUE(engine.Run().ok());
    const size_t commits = CountKind(rec.ToJson(), "partition-commit");
    if (jobs == 1) {
      EXPECT_EQ(commits, 0u);
    } else {
      EXPECT_GT(commits, 0u);
    }
  }
}

// A governor trip with NO trace sink installed still produces a
// non-empty flight dump carrying the trip event — the acceptance
// criterion that makes the recorder a true black box.
TEST_F(FlightRecorderTest, GovernorTripWithoutTraceSinkLeavesDump) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Arm(256);
  ScratchDir dir("trip");
  const std::string dump = dir.Path("flight.json");
  IdlogEngine engine;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                    "n" + std::to_string(i + 1)})
                    .ok());
  }
  EvalLimits limits;
  limits.max_tuples = 25;
  engine.SetLimits(limits);
  engine.SetFlightRecorderDump(dump);
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  Status st = engine.Run();
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  ASSERT_TRUE(fs::exists(dump));
  std::string json = ReadWholeFile(dump);
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_EQ(CountKind(json, "trip"), 1u);
  EXPECT_NE(json.find("\"label\":\"tuples\""), std::string::npos) << json;
  EXPECT_GT(CountKind(json, "round-start"), 0u);
}

// The same via partial-results mode: Run() returns OK but the trip is
// latched, and the dump still happens on the failure path inside Run.
TEST_F(FlightRecorderTest, PartialResultsTripStillDumps) {
  FlightRecorder::Instance().Arm(256);
  ScratchDir dir("partial");
  const std::string dump = dir.Path("flight.json");
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
  engine.SetFlightRecorderDump(dump);
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_FALSE(engine.last_trip().ok());
  ASSERT_TRUE(fs::exists(dump));
  EXPECT_EQ(CountKind(ReadWholeFile(dump), "trip"), 1u);
}

// Deterministic fault injection: an armed failpoint that fails the run
// leaves both its hit breadcrumb and a dump at the configured path.
TEST_F(FlightRecorderTest, FailpointFailureDumpsWithHitEvent) {
  FlightRecorder::Instance().Arm(256);
  ASSERT_TRUE(Failpoints::Instance()
                  .ArmFromSpec("eval.emit.insert:3")
                  .ok());
  ScratchDir dir("failpoint");
  const std::string dump = dir.Path("flight.json");
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("e", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("e", {"b", "c"}).ok());
  engine.SetFlightRecorderDump(dump);
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  Status st = engine.Run();
  ASSERT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  ASSERT_TRUE(fs::exists(dump));
  std::string json = ReadWholeFile(dump);
  ASSERT_TRUE(ValidateJson(json).ok());
  EXPECT_GE(CountKind(json, "failpoint-hit"), 3u);
  EXPECT_NE(json.find("\"label\":\"eval.emit.insert\""), std::string::npos);
  EXPECT_EQ(CountKind(json, "run-end"), 1u);
  EXPECT_NE(json.find("\"label\":\"failure\""), std::string::npos);
}

// Checkpoint/resume composition: the failed first run dumps; the
// resumed run records its own narrative — checkpoint sections included
// — and completes with the right answers.
TEST_F(FlightRecorderTest, ComposesWithCheckpointResume) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Arm(512);
  ScratchDir dir("resume");
  const std::string snap = dir.Path("ckpt.snap");
  const std::string dump = dir.Path("flight.json");
  const std::string program =
      "p(X, Y) :- e(X, Y)."
      "p(X, Z) :- p(X, Y), e(Y, Z).";

  {
    IdlogEngine tripper;
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(tripper.AddRow("e", {"n" + std::to_string(i),
                                       "n" + std::to_string(i + 1)})
                      .ok());
    }
    EvalLimits limits;
    limits.max_iterations = 3;
    tripper.SetLimits(limits);
    tripper.SetCheckpoint(snap);
    tripper.SetFlightRecorderDump(dump);
    ASSERT_TRUE(tripper.LoadProgramText(program).ok());
    Status st = tripper.Run();
    ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    ASSERT_TRUE(fs::exists(dump));
    std::string json = ReadWholeFile(dump);
    EXPECT_EQ(CountKind(json, "trip"), 1u);
    EXPECT_GT(CountKind(json, "checkpoint-section"), 0u) << json;
  }

  rec.Arm(512);  // fresh black box for the resumed run
  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  resumed.SetCheckpoint(snap);
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  ASSERT_TRUE(resumed.Run().ok());
  auto rel = resumed.Query("p");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 20u * 21u / 2u);
  std::string json = rec.ToJson();
  ASSERT_TRUE(ValidateJson(json).ok());
  EXPECT_EQ(CountKind(json, "run-start"), 1u);
  EXPECT_NE(json.find("\"label\":\"ok\""), std::string::npos);
  // The completed-model snapshot written at the end of the resumed run
  // serializes its sections through the same breadcrumb site.
  EXPECT_GT(CountKind(json, "checkpoint-section"), 0u);
}

// Memory milestones: a derivation-heavy run crossing 1 MiB of charges
// leaves governor-memory breadcrumbs with doubling thresholds.
TEST_F(FlightRecorderTest, GovernorMemoryMilestones) {
  FlightRecorder::Instance().Arm(1024);
  IdlogEngine engine;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                    "n" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  // 121 nodes -> ~7260 path tuples * 80 bytes ~ 580 KiB: below the
  // first milestone. Widen the graph if this ever crosses; the point
  // here is the *absence* of spurious milestones on small runs.
  std::string json = FlightRecorder::Instance().ToJson();
  EXPECT_EQ(CountKind(json, "governor-memory"), 0u);

  FlightRecorder::Instance().Arm(1024);
  IdlogEngine big;
  for (int i = 0; i < 260; ++i) {
    ASSERT_TRUE(big.AddRow("e", {"n" + std::to_string(i),
                                 "n" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(big.LoadProgramText("p(X, Y) :- e(X, Y)."
                                  "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  ASSERT_TRUE(big.Run().ok());
  // ~33930 tuples * 80 bytes ~ 2.7 MiB of charges: crosses 1 MiB and
  // 2 MiB exactly once each.
  json = FlightRecorder::Instance().ToJson();
  EXPECT_EQ(CountKind(json, "governor-memory"), 2u) << json;
  EXPECT_NE(json.find("\"a\":" + std::to_string(1 << 20)),
            std::string::npos);
  EXPECT_NE(json.find("\"a\":" + std::to_string(1 << 21)),
            std::string::npos);
}

}  // namespace
}  // namespace idlog
