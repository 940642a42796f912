// Durable update sessions: Begin/Insert/Retract/Commit/Abort semantics,
// incremental re-derivation of committed insertions (asserted via round
// counters on a transitive-closure workload, and against fresh runs over
// the randomized corpus), per-commit budgets, the full-re-run fallbacks
// (retraction, negation, ID-relations, naive mode), and the protocol
// errors the session API refuses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/idlog_engine.h"
#include "store/wal.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Dump;
using testing_util::T;

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("idlog_session_test_" + tag + "_" + std::to_string(::getpid()));
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

constexpr const char* kTcProgram =
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Z) :- edge(X, Y), path(Y, Z).\n";

/// A chain a0 -> a1 -> ... -> a{n}: the full fixpoint needs ~n rounds.
void AddChain(IdlogEngine* engine, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(engine
                    ->AddRow("edge", {"a" + std::to_string(i),
                                      "a" + std::to_string(i + 1)})
                    .ok());
  }
}

std::string QueryDump(IdlogEngine* engine, const std::string& pred) {
  auto rel = engine->Query(pred);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return rel.ok() ? Dump(**rel, engine->symbols()) : std::string();
}

TEST(Session, LifecycleAndProtocolErrors) {
  ScratchDir scratch("protocol");
  IdlogEngine engine;

  // No program yet.
  EXPECT_FALSE(engine.AttachWal(scratch.Path("s.wal")).ok());
  // No WAL yet.
  EXPECT_FALSE(engine.Begin().ok());

  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  EXPECT_TRUE(engine.wal_attached());
  // Double attach.
  EXPECT_FALSE(engine.AttachWal(scratch.Path("other.wal")).ok());

  // Operations need an open transaction; Begin twice is an error.
  EXPECT_FALSE(engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
  EXPECT_FALSE(engine.Commit().ok());
  EXPECT_FALSE(engine.Abort().ok());
  ASSERT_TRUE(engine.Begin().ok());
  EXPECT_TRUE(engine.in_transaction());
  EXPECT_FALSE(engine.Begin().ok());

  // IDB predicates are refused: their contents belong to the rules.
  Status idb = engine.Insert("path", T(&engine.symbols(), {"x", "y"}));
  EXPECT_FALSE(idb.ok());
  EXPECT_NE(idb.message().find("derived by rules"), std::string::npos);

  // Sort/arity mismatches are refused at staging time.
  EXPECT_EQ(engine.Insert("edge", T(&engine.symbols(), {"x"})).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(
      engine.Insert("edge", {Value::Number(1), Value::Number(2)}).code(),
      StatusCode::kTypeError);

  ASSERT_TRUE(engine.Abort().ok());
  EXPECT_FALSE(engine.in_transaction());
}

TEST(Session, InsertCommitExtendsTheModelIncrementally) {
  ScratchDir scratch("incremental");
  constexpr int kChain = 12;

  IdlogEngine engine;
  AddChain(&engine, kChain);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  const uint64_t full_rounds = engine.stats().iterations;
  ASSERT_GE(full_rounds, static_cast<uint64_t>(kChain) - 1);

  // Prepend an edge: the delta machinery joins the one new edge against
  // the existing closure, so the whole commit costs a handful of rounds
  // where the full fixpoint needed ~kChain.
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.last_commit_incremental());
  EXPECT_EQ(engine.wal_commits(), 1u);
  const uint64_t incremental_rounds =
      engine.stats().iterations - full_rounds;
  EXPECT_GE(incremental_rounds, 1u);
  EXPECT_LT(incremental_rounds, full_rounds / 2)
      << "incremental commit re-ran a full-sized fixpoint";

  // The extended model matches a from-scratch evaluation of the same
  // EDB exactly.
  IdlogEngine fresh;
  AddChain(&fresh, kChain);
  ASSERT_TRUE(fresh.AddRow("edge", {"z", "a0"}).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));

  // A duplicate insertion commits durably but changes nothing and runs
  // no fixpoint rounds.
  const uint64_t before = engine.stats().iterations;
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.stats().iterations, before);
  EXPECT_EQ(engine.wal_commits(), 2u);
}

// Budgets bound each pass: an insert commit runs under a fresh deadline
// and iteration cap, as a retraction's full re-run always did, so a cap
// that fits the initial run and each commit — but not their sum — never
// trips. The tuple and memory budgets still see the whole model: the
// totals.memory_bytes gauge matches a fresh run over the same EDB.
TEST(Session, EachInsertCommitGetsFreshPassBudgets) {
  ScratchDir scratch("budgets");
  constexpr int kChain = 11;
  EvalLimits limits;
  limits.max_iterations = 20;

  IdlogEngine engine;
  AddChain(&engine, kChain);
  engine.SetLimits(limits);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  std::string prev = "a0";
  for (int i = 0; i < 5; ++i) {
    const std::string node = "z" + std::to_string(i);
    ASSERT_TRUE(engine.Begin().ok());
    ASSERT_TRUE(
        engine.Insert("edge", T(&engine.symbols(), {node, prev})).ok());
    Status st = engine.Commit();
    ASSERT_TRUE(st.ok()) << "commit " << i << ": " << st.ToString();
    EXPECT_TRUE(engine.last_commit_incremental()) << "commit " << i;
    prev = node;
  }
  EXPECT_GT(engine.stats().iterations, limits.max_iterations)
      << "the commits together must exceed one pass's budget";

  IdlogEngine fresh;
  AddChain(&fresh, kChain);
  prev = "a0";
  for (int i = 0; i < 5; ++i) {
    const std::string node = "z" + std::to_string(i);
    ASSERT_TRUE(fresh.AddRow("edge", {node, prev}).ok());
    prev = node;
  }
  fresh.SetLimits(limits);
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));
  // The totals.memory_bytes gauge.
  EXPECT_EQ(engine.governor().memory_charged(),
            fresh.governor().memory_charged());
}

TEST(Session, MultiFactCommitAndNewPredicates) {
  ScratchDir scratch("multi");
  IdlogEngine engine;
  AddChain(&engine, 4);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"b0", "b1"})).ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"b1", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.last_commit_incremental());

  IdlogEngine fresh;
  AddChain(&fresh, 4);
  ASSERT_TRUE(fresh.AddRow("edge", {"b0", "b1"}).ok());
  ASSERT_TRUE(fresh.AddRow("edge", {"b1", "a0"}).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));
}

TEST(Session, RetractionRecomputesFromTheEdb) {
  ScratchDir scratch("retract");
  IdlogEngine engine;
  AddChain(&engine, 5);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Retract("edge", T(&engine.symbols(), {"a2", "a3"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());

  IdlogEngine fresh;
  AddChain(&fresh, 5);
  SymbolTable* symbols = &fresh.symbols();
  ASSERT_TRUE(fresh.database().EraseTuple("edge", T(symbols, {"a2", "a3"}))
                  .ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));

  // Retracting an absent tuple is a durable no-op commit.
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Retract("edge", T(&engine.symbols(), {"nope", "nope"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.wal_commits(), 2u);
}

TEST(Session, NegationFallsBackToAFullRun) {
  ScratchDir scratch("negation");
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("node", {"a"}).ok());
  ASSERT_TRUE(engine.AddRow("node", {"b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "reach(Y) :- edge(X, Y).\n"
                      "isolated(X) :- node(X), not reach(X).\n")
                  .ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  EXPECT_EQ(QueryDump(&engine, "isolated"), "(a)\n");

  // edge feeds reach, which is negated: the commit must recompute in
  // full (monotone delta rules cannot shrink `isolated`).
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"b", "a"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());
  EXPECT_EQ(QueryDump(&engine, "isolated"), "");
}

TEST(Session, IdLiteralFallsBackToAFullRun) {
  ScratchDir scratch("idlit");
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(
      engine.LoadProgramText("tag(N, D, I) :- emp[2](N, D, I).\n").ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("emp", T(&engine.symbols(), {"cal", "dev"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());

  IdlogEngine fresh;
  ASSERT_TRUE(fresh.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(fresh.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(fresh.AddRow("emp", {"cal", "dev"}).ok());
  ASSERT_TRUE(
      fresh.LoadProgramText("tag(N, D, I) :- emp[2](N, D, I).\n").ok());
  EXPECT_EQ(QueryDump(&engine, "tag"), QueryDump(&fresh, "tag"));
}

TEST(Session, NaiveModeFallsBackToAFullRun) {
  ScratchDir scratch("naive");
  IdlogEngine engine;
  engine.SetSeminaive(false);
  AddChain(&engine, 4);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());

  IdlogEngine fresh;
  AddChain(&fresh, 4);
  ASSERT_TRUE(fresh.AddRow("edge", {"z", "a0"}).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));
}

TEST(Session, AbortDiscardsWithoutLogging) {
  ScratchDir scratch("abort");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  std::string wal_path = scratch.Path("s.wal");
  ASSERT_TRUE(engine.AttachWal(wal_path).ok());
  const std::string before = QueryDump(&engine, "path");

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
  ASSERT_TRUE(engine.Abort().ok());
  EXPECT_EQ(QueryDump(&engine, "path"), before);
  EXPECT_EQ(engine.wal_commits(), 0u);

  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 0u);
}

TEST(Session, LogWriteFailurePoisonsTheSession) {
  ScratchDir scratch("poison");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  const std::string before = QueryDump(&engine, "path");

  Failpoints::Instance().Reset();
  ASSERT_TRUE(Failpoints::Instance().ArmFromSpec("wal.append:1").ok());
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
  Status commit = engine.Commit();
  EXPECT_FALSE(commit.ok());
  Failpoints::Instance().Reset();

  // Durability failed before anything applied: the model is unchanged
  // and the session refuses further work until recovery.
  EXPECT_EQ(QueryDump(&engine, "path"), before);
  Status next = engine.Begin();
  EXPECT_FALSE(next.ok());
  EXPECT_NE(next.message().find("recover"), std::string::npos);
}

TEST(Session, ApplyFailureAfterDurableCommitPoisonsTheSession) {
  // The mirror image of a log-write failure: the commit IS durably
  // logged, but applying it to the in-memory store fails partway. The
  // session must latch — further commits would diverge from the log —
  // and recovery must replay the logged commit successfully.
  ScratchDir scratch("apply_poison");
  std::string wal_path = scratch.Path("s.wal");
  {
    IdlogEngine engine;
    AddChain(&engine, 3);
    ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
    ASSERT_TRUE(engine.AttachWal(wal_path).ok());

    ASSERT_TRUE(engine.Begin().ok());
    ASSERT_TRUE(
        engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
    Failpoints::Instance().Reset();
    ASSERT_TRUE(
        Failpoints::Instance().ArmFromSpec("storage.relation.insert:1").ok());
    Status commit = engine.Commit();
    EXPECT_FALSE(commit.ok());
    Failpoints::Instance().Reset();

    // The commit reached the log before the apply broke.
    auto scan = ScanWal(wal_path);
    ASSERT_TRUE(scan.ok());
    uint64_t logged_commits = 0;
    for (const WalRecord& r : scan->records) {
      if (r.type == WalRecordType::kCommit) ++logged_commits;
    }
    EXPECT_EQ(logged_commits, 1u);

    // In-memory state is now untrusted: the session refuses further
    // work until recovery, exactly like a log-write failure.
    Status next = engine.Begin();
    EXPECT_FALSE(next.ok());
    EXPECT_NE(next.message().find("recover"), std::string::npos);
  }

  // Recovery replays the durably-logged commit (the failpoint is gone)
  // and the fact is present.
  IdlogEngine fresh;
  ASSERT_TRUE(fresh.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(fresh.CompleteRecovery().ok());
  EXPECT_EQ(fresh.wal_commits(), 1u);
  EXPECT_NE(QueryDump(&fresh, "path").find("x, y"),
            std::string::npos);
}

TEST(Session, CheckpointRotatesAndCommitsContinue) {
  ScratchDir scratch("checkpoint");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  std::string wal_path = scratch.Path("s.wal");
  ASSERT_TRUE(engine.AttachWal(wal_path).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  ASSERT_TRUE(engine.WalCheckpoint().ok());

  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->epoch, 2u);  // rotated
  EXPECT_EQ(scan->records.size(), 0u);
  auto snap = LoadSnapshotFile(wal_path + ".snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->wal_pos.present);
  EXPECT_EQ(snap->wal_pos.commits, 1u);

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z2", "z"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.wal_commits(), 2u);
}

TEST(Session, AutoCheckpointEveryNCommits) {
  ScratchDir scratch("autockpt");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  IdlogEngine::WalOptions options;
  options.checkpoint_every_commits = 2;
  std::string wal_path = scratch.Path("s.wal");
  ASSERT_TRUE(engine.AttachWal(wal_path, options).ok());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Begin().ok());
    ASSERT_TRUE(engine
                    .Insert("edge", T(&engine.symbols(),
                                      {"n" + std::to_string(i),
                                       "n" + std::to_string(i + 1)}))
                    .ok());
    ASSERT_TRUE(engine.Commit().ok());
  }
  // Two auto-checkpoints: epoch 1 -> 2 -> 3, log freshly rotated.
  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->epoch, 3u);
  EXPECT_EQ(scan->records.size(), 0u);
  auto snap = LoadSnapshotFile(wal_path + ".snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->wal_pos.commits, 4u);
}

// Integer data and no .decl: the derived relation takes the stored
// relation's sorts, so session snapshots read back and recovery
// reproduces the live answers — also when a commit is what first
// stores the integer relation (the derived relation is then retyped by
// a full re-run instead of extended).
TEST(Session, UndeclaredIntegerColumnsRecover) {
  const std::string program =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  for (bool preload : {true, false}) {
    SCOPED_TRACE(preload ? "edge stored before the session"
                         : "edge first stored by a commit");
    ScratchDir scratch(preload ? "int_preload" : "int_created");
    std::string wal_path = scratch.Path("s.wal");
    std::string live;
    {
      IdlogEngine engine;
      for (int i = 0; preload && i < 3; ++i) {
        ASSERT_TRUE(engine
                        .AddRow("edge", {std::to_string(i),
                                         std::to_string(i + 1)})
                        .ok());
      }
      ASSERT_TRUE(engine.LoadProgramText(program).ok());
      ASSERT_TRUE(engine.AttachWal(wal_path).ok());
      for (int i = 3; i < 6; ++i) {
        ASSERT_TRUE(engine.Begin().ok());
        ASSERT_TRUE(engine
                        .Insert("edge",
                                {Value::Number(i), Value::Number(i + 1)})
                        .ok());
        ASSERT_TRUE(engine.Commit().ok());
        if (i == 4) {
          ASSERT_TRUE(engine.WalCheckpoint().ok());
        }
      }
      live = QueryDump(&engine, "path");
    }
    IdlogEngine fresh;
    Status st = fresh.PrepareRecovery(wal_path);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(fresh.LoadProgramText(program).ok());
    st = fresh.CompleteRecovery();
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(QueryDump(&fresh, "path"), live);
  }
}

// An insert that first stores a relation fixes its sorts. One the
// program cannot be typed over (here a symbol compared with `<`) is
// refused at staging time, before anything reaches the log: the session
// stays usable and recovery replays only what was accepted.
TEST(Session, ConflictingFirstInsertIsRefusedBeforeTheLog) {
  ScratchDir scratch("first_insert_conflict");
  const std::string wal_path = scratch.Path("s.wal");
  const std::string program = "low(A) :- emp(A, D), A < 5.\n";
  std::string live;
  {
    IdlogEngine engine;
    ASSERT_TRUE(engine.LoadProgramText(program).ok());
    ASSERT_TRUE(engine.AttachWal(wal_path).ok());
    ASSERT_TRUE(engine.Begin().ok());
    Status refused =
        engine.Insert("emp", T(&engine.symbols(), {"ann", "sales"}));
    EXPECT_EQ(refused.code(), StatusCode::kTypeError) << refused.ToString();
    ASSERT_TRUE(
        engine.Insert("emp", T(&engine.symbols(), {"3", "sales"})).ok());
    // Later inserts in the transaction must match the first one's sorts.
    EXPECT_EQ(
        engine.Insert("emp", T(&engine.symbols(), {"bob", "sales"})).code(),
        StatusCode::kTypeError);
    Status st = engine.Commit();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(engine.Begin().ok());
    EXPECT_EQ(
        engine.Insert("emp", T(&engine.symbols(), {"cid", "ops"})).code(),
        StatusCode::kTypeError);
    ASSERT_TRUE(engine.Insert("emp", T(&engine.symbols(), {"7", "ops"})).ok());
    st = engine.Commit();
    ASSERT_TRUE(st.ok()) << st.ToString();
    live = QueryDump(&engine, "low");
    EXPECT_EQ(live, "(3)\n");
  }
  IdlogEngine fresh;
  Status st = fresh.PrepareRecovery(wal_path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(fresh.LoadProgramText(program).ok());
  st = fresh.CompleteRecovery();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(QueryDump(&fresh, "low"), live);
}

// Differential oracle for incremental insert commits over the 40-seed
// corpus: each program takes eight random insert transactions through a
// durable session, and after every commit each query predicate must
// equal a fresh engine's evaluation of the same EDB, with VerifyModel
// holding. Commits the engine cannot extend monotonically (negation or
// ID-literals over the change) fall back to a full run; the share that
// went incremental is reported.
// The update_session workload's shape against a reference computed
// without the engine: 60 single-edge commits on a 60-node graph, one
// retraction of a live edge after every nine inserts of a fresh one.
// `path` is the BFS closure of the live edges after every commit, and
// again after recovery from the snapshot and the log.
TEST(Session, CommitsAndRecoveryMatchABfsClosure) {
  constexpr int64_t kNodes = 60;
  ScratchDir scratch("bfs");
  const std::string wal_path = scratch.Path("s.wal");
  std::vector<testing_util::Edge> live =
      testing_util::RandomGraph(kNodes, 240, 5);
  auto edge = [](const testing_util::Edge& e) {
    return Tuple{Value::Number(e.first), Value::Number(e.second)};
  };
  auto expect_closure = [&](IdlogEngine* engine) {
    auto path = engine->Query("path");
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    EXPECT_TRUE((*path)->SortedTuples() ==
                testing_util::BfsClosure(kNodes, live));
  };
  {
    IdlogEngine engine;
    for (const testing_util::Edge& e : live) {
      ASSERT_TRUE(engine.AddFact("edge", edge(e)).ok());
    }
    ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
    ASSERT_TRUE(engine.AttachWal(wal_path).ok());
    std::mt19937_64 rng(17);
    for (int c = 0; c < 60; ++c) {
      SCOPED_TRACE("commit " + std::to_string(c));
      ASSERT_TRUE(engine.Begin().ok());
      if (c % 10 == 9) {
        const size_t at = rng() % live.size();
        ASSERT_TRUE(engine.Retract("edge", edge(live[at])).ok());
        live[at] = live.back();
        live.pop_back();
      } else {
        testing_util::Edge e;
        do {
          e = {static_cast<int64_t>(rng() % kNodes),
               static_cast<int64_t>(rng() % kNodes)};
        } while (e.first == e.second ||
                 std::find(live.begin(), live.end(), e) != live.end());
        ASSERT_TRUE(engine.Insert("edge", edge(e)).ok());
        live.push_back(e);
      }
      Status st = engine.Commit();
      ASSERT_TRUE(st.ok()) << st.ToString();
      expect_closure(&engine);
    }
  }
  IdlogEngine recovered;
  ASSERT_TRUE(recovered.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(recovered.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(recovered.CompleteRecovery().ok());
  EXPECT_EQ(recovered.wal_commits(), 60u);
  expect_closure(&recovered);
}

TEST(SessionCorpus, InsertCommitsMatchAFreshRun) {
  constexpr int kSeeds = 40;
  constexpr int kCommits = 8;
  int incremental = 0;
  int seeds_incremental = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("corpus seed " + std::to_string(seed));
    testing_util::CorpusGenerator gen(static_cast<uint64_t>(seed));
    const std::string program = gen.Generate();
    std::vector<std::vector<std::string>> edb =
        testing_util::CorpusEdb(static_cast<uint64_t>(seed));
    ScratchDir scratch("corpus" + std::to_string(seed));

    IdlogEngine engine;
    for (const auto& row : edb) {
      ASSERT_TRUE(
          engine.AddRow(row[0], {row.begin() + 1, row.end()}).ok());
    }
    ASSERT_TRUE(engine.LoadProgramText(program).ok());
    ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

    std::mt19937_64 rng(static_cast<uint64_t>(seed) * 131 + 17);
    auto constant = [&rng]() { return "c" + std::to_string(rng() % 9); };
    bool any_incremental = false;
    for (int c = 0; c < kCommits; ++c) {
      SCOPED_TRACE("commit " + std::to_string(c));
      ASSERT_TRUE(engine.Begin().ok());
      const int rows = 1 + static_cast<int>(rng() % 3);
      for (int r = 0; r < rows; ++r) {
        std::vector<std::string> row = {"e1", constant()};
        if (rng() % 2 == 0) row = {"e0", constant(), constant()};
        ASSERT_TRUE(engine
                        .Insert(row[0], T(&engine.symbols(),
                                          {row.begin() + 1, row.end()}))
                        .ok());
        edb.push_back(std::move(row));
      }
      Status st = engine.Commit();
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (engine.last_commit_incremental()) {
        ++incremental;
        any_incremental = true;
      }

      IdlogEngine fresh;
      for (const auto& row : edb) {
        ASSERT_TRUE(
            fresh.AddRow(row[0], {row.begin() + 1, row.end()}).ok());
      }
      ASSERT_TRUE(fresh.LoadProgramText(program).ok());
      for (const std::string& q : gen.queries()) {
        EXPECT_EQ(QueryDump(&engine, q), QueryDump(&fresh, q)) << q;
      }
      auto verified = engine.VerifyModel();
      ASSERT_TRUE(verified.ok()) << verified.status().ToString();
      EXPECT_TRUE(*verified);
    }
    if (any_incremental) ++seeds_incremental;
  }
  std::printf("[ oracle   ] %d of %d commits went incremental, across %d "
              "of %d seeds\n",
              incremental, kSeeds * kCommits, seeds_incremental, kSeeds);
  RecordProperty("incremental_commits", incremental);
  EXPECT_GT(incremental, 0) << "no commit exercised the incremental path";
}

}  // namespace
}  // namespace idlog
