// EXPLAIN / EXPLAIN ANALYZE: the static plan tree must describe every
// compiled rule (steps, key columns, ArgModes, delta candidates) with
// its rewrite history, and the ANALYZE counters must reconcile exactly
// with the PR 2 per-rule profile — the emit pseudo-step's rows_emitted
// IS facts_inserted, its rows_in IS facts_derived, and step 0's rows_in
// IS the rule's firing count. The idlog-explain-v1 JSON document holds
// only logical counters and is byte-identical across --jobs settings.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/idlog_engine.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "opt/adornment.h"
#include "opt/cleanup.h"
#include "opt/desugar_ids.h"
#include "opt/id_rewrite.h"
#include "opt/magic_sets.h"
#include "opt/projection_push.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

Program MustParse(const std::string& text, SymbolTable* s) {
  auto p = ParseProgram(text, s);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).ValueOrDie();
}

// The company example from the paper (a representative per department,
// plus a join over the choice): three strata, a negation, an ID-literal
// and a recursive-free join — every step kind EXPLAIN renders.
void LoadCompany(IdlogEngine* engine) {
  for (const char* row : {"ann sales", "bob sales", "cal dev", "dee dev",
                          "eva ops", "fay ops", "gil sales"}) {
    std::string r = row;
    size_t sp = r.find(' ');
    ASSERT_TRUE(
        engine->AddRow("emp", {r.substr(0, sp), r.substr(sp + 1)}).ok());
  }
  ASSERT_TRUE(engine
                  ->LoadProgramText(
                      "reps(N, D) :- emp[1](N, D, 0)."
                      "others(N) :- emp(N, D), not emp[1](N, D, 0)."
                      "pair(A, B) :- reps(A, D), reps(B, D), A != B.")
                  .ok());
}

// --------------------------------------------------------------------
// Static EXPLAIN.

TEST(ExplainPlan, RendersEveryRuleWithoutEvaluating) {
  IdlogEngine engine;
  LoadCompany(&engine);
  auto text = engine.ExplainPlan();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Header counts rules and strata; every clause appears with its plan.
  EXPECT_NE(text->find("EXPLAIN (3 rules"), std::string::npos) << *text;
  EXPECT_NE(text->find("reps(N, D)"), std::string::npos);
  EXPECT_NE(text->find("others(N)"), std::string::npos);
  EXPECT_NE(text->find("scan"), std::string::npos);
  EXPECT_NE(text->find("negation"), std::string::npos);
  EXPECT_NE(text->find("emit"), std::string::npos);
  // Static EXPLAIN never runs the fixpoint.
  EXPECT_EQ(engine.stats().rule_firings, 0u);
}

TEST(ExplainPlan, ShowsIndexChoiceAndDeltaCandidates) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText("path(X, Y) :- edge(X, Y)."
                                   "path(X, Z) :- path(X, Y), edge(Y, Z).")
                  .ok());
  auto text = engine.ExplainPlan();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // The recursive join binds edge's first column through an index.
  EXPECT_NE(text->find("index("), std::string::npos) << *text;
  // Recursive rules list their delta-substitution candidates.
  EXPECT_NE(text->find("delta"), std::string::npos) << *text;
}

TEST(ExplainPlan, TidPushdownNotesSurface) {
  IdlogEngine engine;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.AddRow("emp", {"p" + std::to_string(i), "d"}).ok());
  }
  // N < 2 bounds the ID-literal's tid, so Prepare's pushdown annotates
  // the plan even though no opt/ pass ran.
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "two(N) :- emp[1](N, D, T), T < 2.")
                  .ok());
  auto text = engine.ExplainPlan();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("tid-pushdown"), std::string::npos) << *text;
}

TEST(ExplainPlan, EngineRewriteLogIsRenderedWithThePlan) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("e", {"a", "b"}).ok());
  RewriteLog log;
  log.Note("magic-sets", -1, "query seed covers e(a, _)");
  engine.SetRewriteLog(log);
  ASSERT_TRUE(engine.LoadProgramText("p(X) :- e(X, Y).").ok());
  auto text = engine.ExplainPlan();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("magic-sets"), std::string::npos) << *text;
  EXPECT_NE(text->find("query seed covers"), std::string::npos) << *text;
}

// --------------------------------------------------------------------
// EXPLAIN ANALYZE counters and the profile sum invariant.

TEST(ExplainAnalyze, CountersReconcileWithProfile) {
  IdlogEngine engine;
  engine.EnableProfiling(true);
  LoadCompany(&engine);
  ASSERT_TRUE(engine.Run().ok());
  testing_util::ExpectCountersReconcile(engine);
}

// Incremental insert commits count like any other pass: EXPLAIN ANALYZE
// keeps reconciling with the profile and the totals, which accumulate
// across the commits.
TEST(ExplainAnalyze, IncrementalCommitsKeepCountersReconciled) {
  const std::string wal =
      (std::filesystem::temp_directory_path() /
       ("idlog_explain_test_" + std::to_string(::getpid()) + ".wal"))
          .string();
  IdlogEngine engine;
  engine.EnableProfiling(true);
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(engine
                    .AddRow("edge", {"a" + std::to_string(i),
                                     "a" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine
                  .LoadProgramText("path(X, Y) :- edge(X, Y)."
                                   "path(X, Y) :- edge(X, Z), path(Z, Y).")
                  .ok());
  ASSERT_TRUE(engine.AttachWal(wal).ok());
  const uint64_t full_rounds = engine.stats().iterations;
  std::string prev = "a0";
  for (int i = 0; i < 5; ++i) {
    const std::string node = "z" + std::to_string(i);
    ASSERT_TRUE(engine.Begin().ok());
    ASSERT_TRUE(engine
                    .Insert("edge",
                            testing_util::T(&engine.symbols(), {node, prev}))
                    .ok());
    ASSERT_TRUE(engine.Commit().ok());
    ASSERT_TRUE(engine.last_commit_incremental());
    prev = node;
  }
  EXPECT_GT(engine.stats().iterations, full_rounds);
  testing_util::ExpectCountersReconcile(engine);
  std::filesystem::remove(wal);
  std::filesystem::remove(wal + ".snap");
}

// The round that trips the iteration budget has committed and
// `iterations` counts it, so the round log shows it too. The TC's
// recursive task fans out at --jobs 4.
TEST(ExplainAnalyze, IterationTrippedRunReconciles) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    IdlogEngine engine;
    engine.SetThreads(jobs);
    engine.EnableProfiling(true);
    std::mt19937 rng(120);
    for (int i = 0; i < 300; ++i) {
      const std::string from = "n" + std::to_string(rng() % 120);
      const std::string to = "n" + std::to_string(rng() % 120);
      ASSERT_TRUE(engine.AddRow("edge", {from, to}).ok());
    }
    ASSERT_TRUE(engine
                    .LoadProgramText("path(X, Y) :- edge(X, Y)."
                                     "path(X, Z) :- path(X, Y), edge(Y, Z).")
                    .ok());
    EvalLimits limits;
    limits.max_iterations = 3;
    engine.SetLimits(limits);
    engine.SetPartialResults(true);
    ASSERT_TRUE(engine.Run().ok());
    ASSERT_EQ(engine.last_trip().code(), StatusCode::kResourceExhausted)
        << engine.last_trip().ToString();
    EXPECT_EQ(engine.stats().iterations, 4u);
    testing_util::ExpectCountersReconcile(engine);
  }
}

// Under random tids a program has many perfect models and each run
// computes one, so rendering the counters must not evaluate again.
TEST(ExplainAnalyze, RenderingKeepsTheModel) {
  IdlogEngine engine;
  for (int d = 0; d < 20; ++d) {
    for (int e = 0; e < 5; ++e) {
      ASSERT_TRUE(engine
                      .AddRow("emp", {"e" + std::to_string(d * 5 + e),
                                      "d" + std::to_string(d)})
                      .ok());
    }
  }
  ASSERT_TRUE(engine.LoadProgramText("reps(N, D) :- emp[2](N, D, 0).").ok());
  engine.SetTidAssigner(std::make_unique<RandomTidAssigner>(7));
  auto before = engine.Query("reps");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const std::string dump = testing_util::Dump(**before, engine.symbols());
  const EvalStats stats = engine.stats();
  ASSERT_TRUE(engine.ExplainAnalyze().ok());
  ASSERT_TRUE(engine.ExplainPlanJson(/*analyze=*/true).ok());
  auto after = engine.Query("reps");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(testing_util::Dump(**after, engine.symbols()), dump);
  EXPECT_EQ(engine.stats().iterations, stats.iterations);
  EXPECT_EQ(engine.stats().eval_wall_ns, stats.eval_wall_ns);
}

TEST(ExplainAnalyze, TextIncludesCountersAndRounds) {
  IdlogEngine engine;
  LoadCompany(&engine);
  ASSERT_TRUE(engine.Run().ok());
  auto text = engine.ExplainAnalyze();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("EXPLAIN ANALYZE"), std::string::npos) << *text;
  EXPECT_NE(text->find("rows_in"), std::string::npos) << *text;
  EXPECT_NE(text->find("fixpoint rounds"), std::string::npos) << *text;
  EXPECT_NE(text->find("totals:"), std::string::npos) << *text;
}

// --------------------------------------------------------------------
// The idlog-explain-v1 JSON document.

TEST(ExplainJson, ValidatesAndCarriesTheSchemaTag) {
  IdlogEngine engine;
  LoadCompany(&engine);
  ASSERT_TRUE(engine.Run().ok());
  auto json = engine.ExplainPlanJson(/*analyze=*/true);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  Status valid = ValidateJson(*json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json->find("\"idlog-explain-v1\""), std::string::npos);
  EXPECT_NE(json->find("\"rows_scanned\""), std::string::npos);
  // Physical cache counters (index_hits/misses/builds) may differ
  // between serial and parallel runs, so — like timings — they are
  // text-only and never enter the deterministic document.
  EXPECT_EQ(json->find("\"index_hits\""), std::string::npos);
  EXPECT_EQ(json->find("\"index_misses\""), std::string::npos);
  EXPECT_EQ(json->find("\"index_builds\""), std::string::npos);
  EXPECT_EQ(json->find("_ns\""), std::string::npos);
}

TEST(ExplainJson, StaticDocumentValidatesWithoutRunning) {
  IdlogEngine engine;
  LoadCompany(&engine);
  auto json = engine.ExplainPlanJson(/*analyze=*/false);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_TRUE(ValidateJson(*json).ok());
  EXPECT_NE(json->find("\"analyze\":false"), std::string::npos);
  EXPECT_EQ(engine.stats().rule_firings, 0u);
}

TEST(ExplainJson, ByteIdenticalAcrossJobs) {
  std::string serial_doc, parallel_doc;
  for (int threads : {1, 4}) {
    IdlogEngine engine;
    engine.SetThreads(threads);
    LoadCompany(&engine);
    ASSERT_TRUE(engine.Run().ok());
    auto json = engine.ExplainPlanJson(/*analyze=*/true);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    (threads == 1 ? serial_doc : parallel_doc) = *json;
  }
  EXPECT_EQ(serial_doc, parallel_doc);
}

TEST(ExplainJson, RecursiveProgramIdenticalAcrossJobs) {
  std::string docs[2];
  for (int t = 0; t < 2; ++t) {
    IdlogEngine engine;
    engine.SetThreads(t == 0 ? 1 : 4);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine.AddRow("edge", {"n" + std::to_string(i),
                                         "n" + std::to_string((i + 1) % 10)})
                      .ok());
    }
    ASSERT_TRUE(engine
                    .LoadProgramText(
                        "path(X, Y) :- edge(X, Y)."
                        "path(X, Z) :- path(X, Y), edge(Y, Z)."
                        "sink(X) :- edge(X, Y), not edge(Y, X).")
                    .ok());
    ASSERT_TRUE(engine.Run().ok());
    auto json = engine.ExplainPlanJson(/*analyze=*/true);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    docs[t] = *json;
  }
  EXPECT_EQ(docs[0], docs[1]);
}

// --------------------------------------------------------------------
// Metrics integration: the new executor counters report through
// --metrics-json alongside the PR 2 totals.

TEST(ExplainMetrics, IndexCountersAppearInMetricsJson) {
  IdlogEngine engine;
  engine.EnableProfiling(true);
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText("path(X, Y) :- edge(X, Y)."
                                   "path(X, Z) :- path(X, Y), edge(Y, Z).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  std::string json = engine.profile().ToMetricsJson();
  EXPECT_TRUE(ValidateJson(json).ok());
  EXPECT_NE(json.find("totals.index_probes"), std::string::npos);
  EXPECT_NE(json.find("totals.index_builds"), std::string::npos);
  EXPECT_NE(json.find("totals.index_cache_misses"), std::string::npos);
  EXPECT_GT(engine.stats().index_probes, 0u);
}

// --------------------------------------------------------------------
// RewriteLog threading through every opt/ pass.

TEST(RewriteLogThreading, DesugarNotesDefinitionsAndRewrites) {
  SymbolTable s;
  Program p = MustParse("q(N) :- emp[1](N, D, 0).", &s);
  RewriteLog log;
  auto result = DesugarGroupedIds(p, &log);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->literals_desugared, 1);
  bool program_wide = false, per_clause = false;
  for (const RewriteNote& n : log.notes()) {
    EXPECT_EQ(n.pass, "id-desugar");
    if (n.clause_index < 0) program_wide = true;
    if (n.clause_index >= 0) {
      per_clause = true;
      EXPECT_LT(n.clause_index,
                static_cast<int>(result->program.clauses.size()));
    }
  }
  EXPECT_TRUE(program_wide);  // the footnote-5 definition block
  EXPECT_TRUE(per_clause);    // the rewritten literal
}

TEST(RewriteLogThreading, MagicSetsNotesSeedAndGuardedRules) {
  IdlogEngine scratch;  // only for its symbol table
  SymbolTable& s = scratch.symbols();
  Program p = MustParse(
      "path(X, Y) :- edge(X, Y)."
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      &s);
  MagicQuery query;
  query.predicate = "path";
  query.bindings = {Value::Symbol(s.Intern("a")), std::nullopt};
  RewriteLog log;
  auto result = MagicSetTransform(p, query, &log);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(log.empty());
  int in_range = 0;
  for (const RewriteNote& n : log.notes()) {
    EXPECT_EQ(n.pass, "magic-sets");
    if (n.clause_index >= 0) {
      EXPECT_LT(n.clause_index,
                static_cast<int>(result->program.clauses.size()));
      ++in_range;
    }
  }
  EXPECT_GT(in_range, 0);
}

TEST(RewriteLogThreading, ProjectionAndIdRewriteNoteTouchedClauses) {
  SymbolTable s;
  // Z is existential in q: projection narrows r, id-rewrite groups e.
  Program p = MustParse(
      "q(X) :- r(X, Z)."
      "r(X, Z) :- e(X, Z).",
      &s);
  ExistentialAnalysis analysis = DetectExistentialArguments(p, "q");
  RewriteLog log;
  auto projected = PushProjections(p, analysis, &log);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  ASSERT_FALSE(log.empty());
  for (const RewriteNote& n : log.notes()) {
    EXPECT_EQ(n.pass, "projection-push");
  }

  ExistentialAnalysis analysis2 =
      DetectExistentialArguments(projected->program, "q");
  RewriteLog log2;
  auto rewritten =
      RewriteExistentialToId(projected->program, analysis2, &log2);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  if (rewritten->literals_rewritten > 0) {
    EXPECT_FALSE(log2.empty());
    for (const RewriteNote& n : log2.notes()) {
      EXPECT_EQ(n.pass, "id-rewrite");
    }
  }
}

TEST(RewriteLogThreading, CleanupNotesWhatItRemovedAndMapsKeptClauses) {
  SymbolTable s;
  Program p = MustParse(
      "q(X) :- e(X, Y), e(X, Y)."  // duplicate literal
      "q(X) :- e(X, Y), e(X, Y)."  // duplicate clause
      "r(X) :- e(X, Y).",          // unreachable from q
      &s);
  RewriteLog log;
  std::vector<int> kept_from;
  Program cleaned = CleanupProgram(p, "q", nullptr, &log, &kept_from);
  EXPECT_EQ(cleaned.clauses.size(), 1u);
  ASSERT_EQ(kept_from.size(), cleaned.clauses.size());
  EXPECT_EQ(kept_from[0], 0);  // the surviving clause came from input 0
  ASSERT_FALSE(log.empty());
  bool saw_duplicate_note = false;
  for (const RewriteNote& n : log.notes()) {
    EXPECT_EQ(n.pass, "cleanup");
    EXPECT_EQ(n.clause_index, -1);  // cleanup notes are program-wide
    if (n.detail.find("duplicate") != std::string::npos) {
      saw_duplicate_note = true;
    }
  }
  EXPECT_TRUE(saw_duplicate_note);
}

TEST(RewriteLogThreading, OptimizeForOutputRemapsThroughCleanup) {
  SymbolTable s;
  // The dead clause "r(X) :- dead(X)." is removed by cleanup's
  // reachability restriction; projection touches r in the live clause.
  Program p = MustParse(
      "q(X) :- r(X, Z)."
      "r(X, Z) :- e(X, Z)."
      "dead(X) :- unrelated(X, Y).",
      &s);
  RewriteLog log;
  auto result = OptimizeForOutput(p, "q", &log);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const RewriteNote& n : log.notes()) {
    // Remapped indices must refer to the *final* program.
    EXPECT_LT(n.clause_index,
              static_cast<int>(result->program.clauses.size()));
  }
}

}  // namespace
}  // namespace idlog
