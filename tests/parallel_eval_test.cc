// Parallel fixpoint equivalence: `SetThreads(n)` must be an invisible
// go-faster switch. For fixed paper-style programs and a corpus of
// random stratified programs, a 4-thread run must produce byte-identical
// answers, EvalStats, per-rule profiles and trace structure to the
// serial run (timing values aside) — the determinism contract of the
// stratum executor's task-order merge.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/idlog_engine.h"
#include "eval/rule_plan.h"
#include "exec/round_executor.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Dump;

// --------------------------------------------------------------------
// ThreadPool basics.

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  pool.Run(std::move(tasks));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunIsABarrierAndReusable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back([&counter] { ++counter; });
    }
    pool.Run(std::move(tasks));
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPool, SizeOneRunsOnCaller) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Run({[&seen] { seen = std::this_thread::get_id(); }});
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, EmptyBatchIsANoop) {
  ThreadPool pool(2);
  pool.Run({});
}

// Pins the claim-order invariant Run() documents: every thread takes
// the lowest unclaimed index under the pool mutex, so the observed
// claim sequence is exactly 0, 1, 2, ... regardless of which thread
// claims or how long tasks run.
TEST(ThreadPool, ClaimsTasksStrictlyInIndexOrder) {
  ThreadPool pool(4);
  // The observer runs under the pool mutex, so appends are serialized
  // and claim order == append order; the read below happens after the
  // Run() barrier.
  std::vector<size_t> claims;
  pool.SetClaimObserverForTest([&claims](size_t i) {
    claims.push_back(i);
  });
  for (int batch = 0; batch < 3; ++batch) {
    claims.clear();
    std::vector<std::function<void()>> tasks;
    std::atomic<int> sink{0};
    for (int i = 0; i < 100; ++i) {
      // Uneven task durations so completion order scrambles while claim
      // order must not.
      tasks.push_back([&sink, i] {
        for (int spin = 0; spin < (i % 7) * 50; ++spin) ++sink;
      });
    }
    pool.Run(std::move(tasks));
    ASSERT_EQ(claims.size(), 100u);
    for (size_t i = 0; i < claims.size(); ++i) {
      ASSERT_EQ(claims[i], i) << "claim out of order at position " << i;
    }
  }
  pool.SetClaimObserverForTest(nullptr);
}

// Error hardening: a throwing task is contained at the pool boundary —
// it neither terminates the process nor wedges the batch accounting,
// and the pool stays usable for later batches.
TEST(ThreadPool, ThrowingTaskIsContained) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    if (i % 4 == 1) {
      tasks.push_back([] { throw std::runtime_error("task boom"); });
    } else {
      tasks.push_back([&ran] { ++ran; });
    }
  }
  pool.Run(std::move(tasks));
  EXPECT_EQ(ran.load(), 12);
  // The pool must still drain a fresh batch after swallowing throws.
  std::atomic<int> again{0};
  pool.Run({[&again] { ++again; }, [&again] { ++again; }});
  EXPECT_EQ(again.load(), 2);
}

// --------------------------------------------------------------------
// Serial-vs-parallel equivalence harness.

struct RunOutcome {
  std::string answers;          ///< Dump of every query predicate.
  EvalStats stats;
  EvalProfile profile;
  std::vector<std::string> trace;  ///< Events minus timing fields.
  std::string explain_json;     ///< idlog-explain-v1 document.
  std::string why;              ///< WHY text + JSON for sample answers.
};

// Renders the deterministic part of a trace event (everything except
// timestamps and durations).
std::vector<std::string> TraceShape(const TraceSink& sink) {
  std::vector<std::string> shape;
  for (const TraceEvent& ev : sink.events()) {
    std::string line;
    line += ev.phase;
    line += " " + ev.category + "/" + ev.name;
    for (const TraceArg& arg : ev.args) {
      line += " " + arg.key + "=" + arg.value;
    }
    shape.push_back(std::move(line));
  }
  return shape;
}

RunOutcome RunWith(int threads, const std::string& program,
                   const std::vector<std::vector<std::string>>& edb,
                   const std::vector<std::string>& queries) {
  IdlogEngine engine;
  for (const auto& row : edb) {
    std::vector<std::string> fields(row.begin() + 1, row.end());
    EXPECT_TRUE(engine.AddRow(row[0], fields).ok());
  }
  engine.SetThreads(threads);
  engine.EnableProvenance(true);
  TraceSink sink;
  engine.SetTraceSink(&sink);
  Status st = engine.LoadProgramText(program);
  EXPECT_TRUE(st.ok()) << st.ToString();

  RunOutcome out;
  for (const std::string& q : queries) {
    auto rel = engine.Query(q);
    EXPECT_TRUE(rel.ok()) << q << ": " << rel.status().ToString();
    if (rel.ok()) {
      out.answers += q + ":\n" + Dump(**rel, engine.symbols());
      // Proof trees (text and idlog-why-v1 JSON) for a few answers per
      // query: the provenance merge contract says these are pure
      // functions of the model, so they must be byte-identical across
      // thread counts.
      size_t sampled = 0;
      for (const Tuple& t : (*rel)->tuples()) {
        if (++sampled > 3) break;
        auto why_text = engine.Why(q, t);
        EXPECT_TRUE(why_text.ok()) << q << ": "
                                   << why_text.status().ToString();
        if (why_text.ok()) out.why += *why_text;
        auto why_json = engine.WhyJson(q, t);
        EXPECT_TRUE(why_json.ok()) << q << ": "
                                   << why_json.status().ToString();
        if (why_json.ok()) out.why += *why_json + "\n";
      }
    }
  }
  out.stats = engine.stats();
  out.profile = engine.profile();
  out.trace = TraceShape(sink);
  auto doc = engine.ExplainPlanJson(/*analyze=*/true);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (doc.ok()) out.explain_json = *doc;
  return out;
}

void ExpectSameStats(const EvalStats& serial, const EvalStats& parallel) {
  EXPECT_EQ(serial.tuples_considered, parallel.tuples_considered);
  EXPECT_EQ(serial.facts_derived, parallel.facts_derived);
  EXPECT_EQ(serial.facts_inserted, parallel.facts_inserted);
  EXPECT_EQ(serial.rule_firings, parallel.rule_firings);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(serial.strata_evaluated, parallel.strata_evaluated);
  EXPECT_EQ(serial.id_groups_assigned, parallel.id_groups_assigned);
  EXPECT_EQ(serial.id_tuples_materialized,
            parallel.id_tuples_materialized);
  // The same joins probe the same keys regardless of --jobs, and every
  // round binds its tasks — building the same indexes — before any task
  // runs, whether a pool runs them or not.
  EXPECT_EQ(serial.index_probes, parallel.index_probes);
  EXPECT_EQ(serial.index_builds, parallel.index_builds);
  EXPECT_EQ(serial.index_cache_misses, parallel.index_cache_misses);
  // Provenance counters are logical: the task-order merge reproduces
  // the serial store node for node.
  EXPECT_EQ(serial.provenance_nodes, parallel.provenance_nodes);
  EXPECT_EQ(serial.provenance_premises, parallel.provenance_premises);
  EXPECT_EQ(serial.provenance_bytes, parallel.provenance_bytes);
}

// Profile columns must sum to the engine totals in both modes — the
// invariant the attribution design guarantees (counters are deltas of
// the same shared stats in serial mode; merged per-task counters in
// parallel mode).
void ExpectProfileSumsToTotals(const RunOutcome& run) {
  uint64_t considered = 0, derived = 0, inserted = 0, firings = 0;
  for (const RuleProfile& rp : run.profile.rules) {
    considered += rp.tuples_considered;
    derived += rp.facts_derived;
    inserted += rp.facts_inserted;
    firings += rp.firings;
  }
  EXPECT_EQ(considered, run.stats.tuples_considered);
  EXPECT_EQ(derived, run.stats.facts_derived);
  EXPECT_EQ(inserted, run.stats.facts_inserted);
  EXPECT_EQ(firings, run.stats.rule_firings);
}

// Full byte-equality between two runs: answers, logical stats, per-rule
// profile columns, trace shape, EXPLAIN ANALYZE JSON (logical counters
// only) and WHY output (proof trees read the merged provenance store,
// which absorbing the parts in (task, partition) order makes identical
// to the serial one).
void ExpectSameOutcome(const RunOutcome& serial,
                       const RunOutcome& parallel) {
  EXPECT_EQ(serial.answers, parallel.answers);
  ExpectSameStats(serial.stats, parallel.stats);
  ExpectProfileSumsToTotals(serial);
  ExpectProfileSumsToTotals(parallel);
  ASSERT_EQ(serial.profile.rules.size(), parallel.profile.rules.size());
  for (size_t i = 0; i < serial.profile.rules.size(); ++i) {
    const RuleProfile& s = serial.profile.rules[i];
    const RuleProfile& p = parallel.profile.rules[i];
    EXPECT_EQ(s.firings, p.firings) << "rule " << i;
    EXPECT_EQ(s.tuples_considered, p.tuples_considered) << "rule " << i;
    EXPECT_EQ(s.facts_derived, p.facts_derived) << "rule " << i;
    EXPECT_EQ(s.facts_inserted, p.facts_inserted) << "rule " << i;
  }
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.explain_json, parallel.explain_json);
  EXPECT_EQ(serial.why, parallel.why);
}

void ExpectEquivalent(const std::string& program,
                      const std::vector<std::vector<std::string>>& edb,
                      const std::vector<std::string>& queries) {
  SCOPED_TRACE(program);
  RunOutcome serial = RunWith(1, program, edb, queries);
  RunOutcome parallel = RunWith(4, program, edb, queries);
  ExpectSameOutcome(serial, parallel);
}

// --------------------------------------------------------------------
// Fixed programs: the shapes the paper exercises.

TEST(ParallelEval, TransitiveClosure) {
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 12; ++i) {
    edb.push_back({"edge", "n" + std::to_string(i),
                   "n" + std::to_string((i + 1) % 12)});
  }
  ExpectEquivalent(
      "path(X, Y) :- edge(X, Y)."
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      edb, {"path"});
}

TEST(ParallelEval, ManyRulesSameHeadOneStratum) {
  // Eight independent join rules with one head: the round-0 batch the
  // parallel executor fans out, including cross-rule duplicate
  // derivations the merge must dedup exactly like the serial shared
  // staging does.
  std::vector<std::vector<std::string>> edb;
  std::string program;
  for (int k = 0; k < 8; ++k) {
    std::string e = "e" + std::to_string(k);
    std::string f = "f" + std::to_string(k);
    for (int i = 0; i < 6; ++i) {
      edb.push_back({e, "a" + std::to_string(i),
                     "m" + std::to_string(i % 3)});
      edb.push_back({f, "m" + std::to_string(i % 3),
                     "b" + std::to_string(i % 4)});
    }
    program += "q(X, Y) :- " + e + "(X, Z), " + f + "(Z, Y).";
  }
  ExpectEquivalent(program, edb, {"q"});
}

TEST(ParallelEval, MutualRecursionInOneStratum) {
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 10; ++i) {
    edb.push_back({"e", "n" + std::to_string(i),
                   "n" + std::to_string(i + 1)});
  }
  ExpectEquivalent(
      "even(n0)."
      "odd(Y) :- even(X), e(X, Y)."
      "even(Y) :- odd(X), e(X, Y).",
      edb, {"even", "odd"});
}

TEST(ParallelEval, StratifiedNegation) {
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 8; ++i) {
    edb.push_back({"node", "n" + std::to_string(i)});
    if (i % 2 == 0) {
      edb.push_back({"e", "n" + std::to_string(i),
                     "n" + std::to_string(i + 1)});
    }
  }
  ExpectEquivalent(
      "reach(X) :- e(n0, X)."
      "reach(Y) :- reach(X), e(X, Y)."
      "unreached(X) :- node(X), not reach(X).",
      edb, {"reach", "unreached"});
}

TEST(ParallelEval, IdLiteralsAcrossWorkers) {
  // ID-relations are materialized by the coordinator before the round;
  // workers only read them. Identity assigner keeps choices fixed.
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 6; ++i) {
    edb.push_back({"emp", "p" + std::to_string(i),
                   "d" + std::to_string(i % 3)});
  }
  ExpectEquivalent(
      "rep(N, D) :- emp[2](N, D, 0)."
      "others(N) :- emp(N, D), not emp[2](N, D, 0)."
      "pair(A, B) :- rep(A, D), rep(B, D).",
      edb, {"rep", "others", "pair"});
}

TEST(ParallelEval, IndexedStepNeverEntered) {
  // The second edge scan probes an index on Y, but no binding reaches
  // it: every edge value is below 1000. Its index is built when the task
  // is bound, at every --jobs, so the index counters agree as well.
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 10; ++i) {
    edb.push_back({"edge", std::to_string(i), std::to_string(i + 1)});
  }
  ExpectEquivalent(
      "r(X, Z) :- edge(X, Y), Y > 1000, edge(Y, Z)."
      "s(X) :- edge(X, Y).",
      edb, {"r", "s"});
}

TEST(ParallelEval, ArithmeticChains) {
  ExpectEquivalent(
      "count(0)."
      "count(M) :- count(N), N < 40, succ(N, M)."
      "twice(M) :- count(N), mul(N, 2, M).",
      {}, {"count", "twice"});
}

TEST(ParallelEval, NaiveModeAlsoEquivalent) {
  IdlogEngine serial;
  IdlogEngine parallel;
  for (IdlogEngine* e : {&serial, &parallel}) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(e->AddRow("edge", {"n" + std::to_string(i),
                                     "n" + std::to_string(i + 1)})
                      .ok());
    }
    e->SetSeminaive(false);
    ASSERT_TRUE(e->LoadProgramText("path(X, Y) :- edge(X, Y)."
                                   "path(X, Z) :- path(X, Y), edge(Y, Z).")
                    .ok());
  }
  parallel.SetThreads(4);
  auto rs = serial.Query("path");
  auto rp = parallel.Query("path");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(Dump(**rs, serial.symbols()), Dump(**rp, parallel.symbols()));
  ExpectSameStats(serial.stats(), parallel.stats());
}

TEST(ParallelEval, ProvenanceRecordsUnderWorkerPool) {
  // Provenance no longer forces a serial fallback: workers record into
  // private per-task stores merged in task order, so a 4-thread run
  // explains facts and matches the serial run's store exactly.
  IdlogEngine serial;
  IdlogEngine parallel;
  for (IdlogEngine* e : {&serial, &parallel}) {
    ASSERT_TRUE(e->AddRow("e", {"a", "b"}).ok());
    ASSERT_TRUE(e->AddRow("e", {"b", "c"}).ok());
    ASSERT_TRUE(e->AddRow("e", {"c", "d"}).ok());
    e->EnableProvenance(true);
    ASSERT_TRUE(e->LoadProgramText("p(X, Y) :- e(X, Y)."
                                   "p(X, Z) :- p(X, Y), e(Y, Z).")
                    .ok());
  }
  parallel.SetThreads(4);
  ASSERT_TRUE(serial.Run().ok());
  ASSERT_TRUE(parallel.Run().ok());
  EXPECT_EQ(serial.stats().provenance_nodes,
            parallel.stats().provenance_nodes);
  EXPECT_EQ(serial.stats().provenance_premises,
            parallel.stats().provenance_premises);
  EXPECT_EQ(serial.stats().provenance_bytes,
            parallel.stats().provenance_bytes);
  auto st = serial.Why("p", testing_util::T(&serial.symbols(), {"a", "d"}));
  auto pt =
      parallel.Why("p", testing_util::T(&parallel.symbols(), {"a", "d"}));
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(pt.ok()) << pt.status().ToString();
  EXPECT_EQ(*st, *pt);
}

TEST(ParallelEval, GovernorTripsSurfaceFromParallelRuns) {
  IdlogEngine engine;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.AddRow("e", {"n" + std::to_string(i),
                                    "n" + std::to_string(i + 1)})
                    .ok());
  }
  engine.SetThreads(4);
  EvalLimits limits;
  limits.max_tuples = 10;
  engine.SetLimits(limits);
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                     "p(X, Z) :- p(X, Y), e(Y, Z).")
                  .ok());
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
}

TEST(ParallelEval, ThreadCountChangeInvalidatesRun) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("e", {"a", "b"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("p(X) :- e(X, Y).").ok());
  ASSERT_TRUE(engine.Run().ok());
  uint64_t firings = engine.stats().rule_firings;
  engine.SetThreads(4);
  ASSERT_TRUE(engine.Run().ok());  // re-evaluates under the pool
  EXPECT_EQ(engine.stats().rule_firings, firings);
}

// --------------------------------------------------------------------
// The worked examples from tests/paper_examples_test.cc, re-run under
// the equivalence harness: every program the paper suite mechanizes
// must produce identical answers, stats, profiles and trace shapes
// under --jobs 1 and --jobs 4.

struct PaperCase {
  const char* label;
  const char* program;
  std::vector<std::vector<std::string>> edb;
  std::vector<std::string> queries;
};

std::vector<PaperCase> PaperCases() {
  return {
      {"AllDepts", "all_depts(D) :- emp[2](N, D, 0).",
       {{"emp", "ann", "sales"}, {"emp", "bob", "sales"},
        {"emp", "cal", "dev"}},
       {"all_depts"}},
      {"Example2SexGuess",
       "sex_guess(X, male) :- person(X)."
       "sex_guess(X, female) :- person(X)."
       "man(X) :- sex_guess[1](X, male, 1)."
       "woman(X) :- sex_guess[1](X, female, 1).",
       {{"person", "a"}, {"person", "b"}},
       {"man", "woman"}},
      {"Example5SelectTwo",
       "select_two(Name) :- emp[2](Name, Dept, N), N < 2.",
       {{"emp", "a1", "d1"}, {"emp", "a2", "d1"}, {"emp", "a3", "d1"},
        {"emp", "b1", "d2"}, {"emp", "b2", "d2"}},
       {"select_two"}},
      {"Example7Rewritten",
       "q1 :- x(c)."
       "q2 :- x(a)."
       "x(Y) :- p[](Y, 0)."
       "p(b) :- y(X)."
       "p(c) :- y(X).",
       {{"y", "w"}},
       {"q1", "q2"}},
      {"ArbitraryCafe",
       "at_corner(C) :- cafe(C, st_germain), corner(C)."
       "pick(C) :- at_corner[](C, 0).",
       {{"cafe", "les_deux_magots", "st_germain"},
        {"cafe", "flore", "st_germain"},
        {"cafe", "cluny", "st_michel"},
        {"corner", "les_deux_magots"}, {"corner", "flore"}},
       {"pick"}},
      {"Section4IntroRewrite",
       "p(X) :- q(X, Z), z[1](Z, Y, 0), y[](W, 0).",
       {{"q", "x1", "z1"}, {"q", "x2", "z2"},
        {"z", "z1", "y1"}, {"z", "z1", "y2"}, {"z", "z2", "y1"},
        {"y", "w1"}, {"y", "w2"}},
       {"p"}},
  };
}

class ParallelPaperExamples
    : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelPaperExamples, SerialAndParallelAgree) {
  PaperCase c = PaperCases()[GetParam()];
  SCOPED_TRACE(c.label);
  ExpectEquivalent(c.program, c.edb, c.queries);
}

INSTANTIATE_TEST_SUITE_P(Examples, ParallelPaperExamples,
                         ::testing::Range<size_t>(0, PaperCases().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return PaperCases()[info.index].label;
                         });

// --------------------------------------------------------------------
// Randomized corpus (testing_util::CorpusGenerator): layered stratified
// programs with recursion, negation and ID-literals.

class ParallelCorpus : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCorpus, SerialAndParallelAgree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  testing_util::CorpusGenerator gen(seed);
  std::string text = gen.Generate();
  ExpectEquivalent(text, testing_util::CorpusEdb(seed), gen.queries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCorpus, ::testing::Range(0, 40));

// --------------------------------------------------------------------
// --jobs sweep: every thread count must reproduce the --jobs 1 run byte
// for byte — answers, logical stats, profiles, trace shape, EXPLAIN
// ANALYZE JSON and WHY proofs. A task whose step 0 is an unindexed
// scan of at least kMinPartitionRows rows splits into as many
// contiguous row ranges as there are threads, so the closure sweeps,
// whose scans are that large, also cross every split width these
// counts give.

constexpr int kSweepJobs[] = {2, 3, 4, 8};

void ExpectSweepMatchesBaseline(
    const std::string& program,
    const std::vector<std::vector<std::string>>& edb,
    const std::vector<std::string>& queries) {
  RunOutcome baseline = RunWith(1, program, edb, queries);
  for (int jobs : kSweepJobs) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunOutcome run = RunWith(jobs, program, edb, queries);
    ExpectSameOutcome(baseline, run);
  }
}

// A ring whose every node also has chords 5, 17 and 40 ahead: just
// over kMinPartitionRows edges, so a scan of them splits, and branchy,
// so the parts of a split task overlap in the heads they derive.
std::vector<std::vector<std::string>> BranchyRing() {
  const int nodes = static_cast<int>(kMinPartitionRows / 4) + 1;
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < nodes; ++i) {
    for (int step : {1, 5, 17, 40}) {
      edb.push_back({"edge", "n" + std::to_string(i),
                     "n" + std::to_string((i + step) % nodes)});
    }
  }
  return edb;
}

// The tc_parallel workload's shape: a single recursive transitive-
// closure rule with the recursive subgoal outermost, where splitting
// the delta is the only parallelism available.
TEST(JobsSweep, SingleRecursiveRuleTransitiveClosure) {
  ExpectSweepMatchesBaseline(
      "path(X, Y) :- edge(X, Y)."
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      BranchyRing(), {"path"});
}

// The same closure right-linear: the delta is plan step 1, so every
// task splits on its step-0 edge scan, in round 0 and after.
TEST(JobsSweep, RightLinearTransitiveClosure) {
  ExpectSweepMatchesBaseline(
      "path(X, Y) :- edge(X, Y)."
      "path(X, Z) :- edge(X, Y), path(Y, Z).",
      BranchyRing(), {"path"});
}

class JobsSweepCorpus : public ::testing::TestWithParam<int> {};

TEST_P(JobsSweepCorpus, AllJobCountsAgree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  testing_util::CorpusGenerator gen(seed);
  std::string text = gen.Generate();
  SCOPED_TRACE(text);
  ExpectSweepMatchesBaseline(text, testing_util::CorpusEdb(seed),
                             gen.queries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobsSweepCorpus, ::testing::Range(0, 40));

// A governor trip mid-way through a partitioned fixpoint is part of the
// determinism contract too: derived-tuple charges happen at Commit in
// task order, a coordinator-side sequence identical for every --jobs,
// so the trip fires at the same logical point and the partial stats
// match the serial trip exactly.
TEST(JobsSweep, GovernorTripMidPartitionedRun) {
  const std::vector<std::vector<std::string>> edb = BranchyRing();
  auto run_tripped = [&edb](int jobs, Status* st, EvalStats* stats) {
    IdlogEngine engine;
    for (const std::vector<std::string>& row : edb) {
      ASSERT_TRUE(engine.AddRow("e", {row[1], row[2]}).ok());
    }
    engine.SetThreads(jobs);
    EvalLimits limits;
    // Round 0 commits every edge; the trip comes inside round 1, whose
    // delta is those edges, split.
    limits.max_tuples = edb.size() + 100;
    engine.SetLimits(limits);
    ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                       "p(X, Z) :- p(X, Y), e(Y, Z).")
                    .ok());
    *st = engine.Run();
    *stats = engine.stats();
  };
  Status serial_st;
  EvalStats serial_stats;
  run_tripped(1, &serial_st, &serial_stats);
  EXPECT_EQ(serial_st.code(), StatusCode::kResourceExhausted)
      << serial_st.ToString();
  for (int jobs : kSweepJobs) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    Status st;
    EvalStats stats;
    run_tripped(jobs, &st, &stats);
    EXPECT_EQ(st.ToString(), serial_st.ToString());
    ExpectSameStats(serial_stats, stats);
  }
}

// The commit stops at the insert whose charge trips the tuple budget,
// so a partial model holds at most one derived fact past it (before, a
// tripped commit stored the rest of its task: 1,806 facts here at every
// --jobs). The provenance store keeps derivations only of stored facts,
// and WHY on a derived but unstored fact answers as for an absent one.
TEST(JobsSweep, TrippedCommitStopsAtTheBudget) {
  const std::vector<std::vector<std::string>> edb = BranchyRing();
  const size_t budget = edb.size() + 100;
  std::string serial;
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    IdlogEngine engine;
    for (const std::vector<std::string>& row : edb) {
      ASSERT_TRUE(engine.AddRow("e", {row[1], row[2]}).ok());
    }
    engine.SetThreads(jobs);
    EvalLimits limits;
    limits.max_tuples = budget;
    engine.SetLimits(limits);
    engine.SetPartialResults(true);
    engine.EnableProvenance(true);
    ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- e(X, Y)."
                                       "p(X, Z) :- p(X, Y), e(Y, Z).")
                    .ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_EQ(engine.last_trip().code(), StatusCode::kResourceExhausted);
    const Relation* p = *engine.Query("p");
    EXPECT_GT(p->size(), edb.size());
    EXPECT_LE(p->size(), budget + 1);
    EXPECT_EQ(engine.DbStats().provenance_nodes, p->size());

    // Every pair of ring nodes is in the closure; find one not stored.
    Tuple unstored;
    for (size_t i = 0; i < edb.size() && unstored.empty(); i += 4) {
      Tuple t = testing_util::T(&engine.symbols(), {edb[0][1], edb[i][1]});
      if (!p->Contains(t)) unstored = t;
    }
    ASSERT_FALSE(unstored.empty());
    Result<std::string> why = engine.Why("p", unstored);
    EXPECT_EQ(why.status().code(), StatusCode::kNotFound);

    const std::string dump = Dump(*p, engine.symbols());
    if (jobs == 1) {
      serial = dump;
    } else {
      EXPECT_EQ(dump, serial);
    }
  }
}

// --------------------------------------------------------------------
// Answers against a reference computed without the engine. The tests
// above compare the engine with itself (serial against parallel), which
// a storage or commit fault that every path shares would pass.

class ClosureAgainstBfs : public ::testing::TestWithParam<uint64_t> {};

// Left- and right-linear transitive closure of a random 150-node,
// 600-edge graph at 1 and 4 threads: `path` is exactly the BFS closure.
TEST_P(ClosureAgainstBfs, LeftAndRightLinearAtOneAndFourJobs) {
  constexpr int64_t kNodes = 150;
  const std::vector<testing_util::Edge> edges =
      testing_util::RandomGraph(kNodes, 600, GetParam());
  const std::vector<Tuple> expected = testing_util::BfsClosure(kNodes, edges);
  const char* const kPrograms[] = {
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n",
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- edge(X, Y), path(Y, Z).\n"};
  for (const char* program : kPrograms) {
    for (int jobs : {1, 4}) {
      SCOPED_TRACE(std::string(program) + "jobs=" + std::to_string(jobs));
      IdlogEngine engine;
      for (const testing_util::Edge& e : edges) {
        ASSERT_TRUE(engine
                        .AddRow("edge", {std::to_string(e.first),
                                         std::to_string(e.second)})
                        .ok());
      }
      engine.SetThreads(jobs);
      ASSERT_TRUE(engine.LoadProgramText(program).ok());
      ASSERT_TRUE(engine.Run().ok());
      auto path = engine.Query("path");
      ASSERT_TRUE(path.ok()) << path.status().ToString();
      EXPECT_EQ((*path)->size(), expected.size());
      EXPECT_TRUE((*path)->SortedTuples() == expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureAgainstBfs,
                         ::testing::Values(11u, 12u, 13u));

// --------------------------------------------------------------------
// Contiguous row ranges: with a pool, a task whose step 0 is an
// unindexed scan of at least kMinPartitionRows rows splits, and part k
// of K reads the k-th row range of that scan, delta or full relation
// alike. The parts' staged tuples, concatenated in part order with
// repeats dropped, are then exactly what one unsplit evaluation stages.
// That is why the commit can walk a task's parts in index order with
// no merge.

// Runs one task through the round executor, on `pool` when given, and
// returns each part's staged tuples, rendered.
std::vector<std::vector<std::string>> StagedByPart(
    const RulePlan& plan, const RelationSlots& slots, const Relation& head,
    int delta_step, ThreadPool* pool) {
  std::vector<RoundTask> tasks(1);
  RoundTask& task = tasks[0];
  task.plan = &plan;
  task.delta_step = delta_step;
  task.head = &head;
  EvalContext ctx;
  ctx.pool = pool;
  Status st = RunRoundTasks(ctx, slots, &tasks);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(task.status.ok()) << task.status.ToString();
  const SymbolTable no_symbols;
  std::vector<std::vector<std::string>> staged;
  for (const RoundPart& part : task.parts) {
    staged.emplace_back();
    for (const Tuple& t : part.staged.tuples()) {
      staged.back().push_back(TupleToString(t, no_symbols));
    }
  }
  return staged;
}

// One round's inputs: the closure plans below over a dense random
// graph with more edges than a split needs, so distinct rows derive the
// same heads. The delta is round 0's path: the edges themselves, i.e.
// all of path's rows from row 0 on.
class DeltaRanges : public ::testing::Test {
 protected:
  void SetUp() override {
    auto program = ParseProgram(
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
        "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
        "from3(Z) :- edge(3, Y), path(Y, Z).\n"
        "path(100, 200).\n",
        &symbols_);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    for (const Clause& clause : program->clauses) {
      auto compiled = CompileRule(clause);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      RulePlan plan = std::move(*compiled);
      plan.head = program->FindPredicate(plan.head_pred);
      for (PlanStep& step : plan.steps) {
        step.rel = program->FindPredicate(step.predicate);
      }
      plans_.push_back(std::move(plan));
    }
    ASSERT_TRUE(left().steps[0].key_cols.empty());
    ASSERT_TRUE(right().steps[0].key_cols.empty());
    ASSERT_EQ(right().steps[1].predicate, "path");
    ASSERT_FALSE(keyed().steps[0].key_cols.empty());
    ASSERT_TRUE(fact().steps.empty());

    std::mt19937 rng(7);
    while (edge_.size() < kMinPartitionRows + kMinPartitionRows / 4) {
      edge_.Insert({Value::Number(rng() % 40), Value::Number(rng() % 40)});
    }
    path_ = edge_;
    const size_t n = program->predicates.size();
    slots_.full.assign(n, nullptr);
    slots_.derived.assign(n, nullptr);
    slots_.delta.assign(n, DeltaSlot());
    path_slot_ = static_cast<size_t>(left().head);
    const size_t edge_slot =
        static_cast<size_t>(program->FindPredicate("edge"));
    slots_.full[path_slot_] = &path_;
    slots_.full[edge_slot] = &edge_;
    slots_.derived[path_slot_] = &path_;
    slots_.delta[path_slot_].mark = 0;
  }

  const RulePlan& left() const { return plans_[0]; }
  const RulePlan& right() const { return plans_[1]; }
  const RulePlan& keyed() const { return plans_[2]; }
  const RulePlan& fact() const { return plans_[3]; }

  SymbolTable symbols_;
  std::vector<RulePlan> plans_;
  Relation edge_{{Sort::kI, Sort::kI}};
  Relation path_;
  Relation from3_{{Sort::kI}};
  RelationSlots slots_;
  size_t path_slot_ = 0;
};

TEST_F(DeltaRanges, PartsConcatenateToTheSerialStaging) {
  ThreadPool pool(3);
  struct Case {
    const char* name;
    const RulePlan* plan;
    int delta_step;
    const Relation* head;
    size_t delta_rows;  ///< The delta's rows: path's last ones.
    size_t parts;
  };
  const size_t all = path_.size();
  const Case cases[] = {
      {"left-linear, delta at step 0", &left(), 0, &path_, all, 3},
      {"right-linear, delta at step 1", &right(), 1, &path_, all, 3},
      {"round 0, no delta", &left(), -1, &path_, all, 3},
      {"delta a row short of a split", &left(), 0, &path_,
       kMinPartitionRows - 1, 1},
      {"keyed step 0", &keyed(), -1, &from3_, all, 1},
      {"no steps", &fact(), -1, &path_, all, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RelationSlots slots = slots_;
    slots.delta[path_slot_].mark = all - c.delta_rows;
    std::vector<std::vector<std::string>> serial =
        StagedByPart(*c.plan, slots, *c.head, c.delta_step, nullptr);
    ASSERT_EQ(serial.size(), 1u);
    std::vector<std::vector<std::string>> parts =
        StagedByPart(*c.plan, slots, *c.head, c.delta_step, &pool);
    ASSERT_EQ(parts.size(), c.parts);
    std::vector<std::string> concatenated;
    std::set<std::string> seen;
    size_t staged_total = 0;
    for (const std::vector<std::string>& part : parts) {
      // Every row range of these splits derives something.
      if (c.parts > 1) {
        EXPECT_FALSE(part.empty());
      }
      staged_total += part.size();
      for (const std::string& t : part) {
        if (seen.insert(t).second) concatenated.push_back(t);
      }
    }
    EXPECT_FALSE(serial.front().empty());
    EXPECT_EQ(concatenated, serial.front());
    // Some heads of the left-linear split were staged by two parts;
    // dropping those repeats leaves the serial sequence.
    if (c.plan == &left() && c.parts > 1) {
      EXPECT_GT(staged_total, serial.front().size());
    }
  }
}

// A failure cuts the round where a serial loop stops: the tasks before
// the failing one come back whole, the failing task keeps its parts up
// to the failing part, and everything after is dropped. Serially the
// failpoint's second hit is the second task; on a pool it is whichever
// part hits it second, and the cutoff must still hold.
TEST_F(DeltaRanges, AFailureCutsTheRoundWhereASerialLoopStops) {
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool");
    std::vector<RoundTask> tasks(3);
    for (RoundTask& task : tasks) {
      task.plan = &left();
      task.delta_step = 0;
      task.head = &path_;
    }
    EvalContext ctx;
    ctx.pool = p;
    Failpoints::Instance().Reset();
    ASSERT_TRUE(Failpoints::Instance().ArmFromSpec("exec.round.task:2").ok());
    Status st = RunRoundTasks(ctx, slots_, &tasks);
    Failpoints::Instance().Reset();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_FALSE(tasks.empty());
    if (p == nullptr) {
      EXPECT_EQ(tasks.size(), 2u);
    }
    for (size_t ti = 0; ti + 1 < tasks.size(); ++ti) {
      EXPECT_TRUE(tasks[ti].status.ok()) << ti;
      EXPECT_EQ(tasks[ti].parts.size(), p == nullptr ? 1u : 3u) << ti;
    }
    const RoundTask& failed = tasks.back();
    EXPECT_NE(failed.status.message().find("exec.round.task"),
              std::string::npos)
        << failed.status.ToString();
    for (size_t pi = 0; pi + 1 < failed.parts.size(); ++pi) {
      EXPECT_TRUE(failed.parts[pi].status.ok()) << pi;
    }
    EXPECT_EQ(failed.parts.back().status.ToString(),
              failed.status.ToString());
  }
}

// --------------------------------------------------------------------
// Round-task error hardening, driven by the fault-injection harness.

void SetUpParallelChainEngine(IdlogEngine* engine) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(engine
                    ->AddRow("edge", {"n" + std::to_string(i),
                                      "n" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine
                  ->LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                    "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
                                    "also(X, Y) :- tc(X, Y).\n")
                  .ok());
  engine->SetThreads(4);
}

// A RoundTask whose evaluation fails cancels the round and surfaces
// exactly one Status — the injected one — through Run().
TEST(RoundTaskHardening, FailingTaskSurfacesOneStatus) {
  Failpoints::Instance().Reset();
  ASSERT_TRUE(Failpoints::Instance().ArmFromSpec("exec.round.task:1").ok());
  IdlogEngine engine;
  SetUpParallelChainEngine(&engine);
  Status st = engine.Run();
  Failpoints::Instance().Reset();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("exec.round.task"), std::string::npos)
      << st.ToString();
  // The engine recovers: the next run (no failpoints) is clean and
  // matches a serial evaluation.
  engine.InvalidateRun();
  ASSERT_TRUE(engine.Run().ok());
  IdlogEngine serial;
  SetUpParallelChainEngine(&serial);
  serial.SetThreads(1);
  auto par = engine.Query("tc");
  auto ser = serial.Query("tc");
  ASSERT_TRUE(par.ok() && ser.ok());
  EXPECT_EQ(Dump(**par, engine.symbols()), Dump(**ser, serial.symbols()));
}

// The same via an exception: the :throw action makes the failpoint
// throw from inside the worker; the task wrapper converts it into a
// Status and no exception reaches the pool (run under TSan in CI).
TEST(RoundTaskHardening, ThrowingTaskBecomesStatus) {
  Failpoints::Instance().Reset();
  ASSERT_TRUE(
      Failpoints::Instance().ArmFromSpec("exec.round.task:1:throw").ok());
  IdlogEngine engine;
  SetUpParallelChainEngine(&engine);
  Status st = engine.Run();
  Failpoints::Instance().Reset();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("round task threw"), std::string::npos)
      << st.ToString();
  engine.InvalidateRun();
  EXPECT_TRUE(engine.Run().ok());
}

// Binding (and the index build in it) runs on the driver thread before
// any part; an exception thrown there becomes an Internal status from
// Run() too, serial and pooled alike.
TEST(RoundTaskHardening, ThrowingIndexBuildBecomesStatus) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    Failpoints::Instance().Reset();
    ASSERT_TRUE(
        Failpoints::Instance().ArmFromSpec("eval.index.build:1:throw").ok());
    IdlogEngine engine;
    SetUpParallelChainEngine(&engine);
    engine.SetThreads(jobs);
    Status st = engine.Run();
    Failpoints::Instance().Reset();
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    EXPECT_NE(st.message().find("eval.index.build"), std::string::npos)
        << st.ToString();
    engine.InvalidateRun();
    EXPECT_TRUE(engine.Run().ok());
  }
}

}  // namespace
}  // namespace idlog
