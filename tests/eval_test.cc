#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "core/idlog_engine.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Rows;

TEST(Eval, RepeatedVariablesInOneAtom) {
  IdlogEngine engine;
  engine.AddRow("e", {"a", "a"});
  engine.AddRow("e", {"a", "b"});
  ASSERT_TRUE(engine.LoadProgramText("loop(X) :- e(X, X).").ok());
  auto r = engine.Query("loop");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Rows(**r, engine.symbols()), std::vector<std::string>{"(a)"});
}

TEST(Eval, ConstantsInBodyAtoms) {
  IdlogEngine engine;
  engine.AddRow("e", {"a", "x"});
  engine.AddRow("e", {"b", "y"});
  ASSERT_TRUE(engine.LoadProgramText("hit(N) :- e(N, x).").ok());
  auto r = engine.Query("hit");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Rows(**r, engine.symbols()), std::vector<std::string>{"(a)"});
}

TEST(Eval, ConstantsInHead) {
  IdlogEngine engine;
  engine.AddRow("p", {"a"});
  ASSERT_TRUE(engine.LoadProgramText("tag(X, yes) :- p(X).").ok());
  auto r = engine.Query("tag");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Rows(**r, engine.symbols()),
            std::vector<std::string>{"(a, yes)"});
}

TEST(Eval, FactsInProgramText) {
  IdlogEngine engine;
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "edge(a, b). edge(b, c)."
                      "path(X, Y) :- edge(X, Y)."
                      "path(X, Z) :- path(X, Y), edge(Y, Z).")
                  .ok());
  auto r = engine.Query("path");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->size(), 3u);
}

TEST(Eval, EmptyEdbRelationYieldsEmptyIdb) {
  IdlogEngine engine;
  // `missing` is never stored: scans over it produce nothing.
  ASSERT_TRUE(engine.LoadProgramText("q(X) :- missing(X).").ok());
  auto r = engine.Query("q");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->empty());
}

TEST(Eval, NegationOverMissingRelationSucceeds) {
  IdlogEngine engine;
  engine.AddRow("p", {"a"});
  ASSERT_TRUE(
      engine.LoadProgramText("q(X) :- p(X), not missing(X).").ok());
  auto r = engine.Query("q");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->size(), 1u);
}

TEST(Eval, MultiStratumPipeline) {
  IdlogEngine engine;
  engine.AddRow("node", {"a"});
  engine.AddRow("node", {"b"});
  engine.AddRow("node", {"c"});
  engine.AddRow("edge", {"a", "b"});
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "reach(X) :- edge(a, X)."
                      "reach(X) :- reach(Y), edge(Y, X)."
                      "isolated(X) :- node(X), not reach(X), X != a.")
                  .ok());
  auto r = engine.Query("isolated");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Rows(**r, engine.symbols()), std::vector<std::string>{"(c)"});
}

TEST(Eval, ArithmeticRecursionWithBound) {
  // Counting 0..5 through succ with an upper bound.
  IdlogEngine engine;
  engine.AddRow("limit", {"5"});
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "num(0) :- limit(B)."
                      "num(M) :- num(N), limit(B), N < B, succ(N, M).")
                  .ok());
  auto r = engine.Query("num");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->size(), 6u);
}

TEST(Eval, UdomIsImplicit) {
  // The database program's implicit udom(d) facts (Section 3.1).
  IdlogEngine engine;
  engine.AddRow("r", {"a", "b"});
  engine.AddRow("s", {"c"});
  ASSERT_TRUE(engine.LoadProgramText("all(X) :- udom(X).").ok());
  auto r = engine.Query("all");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Rows(**r, engine.symbols()),
            (std::vector<std::string>{"(a)", "(b)", "(c)"}));
}

TEST(Eval, ExplicitUdomWins) {
  IdlogEngine engine;
  engine.AddRow("udom", {"only"});
  engine.AddRow("r", {"a"});
  ASSERT_TRUE(engine.LoadProgramText("all(X) :- udom(X).").ok());
  auto r = engine.Query("all");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Rows(**r, engine.symbols()),
            std::vector<std::string>{"(only)"});
}

TEST(Eval, StatsCountWork) {
  IdlogEngine engine;
  engine.AddRow("edge", {"a", "b"});
  engine.AddRow("edge", {"b", "c"});
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- edge(X, Y).").ok());
  ASSERT_TRUE(engine.Run().ok());
  const EvalStats& stats = engine.stats();
  EXPECT_GT(stats.tuples_considered, 0u);
  EXPECT_EQ(stats.facts_inserted, 2u);
  EXPECT_GT(stats.rule_firings, 0u);
}

// A predicate that stops growing has no delta in later rounds, while
// another predicate of its stratum keeps the loop running: the two
// chains below converge at different rounds, and the stratum still
// reaches the exact transitive closures.
TEST(Eval, MixedConvergenceRoundsReachSameFixpoint) {
  IdlogEngine engine;
  engine.AddRow("e", {"a", "b"});  // short chain: done after round 1
  engine.AddRow("f", {"p", "q"});
  engine.AddRow("f", {"q", "r"});
  engine.AddRow("f", {"r", "s"});
  engine.AddRow("f", {"s", "t"});  // long chain keeps iterating
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "tc1(X, Y) :- e(X, Y)."
                      "tc1(X, Z) :- tc1(X, Y), e(Y, Z)."
                      "tc2(X, Y) :- f(X, Y)."
                      "tc2(X, Z) :- tc2(X, Y), f(Y, Z).")
                  .ok());
  auto r1 = engine.Query("tc1");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->size(), 1u);
  auto r2 = engine.Query("tc2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->size(), 10u);  // 4+3+2+1 paths
}

// Row order is observable: identity tids, snapshot bytes and --why all
// follow it. Right-linear TC and odd/even mutual recursion differentiate
// on a keyed step (the recursive scan's first column is bound), so
// every round after the first probes an index over the delta rows. The
// goldens pin each derived relation's exact insertion order, which a
// consistent reordering of those probes would change while every
// run-against-run comparison still passed.
std::string RowsInOrder(const Relation& rel, const SymbolTable& symbols) {
  std::string out;
  for (const Tuple& t : rel.tuples()) {
    if (!out.empty()) out += " ";
    for (const Value& v : t) out += v.ToString(symbols);
  }
  return out;
}

void AddCyclicGraph(IdlogEngine* engine) {
  for (const char* e : {"ab", "bc", "ca", "cd", "de", "ef", "fd", "fg",
                        "gh", "he"}) {
    engine->AddRow("edge", {std::string(1, e[0]), std::string(1, e[1])});
  }
}

TEST(Eval, KeyedDeltaStepsKeepDerivedRowOrder) {
  IdlogEngine tc;
  AddCyclicGraph(&tc);
  ASSERT_TRUE(tc.LoadProgramText("path(X, Y) :- edge(X, Y).\n"
                                 "path(X, Y) :- edge(X, Z), path(Z, Y).\n")
                  .ok());
  auto path = tc.Query("path");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(RowsInOrder(**path, tc.symbols()),
            "ab bc ca cd de ef fd fg gh he ac ba bd cb ce df ed eg fe fh ge "
            "hf aa ad bb be cc cf dd dg ee eh ff gf hd hg ae bf cg dh gd gg "
            "hh af bg ch ag bh ah");

  IdlogEngine odd_even;
  AddCyclicGraph(&odd_even);
  ASSERT_TRUE(odd_even
                  .LoadProgramText("odd(X, Y) :- edge(X, Y).\n"
                                   "odd(X, Y) :- edge(X, Z), even(Z, Y).\n"
                                   "even(X, Y) :- edge(X, Z), odd(Z, Y).\n")
                  .ok());
  auto odd = odd_even.Query("odd");
  auto even = odd_even.Query("even");
  ASSERT_TRUE(odd.ok() && even.ok());
  EXPECT_EQ(RowsInOrder(**odd, odd_even.symbols()),
            "ab bc ca cd de ef fd fg gh he aa ad bb be cc cf dd dg ee eh ff "
            "fe gf hd hg ac af ba bd bg cb ce ch df ed eg fh ge hf ae ah bf "
            "cg dh gd gg hh ag bh");
  EXPECT_EQ(RowsInOrder(**even, odd_even.symbols()),
            "ac ba bd cb ce df ed eg fe fh ge hf ab ae bc bf ca cd cg de dh "
            "ef ee fd fg ff gd gg he hh aa ad ag bb be bh cc cf dd dg eh gf "
            "hd hg af bg ch gh ah");
}

TEST(Eval, RunIsIdempotentUntilInvalidated) {
  IdlogEngine engine;
  engine.AddRow("p", {"a"});
  ASSERT_TRUE(engine.LoadProgramText("q(X) :- p(X).").ok());
  ASSERT_TRUE(engine.Run().ok());
  uint64_t firings = engine.stats().rule_firings;
  ASSERT_TRUE(engine.Run().ok());  // no-op
  EXPECT_EQ(engine.stats().rule_firings, firings);
  engine.InvalidateRun();
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().rule_firings, firings);  // fresh, same count
}

TEST(Eval, QueryUnknownPredicateIsNotFound) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText("q(a).").ok());
  EXPECT_EQ(engine.Query("ghost").status().code(), StatusCode::kNotFound);
}

TEST(Eval, NoProgramLoaded) {
  IdlogEngine engine;
  EXPECT_EQ(engine.Run().code(), StatusCode::kInvalidArgument);
}

TEST(Eval, UnstratifiedProgramRejectedAtLoad) {
  IdlogEngine engine;
  Status st =
      engine.LoadProgramText("win(X) :- move(X, Y), not win(Y).");
  EXPECT_EQ(st.code(), StatusCode::kNotStratified);
}

TEST(Eval, IdRelationInspection) {
  IdlogEngine engine;
  engine.AddRow("emp", {"a", "d1"});
  engine.AddRow("emp", {"b", "d1"});
  ASSERT_TRUE(engine.LoadProgramText("one(N) :- emp[2](N, D, 0).").ok());
  ASSERT_TRUE(engine.Run().ok());
  auto id_rel = engine.QueryIdRelation("emp", {1});
  ASSERT_TRUE(id_rel.ok()) << id_rel.status().ToString();
  // Only tid 0 is ever used, so the footnote 6/7 pushdown materializes
  // one tuple per group (here one group of two).
  EXPECT_EQ((*id_rel)->size(), 1u);
  EXPECT_EQ((*id_rel)->arity(), 3);
  engine.SetTidBoundPushdown(false);
  ASSERT_TRUE(engine.Run().ok());
  id_rel = engine.QueryIdRelation("emp", {1});
  ASSERT_TRUE(id_rel.ok());
  EXPECT_EQ((*id_rel)->size(), 2u);
  auto missing = engine.QueryIdRelation("emp", {0});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(Eval, IndexAblationSameAnswers) {
  auto run = [](bool use_indexes) {
    IdlogEngine engine;
    engine.SetUseIndexes(use_indexes);
    engine.AddRow("edge", {"a", "b"});
    engine.AddRow("edge", {"b", "c"});
    engine.AddRow("edge", {"c", "a"});
    engine.AddRow("edge", {"c", "d"});
    EXPECT_TRUE(engine
                    .LoadProgramText(
                        "path(X, Y) :- edge(X, Y)."
                        "path(X, Z) :- path(X, Y), edge(Y, Z)."
                        "sink(X) :- edge(Y, X), not edge(X, a), "
                        "not path(X, X).")
                    .ok());
    auto p = engine.Query("path");
    auto s = engine.Query("sink");
    EXPECT_TRUE(p.ok());
    EXPECT_TRUE(s.ok());
    return testing_util::Dump(**p, engine.symbols()) + "|" +
           testing_util::Dump(**s, engine.symbols());
  };
  EXPECT_EQ(run(true), run(false));
}

// Property: naive and semi-naive evaluation compute identical models on
// random recursive programs (transitive closure over random graphs).
class NaiveVsSeminaive : public ::testing::TestWithParam<int> {};

TEST_P(NaiveVsSeminaive, SameModel) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> node_dist(0, 9);

  auto build = [&](bool seminaive, uint64_t graph_seed) {
    IdlogEngine engine;
    std::mt19937_64 g(graph_seed);
    for (int i = 0; i < 20; ++i) {
      engine.AddRow("edge", {"n" + std::to_string(node_dist(g)),
                             "n" + std::to_string(node_dist(g))});
    }
    EXPECT_TRUE(engine
                    .LoadProgramText(
                        "path(X, Y) :- edge(X, Y)."
                        "path(X, Z) :- path(X, Y), edge(Y, Z)."
                        "dead(X) :- edge(X, Y), not path(Y, Y).")
                    .ok());
    engine.SetSeminaive(seminaive);
    auto r = engine.Query("path");
    EXPECT_TRUE(r.ok());
    auto d = engine.Query("dead");
    EXPECT_TRUE(d.ok());
    return std::make_pair(testing_util::Dump(**r, engine.symbols()),
                          testing_util::Dump(**d, engine.symbols()));
  };

  uint64_t graph_seed = rng();
  auto semi = build(true, graph_seed);
  auto naive = build(false, graph_seed);
  EXPECT_EQ(semi.first, naive.first);
  EXPECT_EQ(semi.second, naive.second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveVsSeminaive, ::testing::Range(0, 15));

}  // namespace
}  // namespace idlog
