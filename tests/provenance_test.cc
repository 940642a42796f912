#include <gtest/gtest.h>

#include "core/idlog_engine.h"
#include "eval/provenance.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

TEST(ProvenanceStore, PredicateKeysAreInternedIds) {
  // Recording N facts of one predicate must intern the name once; the
  // index key holds a PredId, not a string copy per fact.
  ProvenanceStore store;
  for (int i = 0; i < 500; ++i) {
    store.Record("p", {Value::Number(i)}, 0, {});
  }
  EXPECT_EQ(store.size(), 500u);
  EXPECT_EQ(store.num_interned_predicates(), 1u);
  // And the bytes accounting reflects one name, not five hundred: the
  // retained footprint stays well under what per-key string copies of
  // even a short name would cost.
  EXPECT_LT(store.approx_bytes(), 500 * sizeof(Tuple) * 4);
}

TEST(ProvenanceStore, FirstDerivationWinsAndAbsorbKeepsOrder) {
  ProvenanceStore a;
  a.Record("p", {Value::Number(1)}, /*clause_index=*/0, {});
  a.Record("p", {Value::Number(1)}, /*clause_index=*/7, {});  // dup
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.Lookup("p", {Value::Number(1)})->clause_index, 0);

  // Absorb replays the other store's recording order first-wins, so a
  // serial-order absorb of per-task stores reproduces the serial store.
  ProvenanceStore b;
  b.Record("p", {Value::Number(1)}, /*clause_index=*/9, {});  // loses
  b.Record("p", {Value::Number(2)}, /*clause_index=*/3, {});
  a.Absorb(&b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(a.Lookup("p", {Value::Number(1)})->clause_index, 0);
  EXPECT_EQ(a.Lookup("p", {Value::Number(2)})->clause_index, 3);
  EXPECT_EQ(a.node(1).clause_index, 3);  // arena order = recording order
}

TEST(Provenance, ExplainBaseFactViaRule) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("p(X, Y) :- edge(X, Y).").ok());
  auto text = engine.Why("p", T(&engine.symbols(), {"a", "b"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("p(a, b)"), std::string::npos) << *text;
  EXPECT_NE(text->find("clause #0"), std::string::npos) << *text;
  EXPECT_NE(text->find("edge(a, b)"), std::string::npos) << *text;
  EXPECT_NE(text->find("[database fact]"), std::string::npos) << *text;
}

TEST(Provenance, RecursiveDerivationChains) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"c", "d"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "path(X, Y) :- edge(X, Y)."
                      "path(X, Z) :- path(X, Y), edge(Y, Z).")
                  .ok());
  auto text = engine.Why("path", T(&engine.symbols(), {"a", "d"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // The chain unwinds down to base edges.
  EXPECT_NE(text->find("path(a, d)"), std::string::npos);
  EXPECT_NE(text->find("path(a, c)"), std::string::npos);
  EXPECT_NE(text->find("path(a, b)"), std::string::npos);
  EXPECT_NE(text->find("edge(c, d)"), std::string::npos);
}

TEST(Provenance, TidChoicesAppearAsLeaves) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("rep(N) :- emp[2](N, D, 0).").ok());
  ASSERT_TRUE(engine.Run().ok());
  auto rep = engine.Query("rep");
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ((*rep)->size(), 1u);
  auto text = engine.Why("rep", (*rep)->tuples()[0]);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[tid choice]"), std::string::npos) << *text;
  EXPECT_NE(text->find("emp[2]"), std::string::npos) << *text;
}

TEST(Provenance, NegationAndBuiltinsAnnotated) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.AddRow("v", {"x", "3"}).ok());
  ASSERT_TRUE(
      engine.LoadProgramText(
          "q(X, M) :- v(X, N), M = N + 1, not blocked(X).").ok());
  auto text = engine.Why("q", T(&engine.symbols(), {"x", "4"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[built-in]"), std::string::npos) << *text;
  EXPECT_NE(text->find("+(3, 1, 4)"), std::string::npos) << *text;
  EXPECT_NE(text->find("not blocked(x)"), std::string::npos) << *text;
  EXPECT_NE(text->find("[absent]"), std::string::npos) << *text;
}

TEST(Provenance, DisabledByDefault) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("e", {"a"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("q(X) :- e(X).").ok());
  auto text = engine.Why("q", T(&engine.symbols(), {"a"}));
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
}

TEST(Provenance, MissingFactIsNotFound) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.AddRow("e", {"a"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("q(X) :- e(X).").ok());
  auto text = engine.Why("q", T(&engine.symbols(), {"zzz"}));
  EXPECT_EQ(text.status().code(), StatusCode::kNotFound);
}

TEST(Provenance, DerivedIdBaseExpandsFurther) {
  // The tuple under an ID-literal may itself be derived; the
  // explanation should continue into it.
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.AddRow("person", {"a"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "guess(X, yes) :- person(X)."
                      "guess(X, no) :- person(X)."
                      "picked(X, W) :- guess[1](X, W, 0).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  auto picked = engine.Query("picked");
  ASSERT_TRUE(picked.ok());
  ASSERT_EQ((*picked)->size(), 1u);
  auto text = engine.Why("picked", (*picked)->tuples()[0]);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[tid choice]"), std::string::npos) << *text;
  // The guess fact itself is explained via its clause and person(a).
  EXPECT_NE(text->find("person(a)"), std::string::npos) << *text;
}

TEST(Provenance, EveryDerivedFactIsExplainable) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "a"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "path(X, Y) :- edge(X, Y)."
                      "path(X, Z) :- path(X, Y), edge(Y, Z).")
                  .ok());
  auto path = engine.Query("path");
  ASSERT_TRUE(path.ok());
  for (const Tuple& t : (*path)->tuples()) {
    auto text = engine.Why("path", t);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(text->find("[underivable]"), std::string::npos) << *text;
  }
}

}  // namespace
}  // namespace idlog
