#include <gtest/gtest.h>

#include "core/answer_enumerator.h"
#include "ground/grounder.h"
#include "models/disjunctive.h"
#include "models/stable.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

DisjunctiveClause MakeManWomanDisjunction() {
  // Example 2's source clause: man(X) v woman(X) :- person(X).
  DisjunctiveClause c;
  c.head.push_back(Atom::Ordinary("man", {Term::Var("X")}));
  c.head.push_back(Atom::Ordinary("woman", {Term::Var("X")}));
  c.body.push_back(
      Literal::Pos(Atom::Ordinary("person", {Term::Var("X")})));
  return c;
}

TEST(Grounder, GroundsOverActiveDomain) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("person", {"a"}).ok());
  ASSERT_TRUE(db.AddRow("person", {"b"}).ok());
  DisjunctiveProgram p;
  p.clauses.push_back(MakeManWomanDisjunction());
  auto ground = GroundDisjunctive(p, db);
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  // 2 EDB fact clauses + 2 instantiations of the rule.
  EXPECT_EQ(ground->clauses.size(), 4u);
  // Base: person(a), person(b), man/woman of both.
  EXPECT_EQ(ground->base.size(), 6u);
}

TEST(Grounder, BuiltinsEvaluatedAway) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("v", {"1"}).ok());
  ASSERT_TRUE(db.AddRow("v", {"5"}).ok());
  auto parsed = ParseProgram("small(X) :- v(X), X < 3.", &s);
  ASSERT_TRUE(parsed.ok());
  auto dis = DisjunctiveFromProgram(*parsed);
  ASSERT_TRUE(dis.ok());
  auto ground = GroundDisjunctive(*dis, db);
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  int rule_instances = 0;
  for (const GroundClause& c : ground->clauses) {
    if (!c.positive.empty()) ++rule_instances;
  }
  // Only X=1 survives the X<3 check.
  EXPECT_EQ(rule_instances, 1);
}

TEST(Grounder, BudgetEnforced) {
  SymbolTable s;
  Database db(&s);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.AddRow("n", {"x" + std::to_string(i)}).ok());
  }
  auto parsed = ParseProgram("t(X, Y, Z) :- n(X), n(Y), n(Z).", &s);
  ASSERT_TRUE(parsed.ok());
  auto dis = DisjunctiveFromProgram(*parsed);
  ASSERT_TRUE(dis.ok());
  ResourceGovernor governor;
  governor.Arm(EvalLimits::TupleBudget(10));
  EXPECT_EQ(GroundDisjunctive(*dis, db, &governor).status().code(),
            StatusCode::kResourceExhausted);
}

// DATALOG^∨ (Section 3.2): minimal models of the man/woman disjunction
// assign each person exactly one sex; the projections to `man` are all
// 2^n subsets — the same possible-answer set the Example 2 IDLOG
// program defines.
TEST(Disjunctive, ManWomanMinimalModels) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("person", {"a"}).ok());
  ASSERT_TRUE(db.AddRow("person", {"b"}).ok());
  DisjunctiveProgram p;
  p.clauses.push_back(MakeManWomanDisjunction());
  auto ground = GroundDisjunctive(p, db);
  ASSERT_TRUE(ground.ok());
  auto models = MinimalModels(*ground);
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  EXPECT_EQ(models->size(), 4u);
  for (const AtomSet& m : *models) {
    // Each model holds exactly 2 persons + 2 sex atoms.
    EXPECT_EQ(m.size(), 4u);
  }

  std::set<std::vector<Tuple>> man_answers =
      ProjectAnswers(*models, "man");
  auto idlog_prog = ParseProgram(
      "sex_guess(X, male) :- person(X)."
      "sex_guess(X, female) :- person(X)."
      "man(X) :- sex_guess[1](X, male, 1).",
      &s);
  ASSERT_TRUE(idlog_prog.ok());
  auto idlog_answers = EnumerateAnswers(*idlog_prog, db, "man");
  ASSERT_TRUE(idlog_answers.ok());
  EXPECT_EQ(man_answers, idlog_answers->answers);
}

TEST(Disjunctive, NonMinimalModelsFiltered) {
  // p(a) v q(a).   r(a) :- p(a).   r(a) :- q(a).
  // Minimal models: {p,r} and {q,r} — never {p,q,r}.
  SymbolTable s;
  Database db(&s);
  db.AddDomainConstant(s.Intern("a"));
  DisjunctiveProgram p;
  DisjunctiveClause c1;
  c1.head.push_back(Atom::Ordinary("p", {Term::Symbol(s.Intern("a"))}));
  c1.head.push_back(Atom::Ordinary("q", {Term::Symbol(s.Intern("a"))}));
  p.clauses.push_back(c1);
  for (const char* src : {"p", "q"}) {
    DisjunctiveClause c;
    c.head.push_back(Atom::Ordinary("r", {Term::Symbol(s.Intern("a"))}));
    c.body.push_back(
        Literal::Pos(Atom::Ordinary(src, {Term::Symbol(s.Intern("a"))})));
    p.clauses.push_back(c);
  }
  auto ground = GroundDisjunctive(p, db);
  ASSERT_TRUE(ground.ok());
  auto models = MinimalModels(*ground);
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->size(), 2u);
  for (const AtomSet& m : *models) {
    EXPECT_EQ(m.size(), 2u);  // one of p/q plus r
  }
}

TEST(Disjunctive, NegationRejected) {
  GroundProgram ground;
  GroundClause c;
  c.head.push_back(GroundAtom{"p", {}});
  c.negative.push_back(GroundAtom{"q", {}});
  ground.clauses.push_back(c);
  EXPECT_EQ(MinimalModels(ground).status().code(),
            StatusCode::kUnsupported);
}

TEST(Stable, LeastModelOfPositiveProgram) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddRow("edge", {"b", "c"}).ok());
  auto parsed = ParseProgram(
      "path(X, Y) :- edge(X, Y)."
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      &s);
  ASSERT_TRUE(parsed.ok());
  auto dis = DisjunctiveFromProgram(*parsed);
  ASSERT_TRUE(dis.ok());
  auto ground = GroundDisjunctive(*dis, db);
  ASSERT_TRUE(ground.ok());
  AtomSet least = LeastModel(*ground);
  int paths = 0;
  for (const GroundAtom& a : least) {
    if (a.predicate == "path") ++paths;
  }
  EXPECT_EQ(paths, 3);
  // A positive program has exactly one stable model: its least model.
  auto stable = StableModels(*ground);
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  ASSERT_EQ(stable->size(), 1u);
  EXPECT_EQ((*stable)[0], least);
}

// The [SZ90] point: the non-stratified guessing program
//   man(X) :- person(X), not woman(X).
//   woman(X) :- person(X), not man(X).
// has 2^n stable models; its `man` answers equal the stratified IDLOG
// guess program's possible answers — the Section 3.2 claim that
// stable-model queries are definable in stratified IDLOG.
TEST(Stable, NonStratifiedGuessMatchesIdlog) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("person", {"a"}).ok());
  ASSERT_TRUE(db.AddRow("person", {"b"}).ok());
  auto parsed = ParseProgram(
      "man(X) :- person(X), not woman(X)."
      "woman(X) :- person(X), not man(X).",
      &s);
  ASSERT_TRUE(parsed.ok());
  auto dis = DisjunctiveFromProgram(*parsed);
  ASSERT_TRUE(dis.ok());
  auto ground = GroundDisjunctive(*dis, db);
  ASSERT_TRUE(ground.ok());
  auto stable = StableModels(*ground);
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  EXPECT_EQ(stable->size(), 4u);

  std::set<std::vector<Tuple>> man_answers =
      ProjectAnswers(*stable, "man");
  auto idlog_prog = ParseProgram(
      "sex_guess(X, male) :- person(X)."
      "sex_guess(X, female) :- person(X)."
      "man(X) :- sex_guess[1](X, male, 1).",
      &s);
  ASSERT_TRUE(idlog_prog.ok());
  auto idlog_answers = EnumerateAnswers(*idlog_prog, db, "man");
  ASSERT_TRUE(idlog_answers.ok());
  EXPECT_EQ(man_answers, idlog_answers->answers);
}

TEST(Stable, ProgramWithNoStableModel) {
  // p :- not p.  has no stable model.
  GroundProgram ground;
  GroundClause c;
  c.head.push_back(GroundAtom{"p", {}});
  c.negative.push_back(GroundAtom{"p", {}});
  ground.clauses.push_back(c);
  ground.base.insert(GroundAtom{"p", {}});
  auto stable = StableModels(ground);
  ASSERT_TRUE(stable.ok());
  EXPECT_TRUE(stable->empty());
}

TEST(Stable, EvenLoopHasTwoModels) {
  // p :- not q.  q :- not p.  -> {p} and {q}.
  GroundProgram ground;
  GroundClause c1;
  c1.head.push_back(GroundAtom{"p", {}});
  c1.negative.push_back(GroundAtom{"q", {}});
  GroundClause c2;
  c2.head.push_back(GroundAtom{"q", {}});
  c2.negative.push_back(GroundAtom{"p", {}});
  ground.clauses = {c1, c2};
  auto stable = StableModels(ground);
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ(stable->size(), 2u);
}

TEST(Disjunctive, SurfaceSyntaxParses) {
  SymbolTable s;
  auto parsed = ParseDisjunctiveProgram(
      "man(X) | woman(X) :- person(X)."
      "adult(X) :- person(X).",
      &s);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->clauses.size(), 2u);
  EXPECT_EQ(parsed->clauses[0].head.size(), 2u);
  EXPECT_EQ(parsed->clauses[1].head.size(), 1u);

  Database db(&s);
  ASSERT_TRUE(db.AddRow("person", {"a"}).ok());
  auto ground = GroundDisjunctive(*parsed, db);
  ASSERT_TRUE(ground.ok());
  auto models = MinimalModels(*ground);
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->size(), 2u);  // man(a)+adult(a) or woman(a)+adult(a)
}

TEST(Disjunctive, PipeRejectedInPlainPrograms) {
  SymbolTable s;
  auto parsed =
      ParseProgram("man(X) | woman(X) :- person(X).", &s);
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(Disjunctive, IdAtomsRejectedInDisjunctivePrograms) {
  SymbolTable s;
  auto parsed = ParseDisjunctiveProgram(
      "a(X) | b(X) :- r[1](X, 0).", &s);
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(Stable, CandidateBudget) {
  GroundProgram ground;
  for (int i = 0; i < 25; ++i) {
    GroundClause c;
    c.head.push_back(GroundAtom{"p" + std::to_string(i), {}});
    c.negative.push_back(GroundAtom{"q", {}});
    ground.clauses.push_back(c);
  }
  EXPECT_EQ(StableModels(ground, /*max_candidate_atoms=*/20)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace idlog
