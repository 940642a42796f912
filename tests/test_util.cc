#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>

#include "eval/rule_plan.h"

namespace idlog {
namespace testing_util {

Tuple T(SymbolTable* symbols, const std::vector<std::string>& fields) {
  Tuple t;
  for (const std::string& f : fields) {
    bool numeric = !f.empty();
    for (char c : f) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        numeric = false;
        break;
      }
    }
    if (numeric) {
      t.push_back(Value::Number(std::stoll(f)));
    } else {
      t.push_back(Value::Symbol(symbols->Intern(f)));
    }
  }
  return t;
}

std::vector<std::string> Rows(const Relation& rel,
                              const SymbolTable& symbols) {
  std::vector<std::string> rows;
  for (const Tuple& t : rel.SortedTuples()) {
    rows.push_back(TupleToString(t, symbols));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Dump(const Relation& rel, const SymbolTable& symbols) {
  std::string out;
  for (const std::string& row : Rows(rel, symbols)) {
    out += row;
    out += "\n";
  }
  return out;
}

std::string CorpusGenerator::Generate() {
  std::string text;
  std::vector<std::pair<std::string, int>> lower = {{"e0", 2}, {"e1", 1}};
  int layers = 2 + static_cast<int>(rng_() % 3);
  for (int layer = 0; layer < layers; ++layer) {
    std::string p = "p" + std::to_string(layer);
    std::string q = "q" + std::to_string(layer);
    int arity = 2;
    // Negation (and ID-literals, whose base must be complete before
    // the stratum) may only reach strictly lower layers — predicates
    // added for *this* layer share p's stratum.
    const std::vector<std::pair<std::string, int>> strictly_lower = lower;
    // Base rules (1-2) from lower layers.
    int bases = 1 + static_cast<int>(rng_() % 2);
    for (int b = 0; b < bases; ++b) {
      text += BaseRule(p, arity, lower);
    }
    switch (rng_() % 3) {
      case 0:  // direct recursion
        text += p + "(X, Z) :- " + p + "(X, Y), e0(Y, Z).\n";
        break;
      case 1:  // mutual recursion: p and q share a stratum
        text += q + "(X, Y) :- " + p + "(X, Y).\n";
        text += p + "(X, Z) :- " + q + "(X, Y), e0(Y, Z).\n";
        lower.push_back({q, arity});
        break;
      default:  // non-recursive layer
        break;
    }
    // Optional negation of a lower-layer predicate.
    if (layer > 0 && rng_() % 2 == 0) {
      auto [neg, neg_arity] =
          strictly_lower[rng_() % strictly_lower.size()];
      if (neg_arity == 2) {
        text += p + "(X, X) :- e1(X), not " + neg + "(X, X).\n";
      } else {
        text += p + "(X, X) :- e1(X), not " + neg + "(X).\n";
      }
    }
    // Optional ID-literal over a lower-layer predicate.
    if (rng_() % 3 == 0) {
      auto [base, base_arity] =
          strictly_lower[rng_() % strictly_lower.size()];
      if (base_arity == 2) {
        text += p + "(A, B) :- " + base + "[1](A, B, 0).\n";
      }
    }
    lower.push_back({p, arity});
    queries_.push_back(p);
  }
  return text;
}

std::string CorpusGenerator::BaseRule(
    const std::string& head, int arity,
    const std::vector<std::pair<std::string, int>>& lower) {
  auto [b, b_arity] = lower[rng_() % lower.size()];
  if (b_arity == 2) {
    return head + "(X, Y) :- " + b + "(X, Y).\n";
  }
  (void)arity;
  return head + "(X, X) :- " + b + "(X).\n";
}

std::vector<std::vector<std::string>> CorpusEdb(uint64_t seed) {
  std::vector<std::vector<std::string>> edb;
  std::mt19937_64 rng(seed * 31 + 7);
  for (int i = 0; i < 14; ++i) {
    edb.push_back({"e0", "c" + std::to_string(rng() % 6),
                   "c" + std::to_string(rng() % 6)});
  }
  for (int i = 0; i < 5; ++i) {
    edb.push_back({"e1", "c" + std::to_string(rng() % 6)});
  }
  return edb;
}

void ExpectCountersReconcile(const IdlogEngine& engine) {
  const PlanAnalysis& analysis = engine.plan_analysis();
  const EvalProfile& profile = engine.profile();
  const EvalStats& stats = engine.stats();
  const std::vector<Clause>& clauses = engine.program().clauses;
  ASSERT_EQ(analysis.rules.size(), clauses.size());
  ASSERT_EQ(profile.rules.size(), clauses.size());
  ASSERT_FALSE(analysis.rules.empty());

  uint64_t probes = 0, firings = 0, considered = 0, derived = 0,
           inserted = 0;
  for (size_t i = 0; i < clauses.size(); ++i) {
    Result<RulePlan> plan = CompileRule(clauses[i]);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::vector<StepCounters>& steps = analysis.rules[i].steps;
    const RuleProfile& rp = profile.rules[i];
    ASSERT_EQ(steps.size(), plan->steps.size() + 1) << "rule " << i;
    // The emit pseudo-step bridges to the profile columns exactly.
    EXPECT_EQ(steps.back().rows_emitted, rp.facts_inserted) << "rule " << i;
    EXPECT_EQ(steps.back().rows_in, rp.facts_derived) << "rule " << i;
    // Step 0 is entered once per firing (a non-empty-delta evaluation).
    EXPECT_EQ(steps.front().rows_in, rp.firings) << "rule " << i;
    for (size_t k = 0; k < steps.size(); ++k) {
      const StepCounters& sc = steps[k];
      // Counters are monotone through the pipeline: a step can only
      // pass on bindings it actually enumerated.
      EXPECT_LE(sc.rows_emitted, sc.rows_scanned + sc.rows_in);
      probes += sc.index_probes;
      // Built-ins enumerate solutions, not stored tuples.
      if (k < plan->steps.size() &&
          plan->steps[k].kind != PlanStep::Kind::kBuiltin) {
        considered += sc.rows_scanned;
      }
    }
    firings += steps.front().rows_in;
    derived += steps.back().rows_in;
    inserted += steps.back().rows_emitted;
  }
  EXPECT_EQ(probes, stats.index_probes);
  EXPECT_EQ(firings, stats.rule_firings);
  EXPECT_EQ(considered, stats.tuples_considered);
  EXPECT_EQ(derived, stats.facts_derived);
  EXPECT_EQ(inserted, stats.facts_inserted);

  // Every stratum reports its per-round delta sizes, and the logs hold
  // every round the engine counted and every fact it committed.
  ASSERT_FALSE(analysis.strata.empty());
  uint64_t rounds = 0, logged = 0;
  for (const StratumRoundStats& s : analysis.strata) {
    rounds += s.new_facts_per_round.size();
    for (uint64_t n : s.new_facts_per_round) logged += n;
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(rounds, stats.iterations);
  EXPECT_EQ(logged, stats.facts_inserted);
}

std::vector<Edge> RandomGraph(int64_t nodes, size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<Edge> seen;
  std::vector<Edge> edges;
  while (edges.size() < count) {
    const Edge e(static_cast<int64_t>(rng() % static_cast<uint64_t>(nodes)),
                 static_cast<int64_t>(rng() % static_cast<uint64_t>(nodes)));
    if (e.first != e.second && seen.insert(e).second) edges.push_back(e);
  }
  return edges;
}

std::vector<Tuple> BfsClosure(int64_t nodes, const std::vector<Edge>& edges) {
  std::vector<std::vector<int64_t>> out(static_cast<size_t>(nodes));
  for (const Edge& e : edges) {
    out[static_cast<size_t>(e.first)].push_back(e.second);
  }
  std::vector<Tuple> closure;
  for (int64_t x = 0; x < nodes; ++x) {
    std::vector<bool> reached(static_cast<size_t>(nodes), false);
    std::vector<int64_t> queue = out[static_cast<size_t>(x)];
    for (size_t head = 0; head < queue.size(); ++head) {
      const int64_t y = queue[head];
      if (reached[static_cast<size_t>(y)]) continue;
      reached[static_cast<size_t>(y)] = true;
      closure.push_back({Value::Number(x), Value::Number(y)});
      for (int64_t z : out[static_cast<size_t>(y)]) {
        if (!reached[static_cast<size_t>(z)]) queue.push_back(z);
      }
    }
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

}  // namespace testing_util
}  // namespace idlog
