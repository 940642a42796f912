// Tests for the observability subsystem: metrics registry arithmetic,
// scoped-timer nesting, trace JSON well-formedness (parsed back by the
// strict checker), counter determinism across identical runs, per-rule
// attribution summing to engine totals, and governor trips appearing as
// trace events.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/limits.h"
#include "core/idlog_engine.h"
#include "eval/rule_plan.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/tid_assigner.h"
#include "test_util.h"

namespace idlog {
namespace {

constexpr char kGraphProgram[] =
    "reachable(X) :- hop(X).\n"
    "hop(X) :- edge[1](X, Y, 0).\n"
    "hop(X) :- edge(X, Z), hop(Z).\n";

void LoadGraph(IdlogEngine* engine) {
  ASSERT_TRUE(engine->AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine->AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine->AddRow("edge", {"c", "d"}).ok());
  ASSERT_TRUE(engine->AddRow("edge", {"d", "b"}).ok());
  ASSERT_TRUE(engine->LoadProgramText(kGraphProgram).ok());
}

TEST(MetricsRegistry, CounterAndGaugeArithmetic) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.counter("missing"), 0u);
  metrics.AddCounter("evals");
  metrics.AddCounter("evals", 4);
  EXPECT_EQ(metrics.counter("evals"), 5u);
  metrics.SetGauge("strata", 3);
  metrics.SetGauge("strata", -2);  // Last write wins.
  EXPECT_EQ(metrics.gauge("strata"), -2);
  metrics.ObserveDuration("eval", 100);
  metrics.ObserveDuration("eval", 300);
  const DurationStats& t = metrics.timer("eval");
  EXPECT_EQ(t.count, 2u);
  EXPECT_EQ(t.total_ns, 400u);
  EXPECT_EQ(t.min_ns, 100u);
  EXPECT_EQ(t.max_ns, 300u);
  metrics.Clear();
  EXPECT_EQ(metrics.counter("evals"), 0u);
  EXPECT_TRUE(metrics.counters().empty());
}

TEST(MetricsRegistry, ToJsonIsValidAndDeterministicallyOrdered) {
  MetricsRegistry metrics;
  metrics.AddCounter("zebra", 1);
  metrics.AddCounter("alpha", 2);
  metrics.SetGauge("g", 7);
  metrics.ObserveDuration("t", 42);
  std::string json = metrics.ToJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  // std::map ordering: "alpha" precedes "zebra" in the serialization.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zebra\""));
  EXPECT_NE(json.find("\"schema\":\"idlog-metrics-v1\""),
            std::string::npos);
}

TEST(ScopedTimer, NestedScopesObserveSeparately) {
  MetricsRegistry metrics;
  {
    ScopedTimer outer(&metrics, "outer");
    {
      ScopedTimer inner(&metrics, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      ScopedTimer inner(&metrics, "inner");
    }
  }
  EXPECT_EQ(metrics.timer("outer").count, 1u);
  EXPECT_EQ(metrics.timer("inner").count, 2u);
  // The outer scope brackets both inner scopes on the same monotonic
  // clock, so its total can never be smaller.
  EXPECT_GE(metrics.timer("outer").total_ns,
            metrics.timer("inner").total_ns);
  EXPECT_GE(metrics.timer("inner").max_ns, metrics.timer("inner").min_ns);
}

TEST(ScopedTimer, NullRegistryIsANoOp) {
  ScopedTimer timer(nullptr, "ignored");  // Must not crash.
}

TEST(TraceSink, SpansAndInstantsSerializeToValidJson) {
  TraceSink sink;
  {
    TraceSpan span(&sink, "outer", "test");
    span.AddArg(TraceArg::Str("label", "quote\" and \\slash\n"));
    span.AddArg(TraceArg::Num("n", 7));
    sink.Instant("ping", "test", {TraceArg::Int("stratum", -1)});
  }
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].phase, 'i');
  EXPECT_EQ(sink.events()[1].phase, 'X');
  std::string json = sink.ToJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  // The bare-array form chrome://tracing loads directly.
  EXPECT_EQ(json.front(), '[');
}

TEST(TraceSink, AddArgOverwritesByKey) {
  TraceSink sink;
  {
    TraceSpan span(&sink, "loop", "test");
    for (uint64_t i = 0; i < 100; ++i) {
      span.AddArg(TraceArg::Num("steps", i));
    }
  }
  ASSERT_EQ(sink.events().size(), 1u);
  ASSERT_EQ(sink.events()[0].args.size(), 1u);
  EXPECT_EQ(sink.events()[0].args[0].value, "99");
}

TEST(TraceSpan, NullSinkIsANoOp) {
  TraceSpan span(nullptr, "ignored", "test");
  span.AddArg(TraceArg::Num("n", 1));
}

TEST(EngineObservability, TraceCoversAnalysisStrataRoundsAndRules) {
  IdlogEngine engine;
  LoadGraph(&engine);
  TraceSink sink;
  engine.SetTraceSink(&sink);
  // Re-load so Prepare() runs with the sink attached.
  ASSERT_TRUE(engine.LoadProgramText(kGraphProgram).ok());
  ASSERT_TRUE(engine.Run().ok());

  bool analysis = false, stratum = false, round = false, rule = false,
       id_rel = false;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.name == "program analysis") analysis = true;
    if (ev.category == "stratum") stratum = true;
    if (ev.name == "fixpoint round") round = true;
    if (ev.category == "rule") rule = true;
    if (ev.category == "id") id_rel = true;
  }
  EXPECT_TRUE(analysis);
  EXPECT_TRUE(stratum);
  EXPECT_TRUE(round);
  EXPECT_TRUE(rule);
  EXPECT_TRUE(id_rel);
  EXPECT_TRUE(ValidateJson(sink.ToJson()).ok());
}

TEST(EngineObservability, ProfileColumnsSumToEngineTotals) {
  IdlogEngine engine;
  LoadGraph(&engine);
  ASSERT_TRUE(engine.Run().ok());

  const EvalProfile& profile = engine.profile();
  ASSERT_EQ(profile.rules.size(), 3u);
  uint64_t considered = 0, derived = 0, inserted = 0, firings = 0;
  for (const RuleProfile& rp : profile.rules) {
    considered += rp.tuples_considered;
    derived += rp.facts_derived;
    inserted += rp.facts_inserted;
    firings += rp.firings;
  }
  const EvalStats& stats = engine.stats();
  EXPECT_EQ(considered, stats.tuples_considered);
  EXPECT_EQ(derived, stats.facts_derived);
  EXPECT_EQ(inserted, stats.facts_inserted);
  EXPECT_EQ(firings, stats.rule_firings);
  EXPECT_GT(stats.strata_evaluated, 0u);
  EXPECT_GT(stats.eval_wall_ns, 0u);
  EXPECT_EQ(profile.totals.tuples_considered, stats.tuples_considered);

  std::string table = profile.ToTable();
  EXPECT_NE(table.find("reachable"), std::string::npos);
  std::string json = profile.ToMetricsJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
}

/// Counter `key` of an idlog-metrics-v1 document; nullopt when the
/// document's counters object does not hold it.
std::optional<uint64_t> CounterOf(const std::string& json,
                                  const std::string& key) {
  const size_t begin = json.find("\"counters\":{");
  const size_t end = json.find('}', begin);
  const std::string field = "\"" + key + "\":";
  const size_t at = json.find(field, begin);
  if (begin == std::string::npos || at == std::string::npos || at > end) {
    return std::nullopt;
  }
  return std::stoull(json.substr(at + field.size()));
}

// Nothing switches the profile on: a plain Run() reports the whole run
// through MetricsJson(), the totals as stats() holds them and every
// rule's counters as TotalsOf folds the rule's PlanAnalysis row.
TEST(EngineObservability, MetricsJsonReportsTheRunWithoutASwitch) {
  IdlogEngine engine;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .AddRow("edge", {"n" + std::to_string(i),
                                     "n" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine
                  .LoadProgramText("path(X, Y) :- edge(X, Y).\n"
                                   "path(X, Z) :- path(X, Y), edge(Y, Z).\n")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  const std::string json = engine.MetricsJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;

  const EvalStats& stats = engine.stats();
  EXPECT_EQ(stats.facts_inserted, 15u);
  const std::pair<const char*, uint64_t> totals[] = {
      {"tuples_considered", stats.tuples_considered},
      {"facts_derived", stats.facts_derived},
      {"facts_inserted", stats.facts_inserted},
      {"rule_firings", stats.rule_firings},
      {"iterations", stats.iterations},
      {"strata_evaluated", stats.strata_evaluated},
      {"id_groups_assigned", stats.id_groups_assigned},
      {"id_tuples_materialized", stats.id_tuples_materialized},
      {"index_probes", stats.index_probes},
      {"index_builds", stats.index_builds},
      {"index_cache_misses", stats.index_cache_misses},
  };
  for (const auto& [name, value] : totals) {
    EXPECT_EQ(CounterOf(json, std::string("totals.") + name),
              std::optional<uint64_t>(value))
        << name;
  }

  const PlanAnalysis& analysis = engine.plan_analysis();
  const std::vector<Clause>& clauses = engine.program().clauses;
  ASSERT_EQ(analysis.rules.size(), clauses.size());
  for (size_t i = 0; i < clauses.size(); ++i) {
    Result<RulePlan> plan = CompileRule(clauses[i]);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const EvalStats rule = TotalsOf(*plan, analysis.rules[i]);
    const std::string prefix = "rule." + std::to_string(i) + "." +
                               clauses[i].head.predicate + ".";
    const std::pair<const char*, uint64_t> columns[] = {
        {"firings", rule.rule_firings},
        {"tuples_considered", rule.tuples_considered},
        {"facts_derived", rule.facts_derived},
        {"facts_inserted", rule.facts_inserted},
    };
    for (const auto& [name, value] : columns) {
      EXPECT_EQ(CounterOf(json, prefix + name),
                std::optional<uint64_t>(value))
          << prefix + name;
    }
    EXPECT_EQ(CounterOf(json, prefix + "evals"), std::nullopt);
  }
  for (const StratumRoundStats& log : analysis.strata) {
    EXPECT_EQ(CounterOf(json, "stratum." + std::to_string(log.stratum) +
                                  ".rounds"),
              std::optional<uint64_t>(log.new_facts_per_round.size()));
  }
}

TEST(EngineObservability, CountersAreDeterministicAcrossIdenticalRuns) {
  auto run = [](MetricsRegistry* metrics) {
    IdlogEngine engine;
    ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
    ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
    ASSERT_TRUE(engine.AddRow("edge", {"c", "a"}).ok());
    ASSERT_TRUE(engine.LoadProgramText(kGraphProgram).ok());
    ASSERT_TRUE(engine.Run().ok());
    engine.profile().ToMetrics(metrics);
  };
  MetricsRegistry first;
  MetricsRegistry second;
  run(&first);
  run(&second);
  EXPECT_EQ(first.counters(), second.counters());
  EXPECT_EQ(first.gauges(), second.gauges());
  // Timers carry wall-clock noise; only the structure must agree.
  ASSERT_EQ(first.timers().size(), second.timers().size());
  auto it1 = first.timers().begin();
  auto it2 = second.timers().begin();
  for (; it1 != first.timers().end(); ++it1, ++it2) {
    EXPECT_EQ(it1->first, it2->first);
    EXPECT_EQ(it1->second.count, it2->second.count);
  }
}

TEST(EngineObservability, GovernorTripEmitsTraceEvent) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(
      engine
          .LoadProgramText("p(0).\np(X) :- p(Y), X = Y + 1.\n")
          .ok());
  TraceSink sink;
  engine.SetTraceSink(&sink);
  EvalLimits limits;
  limits.max_iterations = 5;
  engine.SetLimits(limits);
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  const TraceEvent* trip = nullptr;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.name == "governor trip") trip = &ev;
  }
  ASSERT_NE(trip, nullptr);
  EXPECT_EQ(trip->category, "governor");
  EXPECT_EQ(trip->phase, 'i');
  bool budget_named = false;
  for (const TraceArg& arg : trip->args) {
    if (arg.key == "budget" && arg.value == "iterations") {
      budget_named = true;
    }
  }
  EXPECT_TRUE(budget_named);
  EXPECT_TRUE(ValidateJson(sink.ToJson()).ok());
}

TEST(JsonValidator, AcceptsValidRejectsMalformed) {
  EXPECT_TRUE(ValidateJson("{\"a\":[1,2.5e3,null,true,\"x\"]}").ok());
  EXPECT_TRUE(ValidateJson("[]").ok());
  EXPECT_FALSE(ValidateJson("").ok());
  EXPECT_FALSE(ValidateJson("{\"a\":}").ok());
  EXPECT_FALSE(ValidateJson("[1,]").ok());
  EXPECT_FALSE(ValidateJson("[1] trailing").ok());
  EXPECT_FALSE(ValidateJson("{\"a\":01}").ok());
  EXPECT_FALSE(ValidateJson("\"unterminated").ok());
}

}  // namespace
}  // namespace idlog
