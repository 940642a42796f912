#include "obs/profile.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace idlog {

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(ns) / 1e6);
  return buf;
}

void AppendRow(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
}

}  // namespace

std::string EvalProfile::ToTable() const {
  std::vector<const RuleProfile*> order;
  order.reserve(rules.size());
  for (const RuleProfile& r : rules) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const RuleProfile* a, const RuleProfile* b) {
              if (a->self_ns != b->self_ns) return a->self_ns > b->self_ns;
              return a->clause_index < b->clause_index;
            });

  std::string out;
  AppendRow(&out, "%-6s %-7s %-16s %9s %9s %12s %10s %10s %10s  %s\n",
            "clause", "stratum", "head", "evals", "firings", "considered",
            "derived", "inserted", "self-ms", "rule");
  for (const RuleProfile* r : order) {
    AppendRow(&out, "%-6d %-7d %-16s %9llu %9llu %12llu %10llu %10llu %10s  %s\n",
              r->clause_index, r->stratum, r->head_pred.c_str(),
              static_cast<unsigned long long>(r->evals),
              static_cast<unsigned long long>(r->firings),
              static_cast<unsigned long long>(r->tuples_considered),
              static_cast<unsigned long long>(r->facts_derived),
              static_cast<unsigned long long>(r->facts_inserted),
              FormatMs(r->self_ns).c_str(), r->rule.c_str());
  }
  out += "\n";
  AppendRow(&out, "%-8s %6s %7s %10s\n", "stratum", "rules", "rounds",
            "wall-ms");
  for (const StratumProfile& s : strata) {
    AppendRow(&out, "%-8d %6llu %7llu %10s\n", s.index,
              static_cast<unsigned long long>(s.rules),
              static_cast<unsigned long long>(s.rounds),
              FormatMs(s.wall_ns).c_str());
  }
  AppendRow(&out,
            "\ntotals: tuples_considered=%llu facts_derived=%llu "
            "facts_inserted=%llu rule_firings=%llu iterations=%llu "
            "strata=%llu id_groups=%llu id_tuples=%llu wall-ms=%s\n",
            static_cast<unsigned long long>(totals.tuples_considered),
            static_cast<unsigned long long>(totals.facts_derived),
            static_cast<unsigned long long>(totals.facts_inserted),
            static_cast<unsigned long long>(totals.rule_firings),
            static_cast<unsigned long long>(totals.iterations),
            static_cast<unsigned long long>(totals.strata_evaluated),
            static_cast<unsigned long long>(totals.id_groups_assigned),
            static_cast<unsigned long long>(totals.id_tuples_materialized),
            FormatMs(wall_ns).c_str());
  return out;
}

void EvalProfile::ToMetrics(MetricsRegistry* metrics) const {
  metrics->AddCounter("totals.tuples_considered", totals.tuples_considered);
  metrics->AddCounter("totals.facts_derived", totals.facts_derived);
  metrics->AddCounter("totals.facts_inserted", totals.facts_inserted);
  metrics->AddCounter("totals.rule_firings", totals.rule_firings);
  metrics->AddCounter("totals.iterations", totals.iterations);
  metrics->AddCounter("totals.strata_evaluated", totals.strata_evaluated);
  metrics->AddCounter("totals.id_groups_assigned", totals.id_groups_assigned);
  metrics->AddCounter("totals.id_tuples_materialized",
                      totals.id_tuples_materialized);
  // All three are identical across --jobs. index_builds and
  // index_cache_misses are physical, though: they depend on what
  // earlier runs left built (EDB indexes outlive a run).
  metrics->AddCounter("totals.index_probes", totals.index_probes);
  metrics->AddCounter("totals.index_builds", totals.index_builds);
  metrics->AddCounter("totals.index_cache_misses",
                      totals.index_cache_misses);
  // Provenance footprint: logical quantities (the parallel merge
  // reproduces the serial store), so all three are jobs-invariant.
  // Zero when provenance is off.
  metrics->AddCounter("provenance.nodes", totals.provenance_nodes);
  metrics->AddCounter("provenance.premises", totals.provenance_premises);
  metrics->SetGauge("provenance.bytes",
                    static_cast<int64_t>(totals.provenance_bytes));
  metrics->ObserveDuration("totals.eval_wall", wall_ns);
  for (const StratumProfile& s : strata) {
    std::string prefix = "stratum." + std::to_string(s.index) + ".";
    metrics->SetGauge(prefix + "rules", static_cast<int64_t>(s.rules));
    metrics->AddCounter(prefix + "rounds", s.rounds);
    metrics->ObserveDuration(prefix + "wall", s.wall_ns);
  }
  for (const RuleProfile& r : rules) {
    // "rule.<clause>.<head>." keys stay stable across runs of one
    // program, so two reports diff cleanly.
    std::string prefix =
        "rule." + std::to_string(r.clause_index) + "." + r.head_pred + ".";
    metrics->SetGauge(prefix + "stratum", r.stratum);
    metrics->AddCounter(prefix + "evals", r.evals);
    metrics->AddCounter(prefix + "firings", r.firings);
    metrics->AddCounter(prefix + "tuples_considered", r.tuples_considered);
    metrics->AddCounter(prefix + "facts_derived", r.facts_derived);
    metrics->AddCounter(prefix + "facts_inserted", r.facts_inserted);
    metrics->ObserveDuration(prefix + "self", r.self_ns);
  }
}

std::string EvalProfile::ToMetricsJson() const {
  MetricsRegistry metrics;
  ToMetrics(&metrics);
  return metrics.ToJson();
}

}  // namespace idlog
