#ifndef IDLOG_OBS_PROFILE_H_
#define IDLOG_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/eval_stats.h"
#include "obs/metrics.h"

namespace idlog {

/// Work and self-time attributed to one program clause across a run.
/// The counters are read from the same per-task fold of the rule's
/// per-step counters that the engine's EvalStats are, so summing any
/// column over all rules reproduces the engine-level total exactly.
struct RuleProfile {
  int clause_index = -1;
  std::string head_pred;
  std::string rule;  ///< Rendered clause text (may be empty).
  int stratum = -1;
  uint64_t evals = 0;    ///< Round tasks run (incl. empty-delta).
  uint64_t firings = 0;  ///< Calls that actually scanned (non-empty delta).
  uint64_t tuples_considered = 0;
  uint64_t facts_derived = 0;
  uint64_t facts_inserted = 0;
  uint64_t self_ns = 0;  ///< Wall time inside this rule's evaluations.
};

/// Fixpoint work of one stratum.
struct StratumProfile {
  int index = -1;
  uint64_t rules = 0;
  uint64_t rounds = 0;
  uint64_t wall_ns = 0;
};

/// The per-rule / per-stratum breakdown of one evaluation, collected by
/// the engine when profiling is enabled (EngineImpl::set_profiling /
/// IdlogEngine::EnableProfiling). Attribution happens per rule
/// evaluation, not per tuple, so the overhead is a few clock reads per
/// rule call — invisible next to the join work they bracket.
struct EvalProfile {
  std::vector<RuleProfile> rules;    ///< Indexed by clause index.
  std::vector<StratumProfile> strata;
  EvalStats totals;                  ///< Engine-level stats of the run.
  uint64_t wall_ns = 0;              ///< Whole Evaluate() wall time.

  void Clear() { *this = EvalProfile(); }

  /// Human-readable per-rule table sorted by self time, with per-stratum
  /// rows and the engine totals (the CLI's --profile output).
  std::string ToTable() const;

  /// Flattens the profile into `metrics` under "totals.*", "stratum.*"
  /// and "rule.*" keys (the --metrics-json report, schema
  /// idlog-metrics-v1; see MetricsRegistry::ToJson).
  void ToMetrics(MetricsRegistry* metrics) const;

  /// Convenience: a registry holding only this profile, as JSON.
  std::string ToMetricsJson() const;
};

}  // namespace idlog

#endif  // IDLOG_OBS_PROFILE_H_
