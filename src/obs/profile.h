#ifndef IDLOG_OBS_PROFILE_H_
#define IDLOG_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/eval_stats.h"
#include "obs/metrics.h"

namespace idlog {

/// Work and self-time attributed to one program clause across a run:
/// TotalsOf over the clause's PlanAnalysis entry, the same map the
/// engine's EvalStats are folded with, so summing any counter column
/// over all rules reproduces the engine-level total exactly.
struct RuleProfile {
  int clause_index = -1;
  std::string head_pred;
  std::string rule;  ///< Rendered clause text (may be empty).
  int stratum = -1;
  uint64_t firings = 0;  ///< Round tasks run (an empty delta gets none).
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

/// The per-rule / per-stratum breakdown of an evaluation. The engine
/// renders it on demand (EngineImpl::profile, IdlogEngine::profile)
/// from the one record the fixpoint keeps, its PlanAnalysis, plus its
/// EvalStats, plans and stratification; nothing is collected for it and
/// nothing switches it on. Timings are physical: after a checkpoint
/// resume, self and wall times cover only the resuming process.
struct EvalProfile {
  std::vector<RuleProfile> rules;    ///< Indexed by clause index.
  std::vector<StratumProfile> strata;  ///< One per stratum reached.
  EvalStats totals;                  ///< Engine-level stats of the run.
  uint64_t wall_ns = 0;              ///< Whole Evaluate() wall time.

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
