#ifndef IDLOG_OBS_EXPLAIN_H_
#define IDLOG_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/eval_stats.h"
#include "eval/rule_plan.h"

namespace idlog {

/// One annotation from a rewrite pass: `pass` names the transform
/// ("id-desugar", "magic-sets", "projection-push", "id-rewrite",
/// "cleanup", "tid-pushdown"), `clause_index` the clause of the pass's
/// *output* program the note attaches to (-1 = program-wide), and
/// `detail` says what happened in that clause's terms.
struct RewriteNote {
  std::string pass;
  int clause_index = -1;
  std::string detail;
};

/// An append-only log of rewrite annotations, threaded through the
/// `opt/` passes (each takes an optional RewriteLog*) and through the
/// engine's own tid-bound pushdown. EXPLAIN renders the notes next to
/// the clause they touched, so a plan reads together with the history
/// of how it came to look that way.
class RewriteLog {
 public:
  void Note(std::string pass, int clause_index, std::string detail) {
    notes_.push_back(
        RewriteNote{std::move(pass), clause_index, std::move(detail)});
  }
  void Append(const RewriteLog& other) {
    notes_.insert(notes_.end(), other.notes_.begin(), other.notes_.end());
  }
  const std::vector<RewriteNote>& notes() const { return notes_; }
  bool empty() const { return notes_.empty(); }
  void Clear() { notes_.clear(); }

 private:
  std::vector<RewriteNote> notes_;
};

/// EXPLAIN ANALYZE counters of one PlanStep, accumulated over every
/// evaluation of the owning rule across all rounds.
///
/// `rows_in` counts entries into the step (bindings arriving from the
/// steps before it), `rows_scanned` the candidate tuples it enumerated,
/// `rows_emitted` the bindings it passed downstream — so
/// rows_emitted / rows_scanned is the step's observed selectivity.
/// `index_probes` counts index Lookup calls; these three are logical
/// counters, identical across --jobs settings. `index_hits` /
/// `index_misses` count physical index work when a round binds the
/// step's task: the step's index was already current vs. built or
/// extended. They are identical across --jobs settings too, but depend
/// on what earlier runs left built (EDB indexes outlive a run), so like
/// timings they stay out of the JSON document.
struct StepCounters {
  uint64_t rows_in = 0;
  uint64_t rows_scanned = 0;
  uint64_t index_probes = 0;
  uint64_t index_hits = 0;
  uint64_t index_misses = 0;
  uint64_t rows_emitted = 0;

  StepCounters& operator+=(const StepCounters& o) {
    rows_in += o.rows_in;
    rows_scanned += o.rows_scanned;
    index_probes += o.index_probes;
    index_hits += o.index_hits;
    index_misses += o.index_misses;
    rows_emitted += o.rows_emitted;
    return *this;
  }
};

/// Per-step counters of one rule: one entry per PlanStep plus a final
/// synthetic "emit" step whose rows_in is the rule's facts_derived and
/// whose rows_emitted is its facts_inserted — the bridge to the
/// EvalProfile columns (the sum invariant EXPLAIN tests assert).
struct RuleStepStats {
  std::vector<StepCounters> steps;
};

/// Fixpoint shape of one stratum: the number of new facts each round
/// committed (the per-round delta sizes). Ends with the 0 of the round
/// that reached the fixpoint.
struct StratumRoundStats {
  int stratum = -1;
  std::vector<uint64_t> new_facts_per_round;
};

/// Everything EXPLAIN ANALYZE reports of one Evaluate(): per-step
/// counters per rule (indexed by clause index, sized by the engine) and
/// per-round delta sizes per stratum. Aggregation is deterministic
/// under --jobs N: workers count into private RuleStepStats, and the
/// driver folds each task's parts and adds the fold in serial task
/// order — the same fold EvalStats and the profile are read from.
struct PlanAnalysis {
  std::vector<RuleStepStats> rules;
  std::vector<StratumRoundStats> strata;

  void Clear() { *this = PlanAnalysis(); }
};

/// One rule of an EXPLAIN document: the compiled plan plus rendering
/// context the plan itself does not carry.
struct ExplainRule {
  int clause_index = -1;
  int stratum = -1;
  std::string text;  ///< Rendered clause (may be empty).
  const RulePlan* plan = nullptr;
};

/// Input to the EXPLAIN renderers. With `analysis` null the output is
/// the static plan (EXPLAIN); with it set, per-step counters and
/// per-round delta sizes are included (EXPLAIN ANALYZE). `totals`
/// optionally carries the engine-level EvalStats of the analyzed run.
struct ExplainDoc {
  std::vector<ExplainRule> rules;
  bool use_indexes = true;
  const RewriteLog* rewrites = nullptr;
  const PlanAnalysis* analysis = nullptr;
  const EvalStats* totals = nullptr;
};

/// Aligned text tree: one block per rule (clause text, rewrite notes,
/// steps with key columns / index choice / ArgModes / delta-candidate
/// marks), per-step counters and observed selectivity when analyzing,
/// then per-stratum round sizes and engine totals.
std::string RenderExplainText(const ExplainDoc& doc);

/// Deterministic `idlog-explain-v1` JSON document (RFC 8259, validated
/// by obs/json's checker in tests/CI). Contains only logical counters —
/// no timings, no physical cache counters — so two runs of one program
/// produce byte-identical documents regardless of --jobs.
std::string RenderExplainJson(const ExplainDoc& doc);

}  // namespace idlog

#endif  // IDLOG_OBS_EXPLAIN_H_
