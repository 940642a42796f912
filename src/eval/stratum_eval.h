#ifndef IDLOG_EVAL_STRATUM_EVAL_H_
#define IDLOG_EVAL_STRATUM_EVAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "eval/rule_eval.h"
#include "eval/rule_plan.h"
#include "storage/relation.h"

namespace idlog {

/// Mid-stratum continuation state for checkpoint resume: the last
/// committed round and its post-commit delta, exactly as a
/// RoundBoundaryHook observed them. EvaluateStratum picks up at round
/// `round + 1` and skips the round-0 full evaluation (it already ran
/// before the frame was cut).
struct StratumResume {
  uint64_t round = 0;
  std::map<std::string, Relation> delta;
};

/// Called at every round boundary — after Commit() moved the round's
/// new facts into the full relations and the delta was swapped — the
/// one point where derived relations, deltas and stats are mutually
/// consistent and a checkpoint frame can be cut. `fixpoint` is true on
/// the call that ends the stratum (no new facts, or no recursive rules
/// left to run). A non-OK return aborts the evaluation (a checkpoint
/// that cannot be written is an error the caller must see).
using RoundBoundaryHook = std::function<Status(
    uint64_t round, bool fixpoint,
    const std::map<std::string, Relation>& delta)>;

/// Evaluates one stratum to its least fixpoint.
///
/// `plans` are the compiled rules whose heads belong to this stratum;
/// `stratum_preds` the predicates defined here (everything else the
/// rules read is complete). `slots` holds every relation the plans read
/// and the derived relations their commits extend in place; this
/// function sets the delta slots of its own copy each round. With
/// `seminaive=false` every rule re-runs in full each round (the naive
/// ablation baseline of bench E4); otherwise rounds after the first use
/// delta differentiation on intra-stratum positive scans.
///
/// `resume`, when set, continues a checkpointed fixpoint instead of
/// starting at round 0 (the caller must have restored the derived
/// relations to the matching round boundary); it is consumed (the delta
/// is moved out).
/// `on_round`, when set, observes every round boundary.
///
/// `seed_preds`, when set (requires `resume` and semi-naive mode),
/// marks the resume delta as an *incremental seed*: predicates changed
/// outside this stratum (EDB insertions, lower-stratum growth) rather
/// than a checkpointed intra-stratum delta. The first differentiated
/// round then also creates tasks for positive scans over those
/// predicates — they are not in `stratum_preds`, so the normal filter
/// would never touch their deltas — and later rounds narrow back to the
/// intra-stratum filter (external predicates are complete; only this
/// stratum's own growth keeps propagating).
Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& ctx, RelationSlots slots,
                       bool seminaive,
                       StratumResume* resume = nullptr,
                       const RoundBoundaryHook& on_round = nullptr,
                       const std::set<std::string>* seed_preds = nullptr);

}  // namespace idlog

#endif  // IDLOG_EVAL_STRATUM_EVAL_H_
