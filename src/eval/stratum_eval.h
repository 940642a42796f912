#ifndef IDLOG_EVAL_STRATUM_EVAL_H_
#define IDLOG_EVAL_STRATUM_EVAL_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "eval/resume_state.h"
#include "eval/rule_eval.h"
#include "eval/rule_plan.h"

namespace idlog {

/// Where EvaluateStratum picks a stratum up instead of at round 0: after
/// round `round`, whose delta `marks` names. The first differentiated
/// round scans every marked predicate; later rounds narrow back to the
/// stratum's own predicates. A checkpoint resume marks the frame's
/// delta, the stratum's own predicates only; an incremental pass gives
/// the completed run as round 0 and marks the change's whole taint
/// closure at its sizes when the pass started, so a stratum also sees
/// the growth of the strata below it.
struct StratumStart {
  uint64_t round = 0;
  DeltaMarks marks;
};

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
/// The first round is round 0 (every rule over the full relations)
/// unless `start` is set. `on_round`, when set, sees the frame of every
/// round boundary inside the stratum (`ctx.stratum`) after which
/// another round follows.
Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& ctx, RelationSlots slots,
                       bool seminaive, const StratumStart* start = nullptr,
                       const CheckpointHook& on_round = nullptr);

}  // namespace idlog

#endif  // IDLOG_EVAL_STRATUM_EVAL_H_
