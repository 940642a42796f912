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

/// Where EvaluateStratum picks a stratum up instead of at round 0: after
/// round `round`, whose committed delta is `delta`. A checkpoint resume
/// gives the frame's round and delta; an incremental pass gives the
/// completed run as round 0 and the change set as its delta. The first
/// differentiated round also scans the deltas of `extra_preds` —
/// predicates changed outside this stratum, which the stratum's own
/// filter never touches; later rounds narrow back to the stratum's own
/// predicates.
struct StratumStart {
  uint64_t round = 0;
  std::map<std::string, Relation> delta;
  std::set<std::string> extra_preds;
};

/// Called at every round boundary inside a stratum — after Commit() moved
/// the round's new facts into the full relations and the delta was
/// swapped, when another round follows — the one point where derived
/// relations, deltas and stats are mutually consistent and a checkpoint
/// frame can be cut. A non-OK return aborts the evaluation (a checkpoint
/// that cannot be written is an error the caller must see).
using RoundBoundaryHook = std::function<Status(
    uint64_t round, const std::map<std::string, Relation>& delta)>;

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
/// unless `start` is set; its delta is consumed (moved out).
/// `on_round`, when set, observes every round boundary inside the
/// stratum.
Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& ctx, RelationSlots slots,
                       bool seminaive, StratumStart* start = nullptr,
                       const RoundBoundaryHook& on_round = nullptr);

}  // namespace idlog

#endif  // IDLOG_EVAL_STRATUM_EVAL_H_
