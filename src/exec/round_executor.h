#ifndef IDLOG_EXEC_ROUND_EXECUTOR_H_
#define IDLOG_EXEC_ROUND_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "eval/provenance.h"
#include "eval/rule_eval.h"
#include "eval/rule_plan.h"
#include "obs/explain.h"
#include "storage/relation.h"

namespace idlog {

/// One part of a round task: its own binding, private staging, private
/// counters, private provenance and its status. Unpartitioned tasks
/// have exactly one part covering the whole delta; part k of K reads
/// the k-th contiguous row range of it.
struct RoundPart {
  std::vector<BoundStep> bound; ///< The task's binding with the delta
                                ///< narrowed to this part's rows (set by
                                ///< RunRoundTasks).
  Relation staged;              ///< Private output; typed by the driver.
  RuleStepStats counters;       ///< Per-step counters, sized steps+1 by
                                ///< RunRoundTasks; the emit entry's
                                ///< rows_emitted is left 0 — Commit
                                ///< decides what is new.
  ProvenanceStore prov;         ///< Private derivations recorded by the
                                ///< part (uncharged); the driver
                                ///< absorbs them in (task, partition)
                                ///< order, which reproduces the serial
                                ///< first-derivation-wins store exactly.
  uint64_t start_us = 0;        ///< Trace timestamp at part start.
  uint64_t self_ns = 0;         ///< Wall time inside the evaluation.
  Status status;                ///< The evaluation's status.
};

/// One independent `(rule, delta_step)` evaluation of a fixpoint round,
/// possibly fanned out into `partitions` sub-evaluations that each read
/// one contiguous row range of the delta. EvaluateStratum builds the
/// task list in the exact order the serial loop would evaluate, the
/// executor runs every part, and EvaluateStratum commits the private
/// results in (task, partition) order — the serial emission order by
/// construction, which is what makes every `--jobs N` byte-identical
/// to serial.
struct RoundTask {
  const RulePlan* plan = nullptr;
  int delta_step = -1;          ///< -1 = full evaluation (round 0 / naive).
  int partitions = 1;           ///< Fan-out; > 1 only for eligible
                                ///< delta-step-0 tasks (see the driver).
  std::vector<RoundPart> parts; ///< Sized `partitions` by the driver.
  Relation* head = nullptr;     ///< The full relation Commit inserts
                                ///< into and parts stage nothing it
                                ///< holds (set by the driver).
  std::vector<BoundStep> bound; ///< Per plan step: relation, rows and
                                ///< index, the delta unsplit (set by
                                ///< RunRoundTasks).
};

/// Binds every task (BindRule, on the calling thread: each step's
/// relation from `slots`, each probed index built or extended, bind
/// counters into the task's first part), gives part k of K a copy of
/// the binding whose delta reads the k-th contiguous range of its rows,
/// then evaluates every part of every task, each into its private
/// `staged` relation and `counters`, and returns when all have
/// finished. With `base_ctx.pool` set and more than one part, parts run
/// concurrently; otherwise they run in order on the calling thread.
/// Either way they read only what was bound, and the relations and
/// indexes stay frozen until the driver commits. Staged-insert
/// accounting (emit rows_emitted, governor OnDerived charges,
/// provenance byte charges) is the driver's job at Commit, where "new"
/// is judged against the full relation — the definition that is
/// invariant across jobs. The
/// shared ResourceGovernor is still probed from all workers (it is
/// thread-safe), so deadlines and cancellation interrupt long scans.
/// When `base_ctx.provenance` is set, each part records derivations
/// into its private `prov` store; EvaluateStratum absorbs those stores
/// in (task, partition) order.
///
/// Per-part failures are reported in RoundPart::status and left to the
/// driver. A failing (or throwing — exceptions are converted to Status
/// inside the part) evaluation cancels the round: parts not yet started
/// are marked aborted instead of running. The pool claims queued parts
/// in index order, but claim order is not completion order — a part
/// claimed before the failure can still observe the abort flag after a
/// later-indexed part failed, so the driver must skip abort markers and
/// surface the first *real* error in part order (IsRoundAbortMarker
/// identifies the markers). A governor trip additionally latches, so
/// parts already running unwind at their next checkpoint. The returned
/// Status covers binding failures only, an exception thrown while
/// binding (converted to Internal) included.
Status RunRoundTasks(const EvalContext& base_ctx, const RelationSlots& slots,
                     std::vector<RoundTask>* tasks);

/// True if `s` is the synthetic "round aborted" marker RunRoundTasks
/// assigns to parts that were skipped because an earlier failure
/// cancelled the round (as opposed to a real evaluation error).
bool IsRoundAbortMarker(const Status& s);

}  // namespace idlog

#endif  // IDLOG_EXEC_ROUND_EXECUTOR_H_
