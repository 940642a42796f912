#ifndef IDLOG_EXEC_ROUND_EXECUTOR_H_
#define IDLOG_EXEC_ROUND_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "eval/provenance.h"
#include "eval/rule_eval.h"
#include "eval/rule_plan.h"
#include "obs/explain.h"
#include "storage/relation.h"

namespace idlog {

/// The fewest step-0 rows a task splits on. Below it a split costs more
/// than it saves: on a 4-thread host, one-rule strata whose row is a
/// copy and a negated probe (about the least work a row can carry) lost
/// from splitting up to 384 rows, broke even near 512 and gained from
/// 768 on, and eight-row splits slowed even rounds that run on the pool
/// anyway.
inline constexpr size_t kMinPartitionRows = 512;

/// One contiguous row range of a round task's step-0 scan, evaluated on
/// its own: a task that does not split has one part covering the whole
/// binding. Its outputs are private, so parts run concurrently; in
/// index order they emit exactly what the unsplit task emits.
struct RoundPart {
  std::vector<BoundStep> bound; ///< The task's binding with step 0
                                ///< narrowed to this part's rows.
  Relation staged;              ///< The heads the part derived that the
                                ///< task's head lacks, typed as it.
  RuleStepStats counters;       ///< The part's own counters (steps+1)
                                ///< and its wall time inside the
                                ///< evaluation; part 0's start from
                                ///< the bind counters.
  ProvenanceStore prov;         ///< Derivations the part recorded
                                ///< (uncharged); the caller absorbs
                                ///< them in part order.
  uint64_t start_us = 0;        ///< Trace timestamp at part start.
  Status status;                ///< The part's evaluation status.
};

/// One `(rule, delta_step)` evaluation of a fixpoint round. The caller
/// sets `plan`, `delta_step` and `head`; RunRoundTasks fills the rest
/// with what one serial evaluation of the task would have produced.
struct RoundTask {
  const RulePlan* plan = nullptr;
  int delta_step = -1;            ///< -1 = full evaluation (round 0,
                                  ///< naive mode or VerifyModel).
  const Relation* head = nullptr; ///< The relation the staged heads are
                                  ///< judged against: parts stage
                                  ///< nothing it holds. Frozen while
                                  ///< the tasks run.
  std::vector<BoundStep> bound;   ///< Per plan step: relation, rows and
                                  ///< index, unsplit.
  std::vector<RoundPart> parts;   ///< In row order, up to the first
                                  ///< failing part.
  RuleStepStats counters;         ///< The bind counters plus every
                                  ///< part's, self time included,
                                  ///< step-0 rows_in capped at 1; emit
                                  ///< rows_emitted stays 0 for the
                                  ///< caller's commit.
  uint64_t start_us = 0;          ///< The first part's start_us.
  Status status;                  ///< The first failing part's status.
};

/// Runs one round of tasks and hands back what a serial loop would
/// have produced: the tasks up to and including the first failing one.
///
/// Every task is bound first, on the calling thread (BindRule: each
/// step's relation from `slots`, each probed index built or extended,
/// bind counters into the task), so no part ever mutates an index.
/// With `base_ctx.pool` set, a task whose plan step 0 is a scan bound
/// without an index over at least kMinPartitionRows rows then splits
/// into K = min(pool size, rows) parts, part k of K reading rows
/// [first + n·k/K, first + n·(k+1)/K) of that step's n rows. That holds
/// whether the scan reads a delta or a full relation: step 0's rows are
/// the outermost loop, so the parts in index order emit the serial
/// sequence and no step is scanned twice. K depends only on the pool
/// size and the round's contents, never on scheduling.
///
/// Parts run concurrently on the pool, else in order on the calling
/// thread, each into its private staging, counters and provenance
/// store (when `base_ctx.provenance` is set), reading only what was
/// bound; the shared governor is probed from every part, so deadlines
/// and cancellation interrupt long scans. Every part runs to its end, a
/// failing or throwing one included (exceptions become its Status).
/// Whatever follows the first failure in (task, part) order is then
/// dropped, and each remaining task folds its parts into its
/// `counters`, `start_us` and `status`. Whether a staged tuple is new,
/// and what it costs, is the caller's commit to decide. The returned Status covers
/// binding only, an exception thrown while binding (Internal) included.
Status RunRoundTasks(const EvalContext& base_ctx, const RelationSlots& slots,
                     std::vector<RoundTask>* tasks);

}  // namespace idlog

#endif  // IDLOG_EXEC_ROUND_EXECUTOR_H_
