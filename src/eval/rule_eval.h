#ifndef IDLOG_EVAL_RULE_EVAL_H_
#define IDLOG_EVAL_RULE_EVAL_H_

#include <map>
#include <optional>
#include <vector>

#include "common/limits.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "eval/eval_stats.h"
#include "eval/provenance.h"
#include "eval/rule_plan.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "storage/relation.h"

namespace idlog {

class ThreadPool;  // exec/thread_pool.h; the context only points at it.

/// A delta: rows [mark, size) of its predicate's full relation, plus the
/// indexes BindRule builds over just those rows (postings are row ids
/// of the full relation). The stratum driver resets the slots after
/// every round, so an index lives one round, like the delta it covers.
struct DeltaSlot {
  std::optional<size_t> mark;  ///< Unset: the predicate gained nothing.
  /// Built through const slots by BindRule: a cache, not contents.
  mutable std::map<std::vector<int>, ColumnIndex> indexes;
};

/// The relations plan steps read, by slot (PlanStep::rel, RulePlan::
/// head). The engine fills them at the start of every evaluation call
/// and never keeps them across calls: an EDB relation can appear
/// between runs. A null entry is a relation that does not exist, read
/// as empty — a scan over it produces nothing and a negation over it
/// succeeds.
struct RelationSlots {
  /// By predicate: the full contents (derived, EDB or the u-domain).
  std::vector<const Relation*> full;
  /// By predicate: the derived relation commits insert into (null for
  /// predicates no rule defines).
  std::vector<Relation*> derived;
  /// By predicate: the facts new in the previous round. Only the
  /// stratum driver sets these, for the stratum it runs.
  std::vector<DeltaSlot> delta;
  /// By ID-relation slot: the materialized ID-relation.
  std::vector<const Relation*> id;
};

/// One plan step's relation, rows and index, resolved by BindRule.
struct BoundStep {
  const Relation* rel = nullptr;       ///< Null reads as empty.
  const ColumnIndex* index = nullptr;  ///< Null: scan the rows, checking
                                       ///< the key columns.
  size_t begin = 0;  ///< The rows [begin, end) the step reads: all of
  size_t end = 0;    ///< `rel`, or a delta's range.
};

/// Runtime environment a rule executes in.
struct EvalContext {
  /// Engine totals. Only the stratum driver writes them, at commit,
  /// from each task's counters as the round executor folded them.
  EvalStats* stats = nullptr;

  /// Resource budgets (deadline, tuples, memory, iterations) and the
  /// cooperative cancellation token. When set, the executor checkpoints
  /// once per tuple considered, so runaway joins trip instead of
  /// spinning; the stratum driver charges every committed fact, so
  /// non-terminating fixpoints trip too. Null means ungoverned.
  ResourceGovernor* governor = nullptr;

  /// Ablation switch: with false, binding builds no index and scans
  /// filter full scans on their key columns instead (bench E4 measures
  /// the cost of losing index nested-loop joins).
  bool use_indexes = true;

  /// Thread pool for the round executor (exec/). Null (the default)
  /// runs every task in order on the calling thread; when set,
  /// RunRoundTasks splits each task whose step 0 is an unindexed scan
  /// into up to the pool's size of row ranges and runs all parts
  /// concurrently. Either way the driver commits in serial order.
  ThreadPool* pool = nullptr;

  /// Driver-side observers (null by default; attribution is per rule
  /// evaluation, never per tuple). `trace` receives one complete span
  /// per rule evaluation and per fixpoint round; `analyze` is the
  /// engine-owned PlanAnalysis (one RuleStepStats per clause, sized
  /// steps+1) that the driver adds every task's folded counters and
  /// self time to, plus each stratum's round log.
  TraceSink* trace = nullptr;
  PlanAnalysis* analyze = nullptr;
  /// Stratum currently evaluating (labels trace events; -1 outside).
  int stratum = -1;

  /// The only counters the executor writes: one StepCounters per plan
  /// step plus the emit pseudo-step (steps+1 entries; the round
  /// executor gives every part its own). The emit entry's rows_in is
  /// facts_derived; its rows_emitted is left 0 for the driver's commit.
  RuleStepStats* counters = nullptr;

  /// The relation the staged heads are judged against, frozen while the
  /// rule runs (RoundTask::head, set by the round executor): the full
  /// relation the driver commits into, or in VerifyModel the model. The
  /// executor stages no tuple it holds, so commit never drops a staged
  /// tuple for being old and VerifyModel sees only violations. Null
  /// stages every head.
  const Relation* head = nullptr;

  /// When set, the first derivation of every new fact is recorded
  /// (clause index + matched premises). `symbols` is only consulted for
  /// rendering built-in premises and may be null otherwise.
  ProvenanceStore* provenance = nullptr;
  const SymbolTable* symbols = nullptr;
};

/// Resolves every step of `plan` from `slots` into `bound` and builds or
/// extends the index each keyed scan probes (none with `use_indexes`
/// off). If `delta_step >= 0`, that step (which must be a positive
/// non-ID scan) reads only its delta's rows — the semi-naive
/// differentiation hook — and a delta that starts past the end of its
/// relation is an Internal error. An index built or extended here
/// counts as the step's index_misses in `counters` (steps+1 entries,
/// else Internal); an index already current counts as an index_hit.
/// RunRoundTasks calls it on one thread while no rule executes:
/// binding is the only place indexes change during evaluation, and
/// executors only read what was bound.
Status BindRule(const RulePlan& plan, const RelationSlots& slots,
                int delta_step, bool use_indexes, RuleStepStats* counters,
                std::vector<BoundStep>* bound);

/// Evaluates one rule bottom-up over the relations BindRule resolved
/// for the same `delta_step` (RunRoundTasks may narrow step 0's rows),
/// staging derived head tuples into `out`. Counts into `ctx.counters`,
/// which must hold steps+1 entries (else Internal). A tuple `ctx.head`
/// holds is counted but not staged; whether a staged tuple is new, and
/// what that costs, is for the caller to decide against the full
/// relation (the stratum driver's commit).
Status EvaluateRuleInto(const RulePlan& plan,
                        const std::vector<BoundStep>& bound,
                        const EvalContext& ctx, int delta_step,
                        Relation* out);

}  // namespace idlog

#endif  // IDLOG_EVAL_RULE_EVAL_H_
