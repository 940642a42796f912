#include "exec/round_executor.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <string>

#include "common/failpoint.h"
#include "exec/thread_pool.h"

namespace idlog {

namespace {

constexpr const char kAbortMarker[] =
    "round aborted: an earlier task in this round failed";

/// Runs `fn` and converts any exception escaping it into an Internal
/// status naming `what`. Rule binding and evaluation report through
/// Status, but anything they call could still throw (and the
/// fault-injection harness does, on purpose), so exactly one error
/// reaches the driver and neither the pool nor the caller ever sees an
/// exception.
template <typename Fn>
Status CatchAsStatus(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string(what) + " threw: " + e.what());
  } catch (...) {
    return Status::Internal(std::string(what) +
                            " threw a non-standard exception");
  }
}

/// Evaluates one part: sets up the part-private context (counters,
/// per-step buffer, provenance store, partition slice) and converts any
/// escaping exception into the part's Status.
void RunPart(const EvalContext& base_ctx, const RoundTask& task,
             RoundPart* part, std::atomic<bool>* abort) {
  if (abort->load(std::memory_order_relaxed)) {
    part->status = Status::Internal(kAbortMarker);
    return;
  }
  EvalContext ctx = base_ctx;
  ctx.stats = &part->stats;
  // Observability attribution happens in the driver's deterministic
  // merge; parts only measure, into private counters and a private
  // per-step buffer, and never touch the shared trace, profile or
  // analysis.
  ctx.trace = nullptr;
  ctx.profile = nullptr;
  ctx.analyze = nullptr;
  ctx.step_stats =
      part->step_stats.steps.empty() ? nullptr : &part->step_stats;
  // Derivations go to the part's private store; the driver absorbs them
  // in (task, partition) order (first-derivation-wins), so the final
  // store matches a serial run byte-for-byte.
  if (base_ctx.provenance != nullptr) ctx.provenance = &part->prov;
  ctx.partition_index = part->partition;
  ctx.partition_count = task.partitions;
  if (base_ctx.trace != nullptr) part->start_us = base_ctx.trace->NowUs();
  auto t0 = std::chrono::steady_clock::now();
  part->status = CatchAsStatus("round task", [&] {
    if (Failpoints::AnyArmed()) {
      IDLOG_RETURN_NOT_OK(Failpoints::Instance().OnHit("exec.round.task"));
    }
    return EvaluateRuleInto(*task.plan, task.bound, ctx, task.delta_step,
                            &part->staged);
  });
  part->self_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (!part->status.ok()) abort->store(true, std::memory_order_relaxed);
}

}  // namespace

bool IsRoundAbortMarker(const Status& s) {
  return !s.ok() && s.message() == kAbortMarker;
}

Status RunRoundTasks(const EvalContext& base_ctx, const RelationSlots& slots,
                     std::vector<RoundTask>* tasks) {
  // Bind every task here, before any part runs: each step's relation
  // comes from the slots and each index a keyed scan probes is built or
  // extended now, on this thread, so no part ever mutates an index. The
  // bind statistics go to the first part, whose counters the driver
  // always folds in for a task it reaches.
  size_t total_parts = 0;
  for (RoundTask& task : *tasks) {
    RoundPart& first = task.parts.front();
    IDLOG_RETURN_NOT_OK(CatchAsStatus("round task bind", [&] {
      return BindRule(
          *task.plan, slots, task.delta_step, base_ctx.use_indexes,
          &first.stats,
          first.step_stats.steps.empty() ? nullptr : &first.step_stats,
          &task.bound);
    }));
    total_parts += task.parts.size();
  }

  // One failed (or throwing) part cancels the round: parts not yet
  // started when the flag goes up return an abort marker instead of
  // evaluating. The driver's in-order merge skips the markers and
  // surfaces the first real error.
  std::atomic<bool> abort{false};
  std::vector<std::function<void()>> jobs;
  jobs.reserve(total_parts);
  for (RoundTask& task : *tasks) {
    for (RoundPart& part : task.parts) {
      jobs.push_back([&base_ctx, &abort, &task, &part] {
        RunPart(base_ctx, task, &part, &abort);
      });
    }
  }
  ThreadPool* pool = base_ctx.pool;
  if (pool != nullptr && pool->size() > 1 && jobs.size() > 1) {
    pool->Run(std::move(jobs));
  } else {
    for (const std::function<void()>& job : jobs) job();
  }
  return Status::OK();
}

}  // namespace idlog
