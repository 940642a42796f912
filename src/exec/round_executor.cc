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

/// Evaluates one part: sets up the part-private context (counters and
/// provenance store) and converts any escaping exception into the
/// part's Status.
void RunPart(const EvalContext& base_ctx, const RoundTask& task,
             RoundPart* part, std::atomic<bool>* abort) {
  if (abort->load(std::memory_order_relaxed)) {
    part->status = Status::Internal(kAbortMarker);
    return;
  }
  EvalContext ctx = base_ctx;
  // Attribution happens in the driver's deterministic fold; parts only
  // count, into their private buffer, and never touch the shared
  // totals, trace, profile or analysis.
  ctx.stats = nullptr;
  ctx.trace = nullptr;
  ctx.profile = nullptr;
  ctx.analyze = nullptr;
  ctx.counters = &part->counters;
  // Derivations go to the part's private store; the driver absorbs them
  // in (task, partition) order (first-derivation-wins), so the final
  // store matches a serial run byte-for-byte.
  if (base_ctx.provenance != nullptr) ctx.provenance = &part->prov;
  if (base_ctx.trace != nullptr) part->start_us = base_ctx.trace->NowUs();
  auto t0 = std::chrono::steady_clock::now();
  part->status = CatchAsStatus("round task", [&] {
    if (Failpoints::AnyArmed()) {
      IDLOG_RETURN_NOT_OK(Failpoints::Instance().OnHit("exec.round.task"));
    }
    return EvaluateRuleInto(*task.plan, part->bound, ctx, task.delta_step,
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
  // bind counters go to the first part, whose counters the driver
  // always folds in for a task it reaches.
  size_t total_parts = 0;
  for (RoundTask& task : *tasks) {
    for (RoundPart& part : task.parts) {
      part.counters.steps.assign(task.plan->steps.size() + 1,
                                 StepCounters());
    }
    IDLOG_RETURN_NOT_OK(CatchAsStatus("round task bind", [&] {
      return BindRule(*task.plan, slots, task.delta_step,
                      base_ctx.use_indexes, &task.parts.front().counters,
                      &task.bound);
    }));
    // Of the n delta rows from `first` on, part k of K reads [first +
    // n·k/K, first + n·(k+1)/K). Only an unkeyed delta scan at step 0
    // fans out: its serial emission order is delta-row order, so the
    // parts, in index order, emit exactly the serial sequence.
    const size_t parts = task.parts.size();
    if (parts > 1 && (task.delta_step != 0 || task.bound[0].index != nullptr)) {
      return Status::Internal("only an unkeyed delta scan at step 0 fans out");
    }
    for (size_t k = 0; k < parts; ++k) {
      task.parts[k].bound = task.bound;
      if (parts == 1) continue;
      const size_t first = task.bound[0].begin;
      const size_t n = task.bound[0].end - first;
      task.parts[k].bound[0].begin = first + n * k / parts;
      task.parts[k].bound[0].end = first + n * (k + 1) / parts;
    }
    total_parts += parts;
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
