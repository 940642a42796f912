#include "exec/round_executor.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <string>

#include "common/failpoint.h"
#include "exec/thread_pool.h"

namespace idlog {

namespace {

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
             RoundPart* part) {
  EvalContext ctx = base_ctx;
  // Attribution happens in the driver, from the folded counters; parts
  // only count, into their private buffer, and never touch the shared
  // totals, trace or analysis.
  ctx.stats = nullptr;
  ctx.trace = nullptr;
  ctx.analyze = nullptr;
  ctx.counters = &part->counters;
  ctx.head = task.head;
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
  part->counters.self_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// The number of parts `task` splits into: the rows its step-0 scan
/// reads, clamped to the pool size, when that scan has no index.
size_t PartsOf(const RoundTask& task, const ThreadPool* pool) {
  if (pool == nullptr || task.plan->steps.empty() ||
      task.plan->steps[0].kind != PlanStep::Kind::kScan ||
      task.bound[0].index != nullptr) {
    return 1;
  }
  const size_t rows = task.bound[0].end - task.bound[0].begin;
  if (rows < kMinPartitionRows) return 1;
  return std::min(rows, static_cast<size_t>(pool->size()));
}

}  // namespace

Status RunRoundTasks(const EvalContext& base_ctx, const RelationSlots& slots,
                     std::vector<RoundTask>* tasks) {
  // Bind every task here, before any part runs: each step's relation
  // comes from the slots and each index a keyed scan probes is built or
  // extended now, on this thread, so no part ever mutates an index.
  std::vector<std::function<void()>> jobs;
  jobs.reserve(tasks->size());
  for (RoundTask& task : *tasks) {
    const size_t counters = task.plan->steps.size() + 1;
    task.counters.steps.assign(counters, StepCounters());
    IDLOG_RETURN_NOT_OK(CatchAsStatus("round task bind", [&] {
      return BindRule(*task.plan, slots, task.delta_step,
                      base_ctx.use_indexes, &task.counters, &task.bound);
    }));
    const size_t parts = PartsOf(task, base_ctx.pool);
    task.parts.clear();
    task.parts.resize(parts);
    for (size_t k = 0; k < parts; ++k) {
      RoundPart& part = task.parts[k];
      part.bound = task.bound;
      if (parts > 1) {
        const size_t first = task.bound[0].begin;
        const size_t n = task.bound[0].end - first;
        part.bound[0].begin = first + n * k / parts;
        part.bound[0].end = first + n * (k + 1) / parts;
      }
      part.staged = Relation(task.head->type());
      // Part 0 counts on top of the bind counters, so an unsplit task
      // needs no second counter buffer.
      if (k == 0) {
        part.counters = std::move(task.counters);
      } else {
        part.counters.steps.assign(counters, StepCounters());
      }
      jobs.push_back(
          [&base_ctx, &task, &part] { RunPart(base_ctx, task, &part); });
    }
  }
  ThreadPool* pool = base_ctx.pool;
  if (pool != nullptr && pool->size() > 1 && jobs.size() > 1) {
    pool->Run(std::move(jobs));
  } else {
    for (const std::function<void()>& job : jobs) job();
  }

  // Fold each task's parts in order, up to the first failure, and drop
  // whatever follows it: the cutoff of a serial loop's early return.
  // The parts read disjoint step-0 rows, so each sum is what one
  // unsplit evaluation counts, except that every part enters step 0,
  // which that evaluation enters once: its rows_in, the task's firing,
  // is capped at 1.
  for (size_t ti = 0; ti < tasks->size(); ++ti) {
    RoundTask& task = (*tasks)[ti];
    task.start_us = task.parts.front().start_us;
    task.counters = std::move(task.parts.front().counters);
    for (size_t pi = 0; pi < task.parts.size(); ++pi) {
      const RoundPart& part = task.parts[pi];
      if (pi > 0) {
        for (size_t k = 0; k < part.counters.steps.size(); ++k) {
          task.counters.steps[k] += part.counters.steps[k];
        }
        task.counters.self_ns += part.counters.self_ns;
      }
      if (!part.status.ok()) {
        task.status = part.status;
        task.parts.resize(pi + 1);
        tasks->resize(ti + 1);
      }
    }
    uint64_t& firings = task.counters.steps.front().rows_in;
    firings = std::min<uint64_t>(firings, 1);
  }
  return Status::OK();
}

}  // namespace idlog
