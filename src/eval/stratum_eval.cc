#include "eval/stratum_eval.h"

#include <algorithm>
#include <set>
#include <utility>

#include "exec/round_executor.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"

namespace idlog {

namespace {

/// A delta must have at least this many rows before a task is worth
/// fanning out (below it the per-partition setup outweighs the scan).
constexpr uint64_t kMinPartitionRows = 2;

}  // namespace

Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& ctx, RelationSlots slots,
                       bool seminaive,
                       StratumResume* resume,
                       const RoundBoundaryHook& on_round,
                       const std::set<std::string>* seed_preds) {
  // The delta stays keyed by name, as the round hook and resume frames
  // see it; after every swap the delta slots of this stratum's positive
  // scans (the only steps a task differentiates) are pointed at it,
  // null where the predicate gained nothing.
  std::map<std::string, Relation> delta;
  auto replace_delta = [&](std::map<std::string, Relation>&& next) {
    delta = std::move(next);
    for (const RulePlan* plan : plans) {
      for (int step : plan->positive_scan_steps) {
        const PlanStep& scan = plan->steps[static_cast<size_t>(step)];
        auto it = delta.find(scan.predicate);
        slots.delta[static_cast<size_t>(scan.rel)] =
            it == delta.end() ? nullptr : &it->second;
      }
    }
  };
  uint64_t round = 0;
  const bool resuming = resume != nullptr;
  if (resuming) {
    // Continue at the checkpointed boundary: the saved round's delta
    // feeds round+1's differentiated scans, and round 0 (all rules over
    // full relations) already ran before the frame was cut.
    replace_delta(std::move(resume->delta));
    round = resume->round;
  }
  // An incremental seed widens the *first* differentiated round to the
  // externally-changed predicates; afterwards only intra-stratum deltas
  // exist and the filter narrows back to stratum_preds.
  std::set<std::string> seed_filter;
  bool first_seeded_round = resuming && seed_preds != nullptr;
  if (first_seeded_round) {
    seed_filter = stratum_preds;
    seed_filter.insert(seed_preds->begin(), seed_preds->end());
  }

  // EXPLAIN ANALYZE: record this stratum's per-round delta sizes. The
  // series is a logical quantity (fixpoint contents are deterministic),
  // so it is identical across --jobs settings.
  StratumRoundStats* round_log = nullptr;
  if (ctx.analyze != nullptr) {
    // On resume this stratum's entry already exists (restored from the
    // snapshot with the pre-checkpoint rounds); append to it rather
    // than opening a duplicate.
    if (resuming && !ctx.analyze->strata.empty() &&
        ctx.analyze->strata.back().stratum == ctx.stratum) {
      round_log = &ctx.analyze->strata.back();
    } else {
      ctx.analyze->strata.emplace_back();
      ctx.analyze->strata.back().stratum = ctx.stratum;
      round_log = &ctx.analyze->strata.back();
    }
  }

  // Fan-out of one (rule, delta_step) task. Only the heavy shape is
  // eligible: a semi-naive task whose delta scan is the *outermost*
  // plan step with no bound keys — then the serial emission order is
  // ascending delta-row order, so K parts over contiguous row ranges
  // emit, in part order, exactly the serial sequence, and no earlier
  // step gets re-scanned K times. K is the pool's size clamped to the
  // delta's row count: it depends only on the configured --jobs and
  // the delta's content, never on scheduling.
  auto resolve_fanout = [&](const RulePlan& plan, int delta_step) -> int {
    if (!seminaive || delta_step != 0 || ctx.pool == nullptr) return 1;
    const PlanStep& scan = plan.steps[0];
    if (scan.kind != PlanStep::Kind::kScan || scan.is_id ||
        !scan.key_cols.empty()) {
      return 1;
    }
    const Relation* d = slots.delta[static_cast<size_t>(scan.rel)];
    if (d == nullptr || d->size() < kMinPartitionRows) return 1;
    return static_cast<int>(std::min<uint64_t>(
        static_cast<uint64_t>(ctx.pool->size()), d->size()));
  };

  // Runs one round's (rule, delta_step) tasks and commits what they
  // staged. The task list is built in the exact order the serial loop
  // evaluates; the executor runs every task's parts (concurrently when
  // a pool is installed, else in order on this thread) into private
  // relations, and the commit below walks tasks in that same order and
  // each task's parts in index order — the serial emission order — so
  // fixpoint contents, stats, profile columns, explain counters, trace
  // spans and the provenance store come out identical for every --jobs
  // (timing values aside). Commit is where inserts become observable: a
  // staged tuple counts as facts_inserted (and is charged to the
  // governor, and enters the next delta) iff it is new in the full
  // relation — the one definition of "new" that no concatenation order
  // can perturb.
  auto run_round = [&](std::vector<RoundTask>&& tasks, uint64_t round,
                       bool* any_new,
                       std::map<std::string, Relation>* next_delta)
      -> Status {
    for (RoundTask& task : tasks) {
      task.head = slots.derived[static_cast<size_t>(task.plan->head)];
      task.parts.resize(static_cast<size_t>(task.partitions));
      for (size_t p = 0; p < task.parts.size(); ++p) {
        RoundPart& part = task.parts[p];
        part.partition = static_cast<int>(p);
        part.staged = Relation(task.head->type());
        if (ctx.analyze != nullptr) {
          part.step_stats.steps.resize(task.plan->steps.size() + 1);
        }
      }
    }
    IDLOG_RETURN_NOT_OK(RunRoundTasks(ctx, slots, &tasks));

    // Find where the serial loop would have stopped: the first part,
    // in (task, partition) order, with a real error. Abort markers are
    // skipped — the pool claims parts in index order but completes
    // them in any order, so a low-index part can be marked aborted by
    // a higher-index failure.
    size_t fail_task = tasks.size();
    size_t fail_part = 0;
    Status round_error = Status::OK();
    for (size_t ti = 0; ti < tasks.size() && round_error.ok(); ++ti) {
      const std::vector<RoundPart>& parts = tasks[ti].parts;
      for (size_t pi = 0; pi < parts.size(); ++pi) {
        const Status& st = parts[pi].status;
        if (st.ok() || IsRoundAbortMarker(st)) continue;
        round_error = st;
        fail_task = ti;
        fail_part = pi;
        break;
      }
    }
    const bool failed = !round_error.ok();

    for (size_t ti = 0; ti < tasks.size(); ++ti) {
      // Tasks after the failing one ran (or were aborted), but their
      // results and attribution are discarded with the round — the
      // same cutoff a serial run's early return produces.
      if (failed && ti > fail_task) break;
      RoundTask& task = tasks[ti];
      const size_t last_part = (failed && ti == fail_task)
                                   ? fail_part
                                   : task.parts.size() - 1;

      // Fold the parts' private counters into the shared stats; a
      // partitioned task's parts counted disjoint delta slices, so the
      // sum is exactly what one unpartitioned evaluation would count.
      EvalStats task_stats;
      uint64_t task_self_ns = 0;
      for (size_t pi = 0; pi <= last_part; ++pi) {
        task_stats += task.parts[pi].stats;
        task_self_ns += task.parts[pi].self_ns;
      }
      if (ctx.stats != nullptr) *ctx.stats += task_stats;

      // Per-step counters, still in deterministic task order. The emit
      // pseudo-step's rows_emitted is filled from the commit below.
      bool have_analyze_row =
          ctx.analyze != nullptr && task.plan->clause_index >= 0 &&
          static_cast<size_t>(task.plan->clause_index) <
              ctx.analyze->rules.size();
      if (have_analyze_row) {
        auto& dst = ctx.analyze
                        ->rules[static_cast<size_t>(task.plan->clause_index)]
                        .steps;
        for (size_t pi = 0; pi <= last_part; ++pi) {
          const auto& src = task.parts[pi].step_stats.steps;
          if (dst.size() != src.size()) continue;
          for (size_t k = 0; k < src.size(); ++k) dst[k] += src[k];
        }
      }

      // Commit: insert this task's staged tuples into the full
      // relation, part after part — the parts read consecutive delta
      // row ranges, so this is the serial emission order. Dedup within
      // a part came free from its staged relation; cross-part and
      // cross-task duplicates — and re-derivations from earlier rounds
      // — all fall out of the one Insert against full. Skipped for a
      // failed round: the round's results are discarded, exactly as the
      // serial early return discards its staging.
      uint64_t inserted = 0;
      Status commit_status = Status::OK();
      if (!failed) {
        Relation& full = *task.head;
        Relation* fresh = nullptr;
        for (const RoundPart& part : task.parts) {
          for (const Tuple& t : part.staged.tuples()) {
            if (!full.Insert(t)) continue;
            ++inserted;
            *any_new = true;
            if (next_delta != nullptr) {
              if (fresh == nullptr) {
                fresh = &next_delta->try_emplace(task.plan->head_pred,
                                                 Relation(full.type()))
                             .first->second;
              }
              fresh->Insert(t);
            }
            if (ctx.governor != nullptr && commit_status.ok()) {
              commit_status = ctx.governor->OnDerived(
                  1, ApproxTupleBytes(task.plan->head_args.size()));
            }
          }
        }
        if (task.partitions > 1) {
          // One breadcrumb per partitioned commit: which head, how wide
          // the fan-out, how many commits survived dedup.
          FlightRecorder::Record(FlightEventKind::kPartitionCommit,
                                 task.plan->head_pred.c_str(),
                                 task.partitions,
                                 static_cast<int64_t>(inserted),
                                 static_cast<int64_t>(round));
        }
      }
      if (ctx.stats != nullptr) ctx.stats->facts_inserted += inserted;
      if (have_analyze_row) {
        auto& dst = ctx.analyze
                        ->rules[static_cast<size_t>(task.plan->clause_index)]
                        .steps;
        if (!dst.empty()) dst.back().rows_emitted += inserted;
      }

      // Absorb the parts' private derivations, still in (task,
      // partition) order: first-derivation-wins against everything
      // absorbed so far makes the combined store identical to what an
      // unpartitioned serial loop records. The retained bytes were
      // deferred by the parts and are charged here, like the
      // committed-insert charges above.
      if (ctx.provenance != nullptr) {
        size_t prov_bytes = 0;
        for (size_t pi = 0; pi <= last_part; ++pi) {
          prov_bytes += ctx.provenance->Absorb(&task.parts[pi].prov);
        }
        if (ctx.governor != nullptr && prov_bytes > 0 &&
            commit_status.ok()) {
          commit_status = ctx.governor->OnDerived(0, prov_bytes);
        }
      }

      if (ctx.profile != nullptr && task.plan->clause_index >= 0 &&
          static_cast<size_t>(task.plan->clause_index) <
              ctx.profile->rules.size()) {
        RuleProfile& rp =
            ctx.profile->rules[static_cast<size_t>(task.plan->clause_index)];
        ++rp.evals;
        rp.firings += task_stats.rule_firings;
        rp.tuples_considered += task_stats.tuples_considered;
        rp.facts_derived += task_stats.facts_derived;
        rp.facts_inserted += inserted;
        rp.self_ns += task_self_ns;
      }

      if (ctx.trace != nullptr) {
        std::vector<TraceArg> args;
        args.push_back(TraceArg::Int("clause", task.plan->clause_index));
        args.push_back(TraceArg::Int("stratum", ctx.stratum));
        args.push_back(TraceArg::Num("round", round));
        if (task.delta_step >= 0) {
          const size_t step = static_cast<size_t>(task.delta_step);
          const Relation* d = task.bound[step].rel;
          args.push_back(
              TraceArg::Str("delta", task.plan->steps[step].predicate));
          args.push_back(
              TraceArg::Num("delta_size", d != nullptr ? d->size() : 0));
          // The partition fanout is deliberately NOT a trace arg: traces
          // are part of the byte-identical --jobs contract, and the
          // fanout is physical scheduling detail like thread ids.
        }
        args.push_back(
            TraceArg::Num("considered", task_stats.tuples_considered));
        args.push_back(TraceArg::Num("derived", task_stats.facts_derived));
        args.push_back(TraceArg::Num("inserted", inserted));
        if (failed && ti == fail_task) {
          args.push_back(TraceArg::Str("status", round_error.ToString()));
        }
        ctx.trace->CompleteWithDuration("rule " + task.plan->head_pred,
                                        "rule", task.parts[0].start_us,
                                        task_self_ns / 1000,
                                        std::move(args));
      }

      if (failed && ti == fail_task) return round_error;
      IDLOG_RETURN_NOT_OK(commit_status);
    }
    return round_error;
  };

  auto delta_total = [&delta]() {
    uint64_t n = 0;
    for (const auto& [pred, rel] : delta) {
      (void)pred;
      n += rel.size();
    }
    return n;
  };

  // Round 0: all rules over full relations. A resumed stratum skips it
  // — it ran before the checkpoint frame was cut.
  if (!resuming) {
    TraceSpan round_span(ctx.trace, "fixpoint round", "fixpoint");
    round_span.AddArg(TraceArg::Int("stratum", ctx.stratum));
    round_span.AddArg(TraceArg::Num("round", round));
    std::vector<RoundTask> tasks;
    tasks.reserve(plans.size());
    for (const RulePlan* plan : plans) {
      RoundTask task;
      task.plan = plan;
      task.delta_step = -1;
      tasks.push_back(std::move(task));
    }
    bool any = false;
    std::map<std::string, Relation> next_delta;
    FlightRecorder::Record(FlightEventKind::kRoundStart, "round0",
                           ctx.stratum, static_cast<int64_t>(round),
                           static_cast<int64_t>(tasks.size()));
    IDLOG_RETURN_NOT_OK(
        run_round(std::move(tasks), round, &any, &next_delta));
    if (ctx.stats != nullptr) ++ctx.stats->iterations;
    if (ctx.governor != nullptr) {
      IDLOG_RETURN_NOT_OK(ctx.governor->OnIteration());
    }
    replace_delta(std::move(next_delta));
    if (round_log != nullptr) {
      round_log->new_facts_per_round.push_back(delta_total());
    }
    if (FlightRecorder::Enabled()) {
      FlightRecorder::Record(FlightEventKind::kRoundCommit, "round0",
                             ctx.stratum, static_cast<int64_t>(round),
                             static_cast<int64_t>(delta_total()));
    }
    if (ctx.trace != nullptr) {
      round_span.AddArg(TraceArg::Num("new_facts", delta_total()));
    }
    if (on_round != nullptr) {
      IDLOG_RETURN_NOT_OK(on_round(round, !any, delta));
    }
    if (!any) return Status::OK();
  }

  // Later rounds. The loop is unbounded by construction (it stops at
  // the least fixpoint); the governor's iteration cap and deadline are
  // what bound it when a program generates values forever.
  while (true) {
    ++round;
    TraceSpan round_span(ctx.trace, "fixpoint round", "fixpoint");
    round_span.AddArg(TraceArg::Int("stratum", ctx.stratum));
    round_span.AddArg(TraceArg::Num("round", round));
    const std::set<std::string>& round_filter =
        first_seeded_round ? seed_filter : stratum_preds;
    first_seeded_round = false;
    std::vector<RoundTask> tasks;
    for (const RulePlan* plan : plans) {
      if (seminaive) {
        for (int step : plan->positive_scan_steps) {
          const std::string& pred =
              plan->steps[static_cast<size_t>(step)].predicate;
          if (round_filter.count(pred) == 0) continue;
          RoundTask task;
          task.plan = plan;
          task.delta_step = step;
          task.partitions = resolve_fanout(*plan, step);
          tasks.push_back(std::move(task));
        }
      } else {
        // Naive mode: re-run recursive rules in full. Rules with no
        // intra-stratum dependency are complete after round 0.
        bool recursive = false;
        for (int step : plan->positive_scan_steps) {
          if (stratum_preds.count(
                  plan->steps[static_cast<size_t>(step)].predicate) > 0) {
            recursive = true;
            break;
          }
        }
        if (!recursive) continue;
        RoundTask task;
        task.plan = plan;
        task.delta_step = -1;
        tasks.push_back(std::move(task));
      }
    }
    if (tasks.empty()) {
      // No recursive rules: the stratum is complete without this round
      // having run. The terminal hook call lets the checkpointer record
      // the stratum as finished.
      if (on_round != nullptr) {
        IDLOG_RETURN_NOT_OK(on_round(round, /*fixpoint=*/true, delta));
      }
      return Status::OK();
    }
    bool any = false;
    std::map<std::string, Relation> next_delta;
    FlightRecorder::Record(FlightEventKind::kRoundStart, "delta",
                           ctx.stratum, static_cast<int64_t>(round),
                           static_cast<int64_t>(tasks.size()));
    IDLOG_RETURN_NOT_OK(
        run_round(std::move(tasks), round, &any, &next_delta));
    if (ctx.stats != nullptr) ++ctx.stats->iterations;
    if (ctx.governor != nullptr) {
      IDLOG_RETURN_NOT_OK(ctx.governor->OnIteration());
    }
    replace_delta(std::move(next_delta));
    if (round_log != nullptr) {
      round_log->new_facts_per_round.push_back(delta_total());
    }
    if (FlightRecorder::Enabled()) {
      FlightRecorder::Record(FlightEventKind::kRoundCommit, "delta",
                             ctx.stratum, static_cast<int64_t>(round),
                             static_cast<int64_t>(delta_total()));
    }
    if (ctx.trace != nullptr) {
      round_span.AddArg(TraceArg::Num("new_facts", delta_total()));
    }
    if (on_round != nullptr) {
      IDLOG_RETURN_NOT_OK(on_round(round, !any, delta));
    }
    if (!any) return Status::OK();
  }
}

}  // namespace idlog
