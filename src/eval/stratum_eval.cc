#include "eval/stratum_eval.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "exec/round_executor.h"
#include "obs/flight_recorder.h"

namespace idlog {

namespace {

/// The engine totals of one task's folded counters: what EvalStats, the
/// rule's profile row and its trace span report.
EvalStats TotalsOf(const RulePlan& plan, const RuleStepStats& counters) {
  EvalStats t;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const StepCounters& c = counters.steps[i];
    // Built-ins enumerate solutions, not stored tuples.
    if (plan.steps[i].kind != PlanStep::Kind::kBuiltin) {
      t.tuples_considered += c.rows_scanned;
    }
    t.index_probes += c.index_probes;
    t.index_builds += c.index_misses;
  }
  t.index_cache_misses = t.index_builds;
  t.rule_firings = counters.steps.front().rows_in;
  t.facts_derived = counters.steps.back().rows_in;
  t.facts_inserted = counters.steps.back().rows_emitted;
  return t;
}

}  // namespace

Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& ctx, RelationSlots slots,
                       bool seminaive, const StratumStart* start,
                       const CheckpointHook& on_round) {
  // The round's delta, as the checkpoint hook and resume frames see it.
  // Every round resets the delta slots of this stratum's positive scans
  // (the only steps a task differentiates) to it, with no indexes.
  DeltaMarks marks;
  auto set_marks = [&](DeltaMarks next) {
    marks = std::move(next);
    for (const RulePlan* plan : plans) {
      for (int step : plan->positive_scan_steps) {
        const PlanStep& scan = plan->steps[static_cast<size_t>(step)];
        DeltaSlot& slot = slots.delta[static_cast<size_t>(scan.rel)];
        slot = DeltaSlot();
        auto it = marks.find(scan.predicate);
        if (it != marks.end()) slot.mark = it->second;
      }
    }
  };
  // The first round is round 0 unless the caller continues the stratum
  // after a completed round: then the first differentiated round scans
  // every predicate the start marks, and later rounds only this
  // stratum's own growth.
  bool round0 = start == nullptr;
  uint64_t round = 0;
  if (start != nullptr) {
    set_marks(start->marks);
    round = start->round + 1;
  }
  // This stratum's relations: only its commits grow them, so a round's
  // delta is each one's rows from its size before the commit on.
  std::map<std::string, const Relation*> own;
  for (const RulePlan* plan : plans) {
    own.emplace(plan->head_pred,
                slots.derived[static_cast<size_t>(plan->head)]);
  }

  // This stratum's per-round delta sizes, for EXPLAIN ANALYZE. The
  // series is a logical quantity (fixpoint contents are deterministic),
  // so it is identical across --jobs settings. A resumed or incremental
  // pass extends the stratum's existing log.
  StratumRoundStats* round_log = nullptr;
  if (ctx.analyze != nullptr) {
    std::vector<StratumRoundStats>& logs = ctx.analyze->strata;
    auto it = std::find_if(logs.begin(), logs.end(),
                           [&ctx](const StratumRoundStats& log) {
                             return log.stratum == ctx.stratum;
                           });
    if (it == logs.end()) {
      logs.emplace_back();
      logs.back().stratum = ctx.stratum;
      it = logs.end() - 1;
    }
    round_log = &*it;
  }

  // Runs one round's (rule, delta_step) tasks and commits what they
  // staged. The task list is built in the exact order the serial loop
  // evaluates, and the executor hands back what that loop would have
  // produced: the tasks up to the first failing one, each with its
  // parts in row order (one part unless the executor split it) and its
  // counters folded. The commit below walks tasks and parts in that
  // order, the serial emission order, so fixpoint contents, stats,
  // profile columns, explain counters, trace spans and the provenance
  // store come out identical for every --jobs (timing values aside).
  // Commit is where inserts become observable: a staged tuple counts
  // as facts_inserted (and is charged to the governor, and lands in the
  // next delta's rows) iff it is new in the full relation — the one
  // definition of "new" that no concatenation order can perturb.
  auto run_round = [&](std::vector<RoundTask>&& tasks,
                       uint64_t round) -> Status {
    for (RoundTask& task : tasks) {
      task.head = slots.derived[static_cast<size_t>(task.plan->head)];
    }
    IDLOG_RETURN_NOT_OK(RunRoundTasks(ctx, slots, &tasks));
    // A failed round commits nothing, as a serial early return discards
    // its staging; the failing task is the last one handed back.
    const bool failed = !tasks.empty() && !tasks.back().status.ok();

    for (RoundTask& task : tasks) {
      // All totals but facts_inserted are added before the commit,
      // whose governor trip message reports them.
      EvalStats totals = TotalsOf(*task.plan, task.counters);
      if (ctx.stats != nullptr) *ctx.stats += totals;

      // Commit: move this task's staged tuples into the full relation,
      // part after part. The parts staged nothing full held before the
      // round (the executor checks the frozen head), and dedup within a
      // part came free from its staged relation; cross-part and
      // cross-task duplicates fall out of the one Insert against full.
      uint64_t inserted = 0;
      Status commit_status = Status::OK();
      if (!failed) {
        Relation& full = *slots.derived[static_cast<size_t>(task.plan->head)];
        for (RoundPart& part : task.parts) {
          for (Tuple& t : part.staged.TakeRows()) {
            if (!full.Insert(std::move(t))) continue;
            ++inserted;
            if (ctx.governor != nullptr && commit_status.ok()) {
              commit_status = ctx.governor->OnDerived(
                  1, ApproxTupleBytes(task.plan->head_args.size()));
            }
          }
        }
        if (task.parts.size() > 1) {
          // One breadcrumb per split commit: which head, how many
          // parts, how many commits survived dedup.
          FlightRecorder::Record(FlightEventKind::kPartitionCommit,
                                 task.plan->head_pred.c_str(),
                                 static_cast<int64_t>(task.parts.size()),
                                 static_cast<int64_t>(inserted),
                                 static_cast<int64_t>(round));
        }
      }
      task.counters.steps.back().rows_emitted = inserted;
      totals.facts_inserted = inserted;
      if (ctx.stats != nullptr) ctx.stats->facts_inserted += inserted;
      const size_t clause = static_cast<size_t>(task.plan->clause_index);
      if (ctx.analyze != nullptr && clause < ctx.analyze->rules.size()) {
        std::vector<StepCounters>& dst = ctx.analyze->rules[clause].steps;
        const std::vector<StepCounters>& src = task.counters.steps;
        if (dst.size() == src.size()) {
          for (size_t k = 0; k < dst.size(); ++k) dst[k] += src[k];
        }
      }

      // Absorb the parts' private derivations, still in part order:
      // first-derivation-wins against everything absorbed so far makes
      // the combined store identical to what a serial loop records. The
      // retained bytes were deferred by the parts and are charged here,
      // like the committed-insert charges above.
      if (ctx.provenance != nullptr) {
        size_t prov_bytes = 0;
        for (RoundPart& part : task.parts) {
          prov_bytes += ctx.provenance->Absorb(&part.prov);
        }
        if (ctx.governor != nullptr && prov_bytes > 0 &&
            commit_status.ok()) {
          commit_status = ctx.governor->OnDerived(0, prov_bytes);
        }
      }

      if (ctx.profile != nullptr && clause < ctx.profile->rules.size()) {
        RuleProfile& rp = ctx.profile->rules[clause];
        ++rp.evals;
        rp.firings += totals.rule_firings;
        rp.tuples_considered += totals.tuples_considered;
        rp.facts_derived += totals.facts_derived;
        rp.facts_inserted += totals.facts_inserted;
        rp.self_ns += task.self_ns;
      }

      if (ctx.trace != nullptr) {
        std::vector<TraceArg> args;
        args.push_back(TraceArg::Int("clause", task.plan->clause_index));
        args.push_back(TraceArg::Int("stratum", ctx.stratum));
        args.push_back(TraceArg::Num("round", round));
        if (task.delta_step >= 0) {
          // The delta's length at bind: this round's commits of earlier
          // tasks have grown the relation since.
          const size_t step = static_cast<size_t>(task.delta_step);
          const BoundStep& d = task.bound[step];
          args.push_back(
              TraceArg::Str("delta", task.plan->steps[step].predicate));
          args.push_back(TraceArg::Num("delta_size", d.end - d.begin));
          // The part count is deliberately NOT a trace arg: traces are
          // part of the byte-identical --jobs contract, and the split
          // is physical scheduling detail like thread ids.
        }
        args.push_back(TraceArg::Num("considered", totals.tuples_considered));
        args.push_back(TraceArg::Num("derived", totals.facts_derived));
        args.push_back(TraceArg::Num("inserted", totals.facts_inserted));
        if (!task.status.ok()) {
          args.push_back(TraceArg::Str("status", task.status.ToString()));
        }
        ctx.trace->CompleteWithDuration("rule " + task.plan->head_pred,
                                        "rule", task.start_us,
                                        task.self_ns / 1000,
                                        std::move(args));
      }

      IDLOG_RETURN_NOT_OK(task.status);
      IDLOG_RETURN_NOT_OK(commit_status);
    }
    return Status::OK();
  };

  // Round 0 runs every rule over the full relations. Later rounds
  // differentiate each positive scan over one of this stratum's
  // predicates or a marked one; naive mode re-runs the recursive rules
  // in full instead (rules with no intra-stratum dependency are
  // complete after round 0).
  auto round_tasks = [&]() {
    std::vector<RoundTask> tasks;
    for (const RulePlan* plan : plans) {
      if (round0 || !seminaive) {
        auto reads_stratum = [&](int step) {
          return stratum_preds.count(
                     plan->steps[static_cast<size_t>(step)].predicate) > 0;
        };
        if (!round0 && std::none_of(plan->positive_scan_steps.begin(),
                                    plan->positive_scan_steps.end(),
                                    reads_stratum)) {
          continue;
        }
        RoundTask task;
        task.plan = plan;
        task.delta_step = -1;
        tasks.push_back(std::move(task));
        continue;
      }
      for (int step : plan->positive_scan_steps) {
        const std::string& pred =
            plan->steps[static_cast<size_t>(step)].predicate;
        if (stratum_preds.count(pred) == 0 && marks.count(pred) == 0) {
          continue;
        }
        RoundTask task;
        task.plan = plan;
        task.delta_step = step;
        tasks.push_back(std::move(task));
      }
    }
    return tasks;
  };

  // The loop is unbounded by construction (it stops at the least
  // fixpoint); the governor's iteration cap and deadline are what bound
  // it when a program generates values forever.
  for (;; ++round) {
    TraceSpan round_span(ctx.trace, "fixpoint round", "fixpoint");
    round_span.AddArg(TraceArg::Int("stratum", ctx.stratum));
    round_span.AddArg(TraceArg::Num("round", round));
    std::vector<RoundTask> tasks = round_tasks();
    // No rule left to run: the stratum is complete.
    if (tasks.empty()) return Status::OK();
    const char* kind = round0 ? "round0" : "delta";
    DeltaMarks next;
    for (const auto& [pred, rel] : own) next.emplace(pred, rel->size());
    FlightRecorder::Record(FlightEventKind::kRoundStart, kind, ctx.stratum,
                           static_cast<int64_t>(round),
                           static_cast<int64_t>(tasks.size()));
    IDLOG_RETURN_NOT_OK(run_round(std::move(tasks), round));
    if (ctx.stats != nullptr) ++ctx.stats->iterations;
    uint64_t new_facts = 0;
    for (auto it = next.begin(); it != next.end();) {
      const size_t size = own.at(it->first)->size();
      new_facts += size - it->second;
      it = size == it->second ? next.erase(it) : std::next(it);
    }
    set_marks(std::move(next));
    if (round_log != nullptr) {
      round_log->new_facts_per_round.push_back(new_facts);
    }
    FlightRecorder::Record(FlightEventKind::kRoundCommit, kind, ctx.stratum,
                           static_cast<int64_t>(round),
                           static_cast<int64_t>(new_facts));
    round_span.AddArg(TraceArg::Num("new_facts", new_facts));
    // Charged once the round is logged, so a round that trips the
    // iteration budget still shows in EXPLAIN, the trace and the flight
    // recorder, like every round `iterations` counts.
    if (ctx.governor != nullptr) {
      IDLOG_RETURN_NOT_OK(ctx.governor->OnIteration());
    }
    if (marks.empty()) return Status::OK();
    if (on_round != nullptr) {
      FixpointFrame frame;
      frame.stratum = ctx.stratum;
      frame.round = round;
      frame.in_stratum = true;
      IDLOG_RETURN_NOT_OK(on_round(frame, marks));
    }
    round0 = false;
  }
}

}  // namespace idlog
