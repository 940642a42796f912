#include "eval/rule_eval.h"

#include <optional>
#include <vector>

#include "common/failpoint.h"
#include "eval/builtin_eval.h"

namespace idlog {

namespace {

/// The binder and the executor write one counter per plan step plus
/// the emit pseudo-step.
Status CheckCounters(const RulePlan& plan, const RuleStepStats* counters) {
  return counters != nullptr && counters->steps.size() == plan.steps.size() + 1
             ? Status::OK()
             : Status::Internal("rule '" + plan.head_pred +
                                "' needs a counter buffer of steps+1 entries");
}

/// Recursive nested-loop executor over the plan steps.
class RuleExecutor {
 public:
  RuleExecutor(const RulePlan& plan, const std::vector<BoundStep>& bound,
               const EvalContext& ctx, int delta_step, Relation* out)
      : plan_(plan), bound_(bound), ctx_(ctx), delta_step_(delta_step),
        out_(out), slots_(static_cast<size_t>(plan.num_slots)),
        sc_(ctx.counters->steps.data()) {
    if (ctx_.provenance != nullptr) {
      premises_.resize(plan.steps.size());
    }
  }

  Status Run() {
    // A differentiated rule derives nothing when its delta is empty;
    // bail out before scanning any earlier (possibly large) steps.
    if (delta_step_ >= 0) {
      const BoundStep& delta = bound_[static_cast<size_t>(delta_step_)];
      if (delta.begin == delta.end) return Status::OK();
    }
    return RunStep(0);
  }

 private:
  Value Resolve(const ArgSource& src) const {
    return src.is_slot ? slots_[static_cast<size_t>(src.slot)] : src.constant;
  }

  Status EmitHead() {
    IDLOG_FAILPOINT("eval.emit.insert");
    // The emit pseudo-step (index steps.size()): rows_in is
    // facts_derived. Its rows_emitted (facts_inserted) and the governor
    // charges for facts and provenance bytes belong to the driver's
    // commit, where "new" is judged against the full relation.
    ++sc_[plan_.steps.size()].rows_in;
    Tuple t;
    t.reserve(plan_.head_args.size());
    for (const ArgSource& src : plan_.head_args) t.push_back(Resolve(src));
    if (ctx_.provenance != nullptr) {
      // Interned at first emit, not construction: the store's predicate
      // table must hold exactly the predicates with recorded nodes, in
      // first-record order, or the parallel task-order merge (which only
      // sees recorded nodes) would diverge from a serial run. Cached, so
      // later emits stay id-keyed with no string hashing/copies.
      if (head_pred_id_ == ProvenanceStore::kNoPred) {
        head_pred_id_ = ctx_.provenance->InternPredicate(plan_.head_pred);
      }
      (void)ctx_.provenance->Record(head_pred_id_, t, plan_.clause_index,
                                    premises_);
    }
    // A re-derivation would fail the commit's insert into the frozen
    // head; dropping it here saves staging it. Counted and recorded
    // above either way, so nothing observable changes.
    if (ctx_.head != nullptr && ctx_.head->Contains(t)) return Status::OK();
    out_->Insert(std::move(t));
    return Status::OK();
  }

  // Verifies kKey positions against `row` (needed when scanning without
  // an index — the ablation path; index lookups guarantee them).
  bool KeysMatch(const PlanStep& step, const Tuple& row) {
    if (step.key_cols.empty()) return true;
    for (int col : step.key_cols) {
      if (Resolve(step.sources[static_cast<size_t>(col)]) !=
          row[static_cast<size_t>(col)]) {
        return false;
      }
    }
    return true;
  }

  // Applies write/filter argument modes against `row`; returns false on
  // a filter mismatch. kKey positions are guaranteed by the index.
  bool BindRow(const PlanStep& step, const Tuple& row) {
    for (size_t pos = 0; pos < step.modes.size(); ++pos) {
      const ArgSource& src = step.sources[pos];
      switch (step.modes[pos]) {
        case ArgMode::kKey:
          break;
        case ArgMode::kWrite:
          slots_[static_cast<size_t>(src.slot)] = row[pos];
          break;
        case ArgMode::kFilter:
          if (slots_[static_cast<size_t>(src.slot)] != row[pos]) return false;
          break;
      }
    }
    return true;
  }

  Status RunStep(size_t i) {
    if (i == plan_.steps.size()) return EmitHead();
    const PlanStep& step = plan_.steps[i];
    StepCounters& sc = sc_[i];
    ++sc.rows_in;

    switch (step.kind) {
      case PlanStep::Kind::kScan: {
        const BoundStep& bound = bound_[i];
        if (bound.begin == bound.end) return Status::OK();
        const Relation* rel = bound.rel;
        const ColumnIndex* index = bound.index;

        if (index == nullptr) {
          const std::vector<Tuple>& rows = rel->tuples();
          for (size_t r = bound.begin; r < bound.end; ++r) {
            const Tuple& row = rows[r];
            ++sc.rows_scanned;
            if (ctx_.governor != nullptr) {
              IDLOG_RETURN_NOT_OK(ctx_.governor->CheckPoint());
            }
            if (!KeysMatch(step, row)) continue;
            if (!BindRow(step, row)) continue;
            if (ctx_.provenance != nullptr) RecordScanPremise(i, step, row);
            ++sc.rows_emitted;
            IDLOG_RETURN_NOT_OK(RunStep(i + 1));
          }
          return Status::OK();
        }

        Tuple key;
        key.reserve(step.key_cols.size());
        for (int col : step.key_cols) {
          key.push_back(Resolve(step.sources[static_cast<size_t>(col)]));
        }
        ++sc.index_probes;
        const std::vector<size_t>* rows = index->Lookup(key);
        if (rows == nullptr) return Status::OK();
        for (size_t r : *rows) {
          ++sc.rows_scanned;
          if (ctx_.governor != nullptr) {
            IDLOG_RETURN_NOT_OK(ctx_.governor->CheckPoint());
          }
          const Tuple& row = rel->tuples()[r];
          if (!BindRow(step, row)) continue;
          if (ctx_.provenance != nullptr) RecordScanPremise(i, step, row);
          ++sc.rows_emitted;
          IDLOG_RETURN_NOT_OK(RunStep(i + 1));
        }
        return Status::OK();
      }

      case PlanStep::Kind::kNegation: {
        const Relation* rel = bound_[i].rel;
        Tuple probe;
        probe.reserve(step.sources.size());
        for (const ArgSource& src : step.sources) probe.push_back(Resolve(src));
        ++sc.rows_scanned;
        if (ctx_.governor != nullptr) {
          IDLOG_RETURN_NOT_OK(ctx_.governor->CheckPoint());
        }
        if (rel != nullptr && rel->Contains(probe)) return Status::OK();
        if (ctx_.provenance != nullptr) {
          Premise& p = premises_[i];
          p.kind = Premise::Kind::kNegation;
          p.predicate = step.predicate;
          p.group = step.group;
          p.tuple = std::move(probe);
        }
        ++sc.rows_emitted;
        return RunStep(i + 1);
      }

      case PlanStep::Kind::kBuiltin: {
        if (step.negated) {
          std::vector<Value> args;
          args.reserve(step.sources.size());
          for (const ArgSource& src : step.sources) {
            args.push_back(Resolve(src));
          }
          ++sc.rows_scanned;
          if (BuiltinHolds(step.builtin, args)) return Status::OK();
          if (ctx_.provenance != nullptr) {
            RecordBuiltinPremise(i, step, args, /*negated=*/true);
          }
          ++sc.rows_emitted;
          return RunStep(i + 1);
        }
        std::vector<std::optional<Value>> args(step.sources.size());
        for (size_t pos = 0; pos < step.sources.size(); ++pos) {
          if (step.modes[pos] == ArgMode::kKey) {
            args[pos] = Resolve(step.sources[pos]);
          }
        }
        Status inner = Status::OK();
        Status st = EnumerateBuiltin(
            step.builtin, args, [&](const std::vector<Value>& solution) {
              if (!inner.ok()) return;
              ++sc.rows_scanned;
              if (ctx_.governor != nullptr) {
                inner = ctx_.governor->CheckPoint();
                if (!inner.ok()) return;
              }
              // Apply writes/filters for unbound positions.
              for (size_t pos = 0; pos < step.modes.size(); ++pos) {
                const ArgSource& src = step.sources[pos];
                if (step.modes[pos] == ArgMode::kWrite) {
                  slots_[static_cast<size_t>(src.slot)] = solution[pos];
                } else if (step.modes[pos] == ArgMode::kFilter) {
                  if (slots_[static_cast<size_t>(src.slot)] !=
                      solution[pos]) {
                    return;
                  }
                }
              }
              if (ctx_.provenance != nullptr) {
                RecordBuiltinPremise(i, step, solution, /*negated=*/false);
              }
              ++sc.rows_emitted;
              inner = RunStep(i + 1);
            });
        IDLOG_RETURN_NOT_OK(st);
        return inner;
      }
    }
    return Status::Internal("unknown plan step kind");
  }

  void RecordScanPremise(size_t i, const PlanStep& step, const Tuple& row) {
    Premise& p = premises_[i];
    p.kind = step.is_id ? Premise::Kind::kIdFact : Premise::Kind::kFact;
    p.predicate = step.predicate;
    p.group = step.group;
    p.tuple = row;
  }

  void RecordBuiltinPremise(size_t i, const PlanStep& step,
                            const std::vector<Value>& args, bool negated) {
    static const SymbolTable& kEmptySymbols = *new SymbolTable();
    const SymbolTable& symbols =
        ctx_.symbols != nullptr ? *ctx_.symbols : kEmptySymbols;
    Premise& p = premises_[i];
    p.kind = Premise::Kind::kBuiltin;
    std::string text = negated ? "not " : "";
    text += BuiltinName(step.builtin);
    text += "(";
    for (size_t a = 0; a < args.size(); ++a) {
      if (a > 0) text += ", ";
      text += args[a].ToString(symbols);
    }
    text += ")";
    p.builtin_text = std::move(text);
  }

  const RulePlan& plan_;
  const std::vector<BoundStep>& bound_;
  const EvalContext& ctx_;
  int delta_step_;
  Relation* out_;
  std::vector<Value> slots_;
  std::vector<Premise> premises_;
  /// Interned head predicate id (valid only when provenance is on).
  ProvenanceStore::PredId head_pred_id_ = ProvenanceStore::kNoPred;
  /// The part's counter array (steps+1 entries, last is the emit
  /// pseudo-step).
  StepCounters* sc_;
};

}  // namespace

Status BindRule(const RulePlan& plan, const RelationSlots& slots,
                int delta_step, bool use_indexes, RuleStepStats* counters,
                std::vector<BoundStep>* bound) {
  IDLOG_RETURN_NOT_OK(CheckCounters(plan, counters));
  bound->assign(plan.steps.size(), BoundStep());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    if (step.kind == PlanStep::Kind::kBuiltin) continue;
    BoundStep& b = (*bound)[i];
    const size_t rel = static_cast<size_t>(step.rel);
    if (step.is_id) {
      // Materialized at the entry of the stratum that reads it.
      b.rel = slots.id[rel];
      if (b.rel == nullptr) {
        return Status::Internal("ID-relation '" + step.predicate +
                                "' missing from the evaluated state");
      }
    } else {
      b.rel = slots.full[rel];
    }
    b.end = b.rel != nullptr ? b.rel->size() : 0;
    const bool is_delta = static_cast<int>(i) == delta_step;
    if (is_delta) {
      // Relations only grow inside a fixpoint (Erase runs outside one),
      // so a delta past the end of its relation is a broken invariant.
      const std::optional<size_t>& mark = slots.delta[rel].mark;
      if (mark.has_value() && *mark > b.end) {
        return Status::Internal("delta of '" + step.predicate +
                                "' starts past the end of its relation");
      }
      b.begin = mark.value_or(b.end);
    }
    if (step.kind != PlanStep::Kind::kScan || !use_indexes ||
        step.key_cols.empty() || b.begin == b.end) {
      continue;
    }
    IDLOG_FAILPOINT("eval.index.build");
    bool built = false;
    if (is_delta) {
      // One index per (predicate, key columns) per round, over just the
      // delta rows: a miss on a small delta is cheap, where a probe of
      // the full relation's index would hit and find nothing in range.
      auto [it, created] =
          slots.delta[rel].indexes.try_emplace(step.key_cols, step.key_cols,
                                               b.begin);
      if (created) it->second.Extend(b.rel->tuples());
      built = created;
      b.index = &it->second;
    } else {
      b.index = &b.rel->IndexOn(step.key_cols, &built);
    }
    ++(built ? counters->steps[i].index_misses
             : counters->steps[i].index_hits);
  }
  return Status::OK();
}

Status EvaluateRuleInto(const RulePlan& plan,
                        const std::vector<BoundStep>& bound,
                        const EvalContext& ctx, int delta_step,
                        Relation* out) {
  IDLOG_RETURN_NOT_OK(CheckCounters(plan, ctx.counters));
  RuleExecutor executor(plan, bound, ctx, delta_step, out);
  return executor.Run();
}

}  // namespace idlog
