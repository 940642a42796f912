#include "eval/engine_impl.h"

#include <algorithm>
#include <chrono>

#include "analysis/classification.h"
#include "analysis/safety.h"
#include "ast/printer.h"
#include "ast/program_builder.h"
#include "eval/stratum_eval.h"
#include "exec/round_executor.h"

namespace idlog {

Status EngineImpl::Prepare() {
  TraceSpan span(trace_, "program analysis", "engine");
  span.AddArg(TraceArg::Num("clauses", program_->clauses.size()));
  IDLOG_RETURN_NOT_OK(CheckProgramSafety(*program_, /*allow_choice=*/false));
  IDLOG_ASSIGN_OR_RETURN(strat_, Stratify(*program_));
  span.AddArg(TraceArg::Int("strata", strat_.num_strata));
  if (trace_ != nullptr) {
    std::string sizes;
    for (const auto& clauses : strat_.clauses_by_stratum) {
      if (!sizes.empty()) sizes += ",";
      sizes += std::to_string(clauses.size());
    }
    trace_->Instant("stratification", "engine",
                    {TraceArg::Int("strata", strat_.num_strata),
                     TraceArg::Str("clauses_per_stratum", sizes)});
  }

  plans_.clear();
  plans_.reserve(program_->clauses.size());
  for (size_t i = 0; i < program_->clauses.size(); ++i) {
    IDLOG_ASSIGN_OR_RETURN(RulePlan plan,
                           CompileRule(program_->clauses[i]));
    plan.clause_index = static_cast<int>(i);
    plans_.push_back(std::move(plan));
  }

  // Relation slots: a predicate is its index in the program's table, an
  // ID-relation the index of its (predicate, group) pair in order of
  // first appearance.
  auto pred_slot = [this](const std::string& pred) -> Result<int> {
    int slot = program_->FindPredicate(pred);
    if (slot < 0) {
      return Status::Internal("predicate '" + pred +
                              "' is missing from the program's table");
    }
    return slot;
  };
  id_slots_.clear();
  for (RulePlan& plan : plans_) {
    IDLOG_ASSIGN_OR_RETURN(plan.head, pred_slot(plan.head_pred));
    for (PlanStep& step : plan.steps) {
      if (step.kind == PlanStep::Kind::kBuiltin) continue;
      IDLOG_ASSIGN_OR_RETURN(int pred, pred_slot(step.predicate));
      if (!step.is_id) {
        step.rel = pred;
        continue;
      }
      auto key = std::make_pair(step.predicate, step.group);
      auto it = std::find_if(
          id_slots_.begin(), id_slots_.end(),
          [&key](const IdSlot& id) { return id.key == key; });
      step.rel = static_cast<int>(it - id_slots_.begin());
      if (it == id_slots_.end()) {
        id_slots_.push_back(IdSlot{std::move(key), static_cast<size_t>(pred)});
      }
    }
  }

  PredicateClassification classes = ClassifyPredicates(*program_);
  idb_preds_ = classes.output;
  tid_bounds_ = ComputeTidBounds(*program_);

  // Rewrite provenance for EXPLAIN: note, per clause, which ID-steps
  // the footnote 6/7 tid-bound pushdown will restrict at
  // materialization time.
  pushdown_notes_.Clear();
  if (tid_bound_pushdown_) {
    for (const RulePlan& plan : plans_) {
      for (const PlanStep& step : plan.steps) {
        if (!step.is_id) continue;
        auto bound =
            tid_bounds_.find(TidBoundKey{step.predicate, step.group});
        if (bound == tid_bounds_.end()) continue;
        std::string cols;
        for (int c : step.group) {
          if (!cols.empty()) cols += ",";
          cols += std::to_string(c);
        }
        pushdown_notes_.Note(
            "tid-pushdown", plan.clause_index,
            "id-relation " + step.predicate + "[" + cols +
                "] materializes only tids <= " +
                std::to_string(bound->second));
      }
    }
  }

  // Does the program read `udom` without defining or storing it?
  udom_needed_ = false;
  for (const Clause& clause : program_->clauses) {
    for (const Literal& lit : clause.body) {
      if ((lit.atom.kind == AtomKind::kOrdinary ||
           lit.atom.kind == AtomKind::kId) &&
          lit.atom.predicate == "udom" && idb_preds_.count("udom") == 0 &&
          !database_->HasRelation("udom")) {
        udom_needed_ = true;
      }
    }
  }

  prepared_ = true;
  return Status::OK();
}

const Relation* EngineImpl::FullRelation(const std::string& pred) const {
  auto it = derived_.find(pred);
  if (it != derived_.end()) return &it->second;
  Result<const Relation*> edb = database_->Get(pred);
  if (edb.ok()) return *edb;
  if (pred == "udom" && udom_needed_) return &udom_;
  return nullptr;
}

RelationSlots EngineImpl::FillSlots() {
  RelationSlots slots;
  const size_t n = program_->predicates.size();
  slots.full.resize(n);
  slots.derived.resize(n);
  slots.delta.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const std::string& pred = program_->predicates[p].name;
    slots.full[p] = FullRelation(pred);
    auto it = derived_.find(pred);
    if (it != derived_.end()) slots.derived[p] = &it->second;
  }
  slots.id.resize(id_slots_.size());
  for (size_t k = 0; k < id_slots_.size(); ++k) {
    auto it = id_relations_.find(id_slots_[k].key);
    if (it != id_relations_.end()) slots.id[k] = &it->second;
  }
  return slots;
}

Status EngineImpl::MaterializeIdRelation(size_t k, TidAssigner* assigner,
                                         RelationSlots* slots) {
  const IdSlot& id = id_slots_[k];
  const std::string& pred = id.key.first;
  const std::vector<int>& group = id.key.second;
  TraceSpan id_span(trace_, "id-relation " + pred, "id");
  if (trace_ != nullptr) {
    std::string cols;
    for (int c : group) {
      if (!cols.empty()) cols += ",";
      cols += std::to_string(c);
    }
    id_span.AddArg(TraceArg::Str("group_by", cols));
  }
  // An unknown relation reads as empty: the ID-relation of the empty
  // relation.
  const Relation* base = slots->full[id.base];
  Relation empty_base(program_->predicates[id.base].type);
  if (base == nullptr) base = &empty_base;
  int64_t max_tid = -1;
  if (tid_bound_pushdown_) {
    auto bound = tid_bounds_.find(TidBoundKey{pred, group});
    if (bound != tid_bounds_.end()) max_tid = bound->second;
  }
  size_t num_groups = 0;
  IDLOG_ASSIGN_OR_RETURN(
      Relation id_rel,
      BuildIdRelation(pred, *base, group, assigner, max_tid, &num_groups));
  stats_.id_groups_assigned += num_groups;
  stats_.id_tuples_materialized += id_rel.size();
  id_span.AddArg(TraceArg::Num("groups", num_groups));
  id_span.AddArg(TraceArg::Num("tuples", id_rel.size()));
  id_span.AddArg(TraceArg::Int("max_tid", max_tid));
  if (governor_ != nullptr) {
    size_t arity = id_rel.type().size();
    IDLOG_RETURN_NOT_OK(governor_->OnDerived(
        id_rel.size(), id_rel.size() * ApproxTupleBytes(arity)));
  }
  slots->id[k] =
      &id_relations_.emplace(id.key, std::move(id_rel)).first->second;
  return Status::OK();
}

Result<std::vector<RelationType>> EngineImpl::RunTypes(
    const std::map<std::string, RelationType>& pending) const {
  Program pinned;
  pinned.predicates = program_->predicates;
  bool retyped = false;
  for (PredicateInfo& info : pinned.predicates) {
    if (idb_preds_.count(info.name) > 0) continue;
    const RelationType* type = nullptr;
    auto staged = pending.find(info.name);
    if (staged != pending.end()) {
      type = &staged->second;
    } else if (Result<const Relation*> stored = database_->Get(info.name);
               stored.ok()) {
      type = &(*stored)->type();
    }
    if (type == nullptr || type->size() != info.type.size()) continue;
    retyped = retyped || *type != info.type;
    info.type = *type;
    info.declared = true;
  }
  // Pinning the sorts parse-time inference already chose changes
  // nothing, so only a stored sort that differs needs the fixpoint.
  if (retyped) {
    pinned.clauses = program_->clauses;
    IDLOG_RETURN_NOT_OK(InferPredicateTypes(&pinned));
  }
  std::vector<RelationType> types;
  types.reserve(pinned.predicates.size());
  for (PredicateInfo& info : pinned.predicates) {
    types.push_back(std::move(info.type));
  }
  return types;
}

void EngineImpl::InstallResumeState(EvalResumeState state) {
  derived_ = std::move(state.derived);
  id_relations_ = std::move(state.id_relations);
  stats_ = state.stats;
  plan_analysis_ =
      state.has_analysis ? std::move(state.analysis) : PlanAnalysis();
  // A snapshot cut from a provenance-enabled run carries the store;
  // adopting it keeps pre-checkpoint facts explainable after resume.
  if (state.has_provenance) {
    provenance_ = std::move(state.provenance);
  } else {
    provenance_.Clear();
  }
  pending_resume_ = std::make_unique<PendingResume>();
  pending_resume_->stratum = state.frame.stratum;
  if (state.frame.in_stratum) {
    pending_resume_->start.emplace();
    pending_resume_->start->round = state.frame.round;
    pending_resume_->start->marks = std::move(state.delta);
  }
}

Status EngineImpl::Evaluate(TidAssigner* assigner, bool seminaive) {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() the engine before Evaluate()");
  }
  std::unique_ptr<PendingResume> resume = std::move(pending_resume_);
  if (resume == nullptr) {
    derived_.clear();
    id_relations_.clear();
    stats_.Reset();
    provenance_.Clear();
    plan_analysis_.Clear();
  }

  if (plan_analysis_.rules.size() != plans_.size()) {
    // One counter slot per plan step plus the emit pseudo-step. A resume
    // whose snapshot carried an analysis of this program keeps the
    // restored counters instead.
    plan_analysis_.rules.assign(plans_.size(), RuleStepStats());
    for (size_t i = 0; i < plans_.size(); ++i) {
      plan_analysis_.rules[i].steps.resize(plans_[i].steps.size() + 1);
    }
  }

  TraceSpan eval_span(trace_, "evaluate", "engine");
  eval_span.AddArg(TraceArg::Int("strata", strat_.num_strata));
  eval_span.AddArg(TraceArg::Str("mode", seminaive ? "seminaive" : "naive"));

  // The implicit udom(d) facts of the database program (Section 3.1).
  if (udom_needed_) {
    udom_ = Relation(RelationType{Sort::kU});
    for (SymbolId id : database_->u_domain()) {
      udom_.Insert({Value::Symbol(id)});
    }
  }

  // Pre-create IDB relations with their run types so that empty
  // results still carry the right schema.
  IDLOG_ASSIGN_OR_RETURN(std::vector<RelationType> types, RunTypes());
  for (size_t p = 0; p < types.size(); ++p) {
    const std::string& pred = program_->predicates[p].name;
    if (idb_preds_.count(pred) > 0) {
      derived_.emplace(pred, Relation(std::move(types[p])));
    }
  }
  return RunStrata(assigner, seminaive, resume.get(), /*seed=*/nullptr);
}

Status EngineImpl::EvaluateIncremental(const DeltaMarks& changed,
                                       bool seminaive) {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() the engine before Evaluate()");
  }
  if (changed.empty()) return Status::OK();
  if (!seminaive) {
    return Status::Unsupported(
        "incremental re-derivation needs the semi-naive fixpoint; naive "
        "mode re-runs rules in full");
  }
  if (udom_needed_) {
    return Status::Unsupported(
        "the program reads the synthesized u-domain, which inserted "
        "constants extend; re-evaluate in full");
  }

  // Taint closure over positive non-ID scans: every predicate whose
  // contents can grow because of `changed`. ID-scans and negations do
  // not propagate here because reading a tainted predicate through
  // either is grounds for refusal below.
  std::set<std::string> tainted;
  for (const auto& [pred, mark] : changed) {
    (void)mark;
    if (idb_preds_.count(pred) > 0) {
      return Status::Unsupported(
          "'" + pred +
          "' is a derived predicate; EDB changes to it are shadowed");
    }
    tainted.insert(pred);
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (const RulePlan& plan : plans_) {
      if (tainted.count(plan.head_pred) > 0) continue;
      for (int step : plan.positive_scan_steps) {
        if (tainted.count(
                plan.steps[static_cast<size_t>(step)].predicate) > 0) {
          tainted.insert(plan.head_pred);
          grew = true;
          break;
        }
      }
    }
  }
  for (const RulePlan& plan : plans_) {
    for (const PlanStep& step : plan.steps) {
      if (step.kind == PlanStep::Kind::kBuiltin) continue;
      if (tainted.count(step.predicate) == 0) continue;
      if (step.kind == PlanStep::Kind::kNegation) {
        return Status::Unsupported(
            "a rule negates '" + step.predicate +
            "', which the change can grow; growth under negation is not "
            "monotone");
      }
      if (step.is_id) {
        return Status::Unsupported(
            "a rule reads the ID-relation of '" + step.predicate +
            "', which the change can grow; its tid assignment must be "
            "re-materialized");
      }
    }
  }

  // New EDB data can change the sorts derived relations must have (a
  // relation first stored by this change); those are rebuilt in full.
  IDLOG_ASSIGN_OR_RETURN(std::vector<RelationType> types, RunTypes());
  for (size_t p = 0; p < types.size(); ++p) {
    auto it = derived_.find(program_->predicates[p].name);
    if (it != derived_.end() && it->second.type() != types[p]) {
      return Status::Unsupported("the change retypes derived relation '" +
                                 it->first + "'; re-evaluate in full");
    }
  }

  TraceSpan eval_span(trace_, "evaluate incremental", "engine");
  eval_span.AddArg(TraceArg::Num("changed_preds", changed.size()));
  // Every stratum the change reaches continues the completed run; a
  // tainted predicate is the only kind that can grow, so marking each
  // one now lets every stratum see the growth of the strata below it.
  StratumStart seed;
  seed.marks = changed;
  for (const std::string& pred : tainted) {
    seed.marks.try_emplace(pred, FullRelation(pred)->size());
  }
  return RunStrata(/*assigner=*/nullptr, seminaive, /*resume=*/nullptr,
                   &seed);
}

Status EngineImpl::RunStrata(TidAssigner* assigner, bool seminaive,
                             PendingResume* resume,
                             const StratumStart* seed) {
  const bool incremental = seed != nullptr;
  // Stamps the wall time into the stats on every exit path — trips and
  // errors included, so a partial run still reports how long it ran. A
  // resumed or incremental pass adds to the wall time of the run it
  // extends.
  struct WallStamp {
    EngineImpl* engine;
    uint64_t base_ns;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    ~WallStamp() {
      uint64_t ns =
          base_ns + static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      engine->stats_.eval_wall_ns = ns;
      // Provenance footprint: logical quantities of the merged store
      // (identical across --jobs), surfaced as provenance.* metrics.
      engine->stats_.provenance_nodes = engine->provenance_.size();
      engine->stats_.provenance_premises =
          engine->provenance_.num_premises();
      engine->stats_.provenance_bytes = engine->provenance_.approx_bytes();
    }
  } wall_stamp{this, stats_.eval_wall_ns};

  // An incremental pass reads the ID-relations the completed run
  // materialized (at each stratum's entry) and never materializes one:
  // its refusals rule out tainted bases, so binding reports a missing
  // one as a broken invariant.
  RelationSlots slots = FillSlots();
  EvalContext ctx;
  ctx.stats = &stats_;
  ctx.use_indexes = use_indexes_;
  ctx.governor = governor_;
  ctx.trace = trace_;
  ctx.analyze = &plan_analysis_;
  // Parallel stratum execution. Provenance-enabled runs parallelize
  // too: workers record into private per-task stores that the round
  // merge absorbs in serial task order (see stratum_eval.cc).
  if (threads_ > 1) {
    if (pool_ == nullptr || pool_->size() != threads_) {
      pool_ = std::make_unique<ThreadPool>(threads_);
    }
    ctx.pool = pool_.get();
  } else {
    pool_.reset();
  }
  // A shared governor can outlive this engine (enumerators create
  // stack-local engines against one long-lived governor); the guard
  // withdraws our stats_ pointer and labels on every exit path so a
  // later trip never dereferences a destroyed engine.
  GovernorScope governor_scope(
      governor_, &stats_,
      incremental ? "incremental fixpoint" : "stratum fixpoint");
  if (provenance_enabled_) {
    ctx.provenance = &provenance_;
    ctx.symbols = database_->symbols();
  }

  for (int s = resume != nullptr ? resume->stratum : 0; s < strat_.num_strata;
       ++s) {
    std::vector<const RulePlan*> stratum_plans;
    std::set<std::string> stratum_preds;
    bool reached = false;
    for (int clause_idx : strat_.clauses_by_stratum[static_cast<size_t>(s)]) {
      const RulePlan& plan = plans_[static_cast<size_t>(clause_idx)];
      stratum_plans.push_back(&plan);
      stratum_preds.insert(plan.head_pred);
      for (int step : plan.positive_scan_steps) {
        if (!incremental) continue;
        const PlanStep& scan = plan.steps[static_cast<size_t>(step)];
        const Relation* full = slots.full[static_cast<size_t>(scan.rel)];
        auto mark = seed->marks.find(scan.predicate);
        reached = reached || (mark != seed->marks.end() &&
                              full != nullptr && full->size() > mark->second);
      }
    }
    // Where the stratum starts: from the seed in an incremental pass (a
    // stratum none of whose scans has rows past a mark derives exactly
    // what it already derived, so it is skipped without charging
    // rounds), else at round 0 or the checkpointed frame.
    const StratumStart* start = nullptr;
    if (incremental) {
      if (!reached) continue;
      start = seed;
    } else if (resume != nullptr && s == resume->stratum && resume->start) {
      start = &*resume->start;
    }
    // A stratum continued from a checkpoint frame was entered, and its
    // rounds up to the frame were counted, before the frame was cut;
    // those rounds belong to this stratum's trace args even though this
    // pass did not run them.
    const bool continued = !incremental && start != nullptr;
    if (!continued) ++stats_.strata_evaluated;
    ctx.stratum = s;
    TraceSpan stratum_span(
        trace_,
        (incremental ? "incremental stratum " : "stratum ") +
            std::to_string(s),
        "stratum");
    const uint64_t rounds_before =
        stats_.iterations - (continued ? start->round + 1 : 0);
    const uint64_t inserted_before = stats_.facts_inserted;
    auto stratum_t0 = std::chrono::steady_clock::now();
    if (governor_ != nullptr) {
      governor_->set_stratum(s);
      IDLOG_RETURN_NOT_OK(governor_->CheckPoint(0));
    }
    // Materialize the ID-relations this stratum reads that no earlier
    // stratum (or the resumed snapshot) did, in deterministic
    // clause/step order (ScriptedTidAssigner relies on this order).
    for (const RulePlan* plan : stratum_plans) {
      for (const PlanStep& step : plan->steps) {
        if (incremental || !step.is_id) continue;
        const size_t k = static_cast<size_t>(step.rel);
        if (slots.id[k] == nullptr) {
          IDLOG_RETURN_NOT_OK(MaterializeIdRelation(k, assigner, &slots));
        }
      }
    }

    Status stratum_status = Status::OK();
    if (!stratum_plans.empty()) {
      stratum_status = EvaluateStratum(
          stratum_plans, stratum_preds, ctx, slots, seminaive, start,
          incremental ? CheckpointHook() : checkpoint_hook_);
      // The log EvaluateStratum opened on entry; each pass adds its wall.
      plan_analysis_.StratumLog(s).wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - stratum_t0)
              .count());
    }
    const uint64_t rounds = stats_.iterations - rounds_before;
    stratum_span.AddArg(TraceArg::Num("rules", stratum_plans.size()));
    stratum_span.AddArg(TraceArg::Num("rounds", rounds));
    stratum_span.AddArg(
        TraceArg::Num("inserted", stats_.facts_inserted - inserted_before));
    IDLOG_RETURN_NOT_OK(stratum_status);
    // The frame that leaves the stratum (and, after the last one,
    // completes the run), cut after the stratum's accounting.
    if (!incremental && checkpoint_hook_ != nullptr &&
        !stratum_plans.empty()) {
      FixpointFrame frame;
      frame.stratum = s + 1;
      frame.completed = s + 1 == strat_.num_strata;
      IDLOG_RETURN_NOT_OK(checkpoint_hook_(frame, {}));
    }
  }
  return Status::OK();
}

Result<const Relation*> EngineImpl::RelationOf(const std::string& pred) const {
  const Relation* rel = FullRelation(pred);
  if (rel == nullptr) {
    return Status::NotFound("no relation computed or stored for '" + pred +
                            "'");
  }
  return rel;
}

Result<bool> EngineImpl::VerifyModel() {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() and Evaluate() first");
  }
  // One round of every rule over the model, each judged against its own
  // model relation: the executor stages only heads the model lacks.
  RelationSlots slots = FillSlots();
  std::vector<RoundTask> tasks(plans_.size());
  for (size_t i = 0; i < plans_.size(); ++i) {
    tasks[i].plan = &plans_[i];
    tasks[i].head = slots.full[static_cast<size_t>(plans_[i].head)];
    if (tasks[i].head == nullptr) return false;
  }
  EvalContext ctx;
  ctx.use_indexes = use_indexes_;
  ctx.pool = pool_.get();
  IDLOG_RETURN_NOT_OK(RunRoundTasks(ctx, slots, &tasks));
  for (const RoundTask& task : tasks) {
    IDLOG_RETURN_NOT_OK(task.status);
    for (const RoundPart& part : task.parts) {
      if (!part.staged.empty()) return false;
    }
  }
  return true;
}

Result<std::string> EngineImpl::RenderExplain(bool analyze,
                                              bool json) const {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() the engine before EXPLAIN");
  }
  RewriteLog merged = rewrite_log_;
  merged.Append(pushdown_notes_);

  const std::vector<int> stratum_of = ClauseStrata();
  ExplainDoc doc;
  doc.use_indexes = use_indexes_;
  doc.rewrites = &merged;
  doc.rules.reserve(plans_.size());
  for (size_t i = 0; i < plans_.size(); ++i) {
    ExplainRule rule;
    rule.clause_index = plans_[i].clause_index;
    rule.stratum = stratum_of[i];
    rule.text = ClauseToString(program_->clauses[i], *database_->symbols());
    rule.plan = &plans_[i];
    doc.rules.push_back(std::move(rule));
  }
  if (analyze) {
    doc.analysis = &plan_analysis_;
    doc.totals = &stats_;
  }
  return json ? RenderExplainJson(doc) : RenderExplainText(doc);
}

std::vector<int> EngineImpl::ClauseStrata() const {
  std::vector<int> stratum_of(plans_.size(), -1);
  for (int s = 0; s < strat_.num_strata; ++s) {
    for (int clause_idx :
         strat_.clauses_by_stratum[static_cast<size_t>(s)]) {
      stratum_of[static_cast<size_t>(clause_idx)] = s;
    }
  }
  return stratum_of;
}

EvalProfile EngineImpl::profile() const {
  EvalProfile profile;
  profile.totals = stats_;
  profile.wall_ns = stats_.eval_wall_ns;
  // Evaluate() sizes the analysis to the plans; before that there is
  // nothing to attribute.
  if (plan_analysis_.rules.size() != plans_.size()) return profile;
  const std::vector<int> stratum_of = ClauseStrata();
  profile.rules.reserve(plans_.size());
  for (size_t i = 0; i < plans_.size(); ++i) {
    const RulePlan& plan = plans_[i];
    const RuleStepStats& counters = plan_analysis_.rules[i];
    RuleProfile& rp = profile.rules.emplace_back();
    rp.clause_index = plan.clause_index;
    rp.head_pred = plan.head_pred;
    rp.rule = ClauseToString(program_->clauses[i], *database_->symbols());
    rp.stratum = stratum_of[i];
    rp.self_ns = counters.self_ns;
    if (counters.steps.size() == plan.steps.size() + 1) {
      const EvalStats t = TotalsOf(plan, counters);
      rp.firings = t.rule_firings;
      rp.tuples_considered = t.tuples_considered;
      rp.facts_derived = t.facts_derived;
      rp.facts_inserted = t.facts_inserted;
    }
  }
  // One row per stratum the run reached, in the order it first ran them.
  // A stratum without clauses runs no round and keeps no log; only
  // stratum 0 can be one (every higher stratum holds the head its
  // number was raised for), and a run that entered any stratum passed
  // it.
  if (strat_.num_strata > 0 && strat_.clauses_by_stratum[0].empty() &&
      stats_.strata_evaluated > 0) {
    profile.strata.push_back(StratumProfile{0, 0, 0, 0});
  }
  for (const StratumRoundStats& log : plan_analysis_.strata) {
    StratumProfile& row = profile.strata.emplace_back();
    row.index = log.stratum;
    if (log.stratum >= 0 && log.stratum < strat_.num_strata) {
      row.rules = strat_.clauses_by_stratum[static_cast<size_t>(log.stratum)]
                      .size();
    }
    row.rounds = log.new_facts_per_round.size();
    row.wall_ns = log.wall_ns;
  }
  return profile;
}

Result<std::string> EngineImpl::ExplainPlanText(bool analyze) const {
  return RenderExplain(analyze, /*json=*/false);
}

Result<std::string> EngineImpl::ExplainPlanJson(bool analyze) const {
  return RenderExplain(analyze, /*json=*/true);
}

Result<const Relation*> EngineImpl::IdRelationOf(
    const std::string& pred, const std::vector<int>& group) const {
  auto it = id_relations_.find(std::make_pair(pred, group));
  if (it == id_relations_.end()) {
    return Status::NotFound("ID-relation of '" + pred +
                            "' was not materialized in the last run");
  }
  return &it->second;
}

}  // namespace idlog
