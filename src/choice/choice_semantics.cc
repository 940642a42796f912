#include "choice/choice_semantics.h"

#include <algorithm>
#include <map>
#include <random>

#include "analysis/classification.h"
#include "analysis/dependency_graph.h"
#include "eval/engine_impl.h"
#include "obs/trace.h"
#include "storage/tid_assigner.h"

namespace idlog {

namespace {

// The choice entry points accept a null governor, so the trace sink
// (which rides on the governor) needs a null-safe accessor.
TraceSink* TraceOf(ResourceGovernor* governor) {
  return governor != nullptr ? governor->trace_sink() : nullptr;
}

// The groups of one extChoice relation: row tuples bucketed by their
// domain-column values, in first-seen order.
std::vector<std::vector<Tuple>> GroupByDomain(const Relation& rel,
                                              size_t domain_arity) {
  std::vector<int> cols;
  for (size_t i = 0; i < domain_arity; ++i) cols.push_back(static_cast<int>(i));
  std::vector<std::vector<Tuple>> groups;
  std::map<Tuple, size_t> index;
  for (const Tuple& t : rel.tuples()) {
    Tuple key = ProjectTuple(t, cols);
    auto [it, inserted] = index.emplace(std::move(key), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(t);
  }
  return groups;
}

// Computes the P^C model and returns, per occurrence, its groups.
struct PcAnalysis {
  std::vector<ChoiceOccurrence> occurrences;
  Program pc;
  std::vector<RelationType> ext_types;
  std::vector<std::vector<std::vector<Tuple>>> groups_per_occurrence;
};

Result<PcAnalysis> AnalyzePc(const Program& program,
                             const Database& database,
                             ResourceGovernor* governor) {
  TraceSpan span(TraceOf(governor), "choice phase 1 (P^C analysis)",
                 "choice");
  PcAnalysis out;
  IDLOG_ASSIGN_OR_RETURN(out.occurrences, AnalyzeChoiceProgram(program));
  span.AddArg(TraceArg::Num("occurrences", out.occurrences.size()));
  out.pc = BuildPc(program, out.occurrences);

  // Phase 1 only needs the extChoice relations; evaluating the rest of
  // P^C against the *unrestricted* extChoice relations can explode
  // combinatorially (e.g. a k-way join over k choices). Restrict to the
  // clauses the choice-clauses depend on.
  Program restricted;
  restricted.predicates = out.pc.predicates;
  {
    DependencyGraph graph(out.pc);
    std::set<std::string> needed;
    for (const ChoiceOccurrence& occ : out.occurrences) {
      std::set<std::string> r = graph.ReachableFrom(occ.ext_pred);
      needed.insert(r.begin(), r.end());
    }
    for (const Clause& clause : out.pc.clauses) {
      if (needed.count(clause.head.predicate) > 0) {
        restricted.clauses.push_back(clause);
      }
    }
  }

  EngineImpl engine(&restricted, &database);
  engine.set_governor(governor);
  engine.set_trace_sink(TraceOf(governor));
  IDLOG_RETURN_NOT_OK(engine.Prepare());
  IdentityTidAssigner identity;
  IDLOG_RETURN_NOT_OK(engine.Evaluate(&identity));

  for (const ChoiceOccurrence& occ : out.occurrences) {
    IDLOG_ASSIGN_OR_RETURN(const Relation* rel,
                           engine.RelationOf(occ.ext_pred));
    out.ext_types.push_back(rel->type());
    out.groups_per_occurrence.push_back(
        GroupByDomain(*rel, occ.domain_vars.size()));
  }
  return out;
}

// Builds the final model given one selected row per group and returns a
// Database with the IDB relations (and the selections).
Result<Database> EvaluateWithSelections(
    const Program& program, const Database& database, const PcAnalysis& pc,
    const std::vector<std::vector<size_t>>& selection,
    ResourceGovernor* governor) {
  TraceSpan span(TraceOf(governor), "choice phase 2 (final model)",
                 "choice");
  Database working = database;
  for (size_t i = 0; i < pc.occurrences.size(); ++i) {
    const ChoiceOccurrence& occ = pc.occurrences[i];
    IDLOG_RETURN_NOT_OK(
        working.CreateRelation(occ.ext_pred, pc.ext_types[i]));
    const auto& groups = pc.groups_per_occurrence[i];
    for (size_t g = 0; g < groups.size(); ++g) {
      IDLOG_RETURN_NOT_OK(
          working.AddTuple(occ.ext_pred, groups[g][selection[i][g]]));
    }
  }

  Program final_program = BuildFinalProgram(program, pc.occurrences);
  EngineImpl engine(&final_program, &working);
  engine.set_governor(governor);
  engine.set_trace_sink(TraceOf(governor));
  IDLOG_RETURN_NOT_OK(engine.Prepare());
  IdentityTidAssigner identity;
  IDLOG_RETURN_NOT_OK(engine.Evaluate(&identity));

  Database result(database.symbols());
  PredicateClassification classes = ClassifyPredicates(final_program);
  for (const std::string& pred : classes.output) {
    IDLOG_ASSIGN_OR_RETURN(const Relation* rel, engine.RelationOf(pred));
    IDLOG_RETURN_NOT_OK(result.CreateRelation(pred, rel->type()));
    for (const Tuple& t : rel->tuples()) {
      IDLOG_RETURN_NOT_OK(result.AddTuple(pred, t));
    }
  }
  // Include the selections for inspection.
  for (size_t i = 0; i < pc.occurrences.size(); ++i) {
    const ChoiceOccurrence& occ = pc.occurrences[i];
    if (result.HasRelation(occ.ext_pred)) continue;
    IDLOG_RETURN_NOT_OK(
        result.CreateRelation(occ.ext_pred, pc.ext_types[i]));
    IDLOG_ASSIGN_OR_RETURN(const Relation* sel, working.Get(occ.ext_pred));
    for (const Tuple& t : sel->tuples()) {
      IDLOG_RETURN_NOT_OK(result.AddTuple(occ.ext_pred, t));
    }
  }
  return result;
}

}  // namespace

Result<Database> EvaluateChoiceProgram(const Program& program,
                                       const Database& database,
                                       const ChoicePolicy& policy,
                                       ResourceGovernor* governor) {
  IDLOG_ASSIGN_OR_RETURN(PcAnalysis pc,
                         AnalyzePc(program, database, governor));
  std::mt19937_64 rng(policy.seed);
  std::vector<std::vector<size_t>> selection(pc.occurrences.size());
  for (size_t i = 0; i < pc.occurrences.size(); ++i) {
    const auto& groups = pc.groups_per_occurrence[i];
    selection[i].resize(groups.size(), 0);
    if (policy.kind == ChoicePolicy::Kind::kRandom) {
      for (size_t g = 0; g < groups.size(); ++g) {
        std::uniform_int_distribution<size_t> dist(0, groups[g].size() - 1);
        selection[i][g] = dist(rng);
      }
    }
  }
  return EvaluateWithSelections(program, database, pc, selection, governor);
}

Result<AnswerSet> EnumerateChoiceAnswers(const Program& program,
                                         const Database& database,
                                         const std::string& query_pred,
                                         ResourceGovernor* governor) {
  // One "tuple" per evaluated selection. The inner fixpoints are only
  // governed when an external governor is supplied — the local budget
  // counts selections, not the tuples each model derives.
  ResourceGovernor local;
  local.Arm(EvalLimits::TupleBudget(kDefaultMaxChoiceModels));
  ResourceGovernor* gov = governor != nullptr ? governor : &local;
  gov->set_scope("choice enumeration");

  IDLOG_ASSIGN_OR_RETURN(PcAnalysis pc,
                         AnalyzePc(program, database, governor));

  // Flattened odometer over every group of every occurrence.
  std::vector<size_t> radix;
  for (const auto& groups : pc.groups_per_occurrence) {
    for (const auto& g : groups) radix.push_back(g.size());
  }
  std::vector<size_t> digits(radix.size(), 0);

  AnswerSet result;
  while (true) {
    // Each evaluated selection charges the tuple budget.
    IDLOG_RETURN_NOT_OK(gov->OnDerived(1, 0));
    // Unflatten digits into per-occurrence selections.
    std::vector<std::vector<size_t>> selection(pc.occurrences.size());
    size_t pos = 0;
    for (size_t i = 0; i < pc.occurrences.size(); ++i) {
      selection[i].assign(pc.groups_per_occurrence[i].size(), 0);
      for (size_t g = 0; g < selection[i].size(); ++g) {
        selection[i][g] = digits[pos++];
      }
    }
    IDLOG_ASSIGN_OR_RETURN(
        Database model,
        EvaluateWithSelections(program, database, pc, selection, governor));
    ++result.assignments_tried;
    Result<const Relation*> rel = model.Get(query_pred);
    if (rel.ok()) {
      result.answers.insert((*rel)->SortedTuples());
    } else {
      result.answers.insert({});
    }

    // Odometer increment; full wrap-around means we are done.
    bool advanced = false;
    for (size_t i = digits.size(); i > 0;) {
      --i;
      if (digits[i] + 1 < radix[i]) {
        ++digits[i];
        std::fill(digits.begin() + static_cast<long>(i) + 1, digits.end(),
                  size_t{0});
        advanced = true;
        break;
      }
      digits[i] = 0;
    }
    if (!advanced) return result;
  }
}

}  // namespace idlog
