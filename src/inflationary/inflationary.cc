#include "inflationary/inflationary.h"

#include <algorithm>
#include <optional>
#include <random>

#include "eval/builtin_eval.h"
#include "obs/trace.h"

namespace idlog {

namespace {

/// The evolving instance: predicate name -> tuple set. Ordered
/// containers give a canonical form for memoization.
using State = std::map<std::string, std::set<Tuple>>;

State InitialState(const Database& database) {
  State state;
  for (const std::string& name : database.relation_names()) {
    const Relation* rel = *database.Get(name);
    auto& bucket = state[name];
    for (const Tuple& t : rel->tuples()) bucket.insert(t);
  }
  return state;
}

/// A fully instantiated clause firing: adds `adds`, removes `dels`.
struct Firing {
  std::vector<std::pair<std::string, Tuple>> adds;
  std::vector<std::pair<std::string, Tuple>> dels;
  int invented = 0;  ///< Number of fresh constants this firing needs.

  bool ChangesState(const State& state) const {
    for (const auto& [pred, t] : adds) {
      auto it = state.find(pred);
      if (it == state.end() || it->second.count(t) == 0) return true;
    }
    for (const auto& [pred, t] : dels) {
      auto it = state.find(pred);
      if (it != state.end() && it->second.count(t) > 0) return true;
    }
    return false;
  }

  bool operator<(const Firing& o) const {
    if (adds != o.adds) return adds < o.adds;
    return dels < o.dels;
  }
};

using Bindings = std::map<std::string, Value>;

/// Enumerates all satisfying ground substitutions of `body` against
/// `state`. Positive ordinary literals are matched first (in order),
/// then built-ins, then negations — programs whose builtins/negations
/// have variables unbound by positives are rejected.
class BodyMatcher {
 public:
  BodyMatcher(const std::vector<Literal>& body, const State& state)
      : state_(state) {
    for (const Literal& l : body) {
      if (l.atom.kind == AtomKind::kOrdinary && !l.negated) {
        positives_.push_back(&l);
      } else if (l.atom.kind == AtomKind::kBuiltin) {
        builtins_.push_back(&l);
      } else {
        negatives_.push_back(&l);
      }
    }
  }

  Status ForEachMatch(const std::function<Status(const Bindings&)>& fn) {
    Bindings bindings;
    return MatchPositive(0, &bindings, fn);
  }

 private:
  static bool UnifyAtom(const Atom& atom, const Tuple& t,
                        Bindings* bindings,
                        std::vector<std::string>* newly_bound) {
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& term = atom.terms[i];
      if (term.is_constant()) {
        if (term.value() != t[i]) return false;
        continue;
      }
      auto it = bindings->find(term.var_name());
      if (it != bindings->end()) {
        if (it->second != t[i]) return false;
      } else {
        bindings->emplace(term.var_name(), t[i]);
        newly_bound->push_back(term.var_name());
      }
    }
    return true;
  }

  Result<Value> Eval(const Term& term, const Bindings& bindings) const {
    if (term.is_constant()) return term.value();
    auto it = bindings.find(term.var_name());
    if (it == bindings.end()) {
      return Status::UnsafeProgram(
          "variable '" + term.var_name() +
          "' in a built-in or negation is not positively bound");
    }
    return it->second;
  }

  Status MatchPositive(size_t i, Bindings* bindings,
                       const std::function<Status(const Bindings&)>& fn) {
    if (i == positives_.size()) return CheckFilters(*bindings, fn);
    const Atom& atom = positives_[i]->atom;
    auto it = state_.find(atom.predicate);
    if (it == state_.end()) return Status::OK();
    for (const Tuple& t : it->second) {
      if (t.size() != atom.terms.size()) continue;
      std::vector<std::string> newly_bound;
      if (UnifyAtom(atom, t, bindings, &newly_bound)) {
        IDLOG_RETURN_NOT_OK(MatchPositive(i + 1, bindings, fn));
      }
      for (const std::string& v : newly_bound) bindings->erase(v);
    }
    return Status::OK();
  }

  Status CheckFilters(const Bindings& bindings,
                      const std::function<Status(const Bindings&)>& fn) {
    for (const Literal* lit : builtins_) {
      std::vector<Value> args;
      for (const Term& t : lit->atom.terms) {
        IDLOG_ASSIGN_OR_RETURN(Value v, Eval(t, bindings));
        args.push_back(v);
      }
      bool holds = BuiltinHolds(lit->atom.builtin, args);
      if (holds == lit->negated) return Status::OK();
    }
    for (const Literal* lit : negatives_) {
      if (lit->atom.kind != AtomKind::kOrdinary) {
        return Status::Unsupported(
            "inflationary programs support only ordinary and built-in "
            "literals");
      }
      Tuple t;
      for (const Term& term : lit->atom.terms) {
        IDLOG_ASSIGN_OR_RETURN(Value v, Eval(term, bindings));
        t.push_back(v);
      }
      auto it = state_.find(lit->atom.predicate);
      bool present = it != state_.end() && it->second.count(t) > 0;
      if (present) return Status::OK();  // Negation fails: no match.
    }
    return fn(bindings);
  }

  const State& state_;
  std::vector<const Literal*> positives_;
  std::vector<const Literal*> builtins_;
  std::vector<const Literal*> negatives_;
};

/// Cache of invented constants, keyed by (clause index, body binding,
/// head variable). Functional (Skolem-style) invention: re-firing the
/// same instantiation reuses its constants, so invention rules saturate
/// instead of inventing forever.
class InventionCache {
 public:
  InventionCache(SymbolTable* symbols, uint64_t budget)
      : symbols_(symbols), budget_(budget) {}

  Result<Value> Get(size_t clause_index, const Bindings& body_bindings,
                    const std::string& var) {
    std::string key = std::to_string(clause_index) + "|" + var;
    for (const auto& [name, value] : body_bindings) {
      key += "|" + name + "=" +
             (value.is_number() ? "i" + std::to_string(value.number())
                                : "u" + std::to_string(value.symbol()));
    }
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    if (cache_.size() >= budget_) {
      return Status::ResourceExhausted("invented-value budget exhausted");
    }
    Value fresh = Value::Symbol(
        symbols_->Intern("@new" + std::to_string(cache_.size())));
    cache_.emplace(std::move(key), fresh);
    return fresh;
  }

 private:
  SymbolTable* symbols_;
  uint64_t budget_;
  std::map<std::string, Value> cache_;
};

/// Builds the firing for one clause instantiation. Head variables
/// missing from `bindings` are invented (DL only) via the functional
/// invention cache.
Result<Firing> MakeFiring(const InfClause& clause, size_t clause_index,
                          const Bindings& bindings, InfLanguage language,
                          InventionCache* inventions) {
  Firing firing;
  Bindings extended = bindings;
  for (const Literal& h : clause.head) {
    if (h.atom.kind != AtomKind::kOrdinary) {
      return Status::InvalidArgument("head atoms must be ordinary");
    }
    Tuple t;
    for (const Term& term : h.atom.terms) {
      if (term.is_constant()) {
        t.push_back(term.value());
        continue;
      }
      auto it = extended.find(term.var_name());
      if (it != extended.end()) {
        t.push_back(it->second);
        continue;
      }
      if (language == InfLanguage::kNDatalog) {
        return Status::UnsafeProgram(
            "N-DATALOG head variable '" + term.var_name() +
            "' must be positively bound in the body");
      }
      if (h.negated) {
        return Status::UnsafeProgram(
            "invented values cannot appear under a negated head");
      }
      IDLOG_ASSIGN_OR_RETURN(
          Value fresh,
          inventions->Get(clause_index, bindings, term.var_name()));
      extended.emplace(term.var_name(), fresh);
      t.push_back(fresh);
      ++firing.invented;
    }
    if (h.negated) {
      if (language != InfLanguage::kNDatalog) {
        return Status::InvalidArgument(
            "negated heads are only valid in N-DATALOG");
      }
      firing.dels.emplace_back(h.atom.predicate, std::move(t));
    } else {
      firing.adds.emplace_back(h.atom.predicate, std::move(t));
    }
  }
  // N-DATALOG consistency: a head containing p(t) and not p(t) is
  // inconsistent and the instantiation cannot fire.
  for (const auto& add : firing.adds) {
    for (const auto& del : firing.dels) {
      if (add == del) {
        return Status::InvalidArgument("inconsistent head");
      }
    }
  }
  return firing;
}

void Apply(const Firing& firing, State* state) {
  for (const auto& [pred, t] : firing.adds) (*state)[pred].insert(t);
  for (const auto& [pred, t] : firing.dels) {
    auto it = state->find(pred);
    if (it != state->end()) it->second.erase(t);
  }
}

/// All firings applicable in `state` that would change it.
Result<std::vector<Firing>> ApplicableFirings(const InfProgram& program,
                                              const State& state,
                                              InfLanguage language,
                                              InventionCache* inventions,
                                              ResourceGovernor* gov) {
  std::vector<Firing> firings;
  for (size_t ci = 0; ci < program.clauses.size(); ++ci) {
    const InfClause& clause = program.clauses[ci];
    BodyMatcher matcher(clause.body, state);
    Status st = matcher.ForEachMatch([&](const Bindings& b) -> Status {
      IDLOG_RETURN_NOT_OK(gov->CheckPoint());
      Result<Firing> firing =
          MakeFiring(clause, ci, b, language, inventions);
      if (!firing.ok()) {
        if (firing.status().code() == StatusCode::kInvalidArgument &&
            firing.status().message() == "inconsistent head") {
          return Status::OK();  // Skip inconsistent instantiations.
        }
        return firing.status();
      }
      if (firing->ChangesState(state)) {
        firings.push_back(std::move(*firing));
      }
      return Status::OK();
    });
    IDLOG_RETURN_NOT_OK(st);
  }
  return firings;
}

Result<Database> StateToDatabase(const State& state,
                                 const Database& original) {
  Database out(original.symbols());
  for (const auto& [pred, tuples] : state) {
    if (tuples.empty()) {
      // Preserve emptied relations with their original type if known.
      Result<const Relation*> rel = original.Get(pred);
      if (rel.ok()) {
        IDLOG_RETURN_NOT_OK(out.CreateRelation(pred, (*rel)->type()));
      }
      continue;
    }
    for (const Tuple& t : tuples) {
      IDLOG_RETURN_NOT_OK(out.AddTuple(pred, t));
    }
  }
  return out;
}

}  // namespace

Result<InfProgram> InfProgramFromProgram(const Program& program) {
  InfProgram out;
  for (const Clause& clause : program.clauses) {
    for (const Literal& lit : clause.body) {
      if (lit.atom.kind == AtomKind::kId ||
          lit.atom.kind == AtomKind::kChoice) {
        return Status::InvalidArgument(
            "ID-atoms and choice have no inflationary semantics");
      }
    }
    InfClause ic;
    ic.head.push_back(Literal::Pos(clause.head));
    ic.body = clause.body;
    out.clauses.push_back(std::move(ic));
  }
  return out;
}

Result<Database> EvaluateInflationary(const InfProgram& program,
                                      const Database& database,
                                      const InfOptions& options) {
  State state = InitialState(database);
  std::mt19937_64 rng(options.seed);
  InventionCache inventions(database.symbols(), options.max_invented);

  ResourceGovernor local;
  local.Arm(EvalLimits::IterationBudget(kDefaultMaxInflationarySteps));
  ResourceGovernor* gov =
      options.governor != nullptr ? options.governor : &local;
  gov->set_scope("inflationary evaluation");
  TraceSpan span(gov->trace_sink(), "inflationary evaluation",
                 "inflationary");
  span.AddArg(TraceArg::Num("clauses", program.clauses.size()));
  uint64_t steps = 0;

  while (true) {
    ++steps;
    span.AddArg(TraceArg::Num("steps", steps));
    IDLOG_RETURN_NOT_OK(gov->OnIteration());
    IDLOG_ASSIGN_OR_RETURN(std::vector<Firing> firings,
                           ApplicableFirings(program, state,
                                             options.language, &inventions,
                                             gov));
    if (firings.empty()) return StateToDatabase(state, database);

    if (options.mode == InfMode::kDeterministic) {
      if (options.language == InfLanguage::kNDatalog) {
        return Status::Unsupported(
            "deterministic mode is implemented for DL programs only");
      }
      for (const Firing& f : firings) {
        IDLOG_RETURN_NOT_OK(
            gov->OnDerived(f.adds.size(), f.adds.size() * 64));
        Apply(f, &state);
      }
    } else {
      std::uniform_int_distribution<size_t> dist(0, firings.size() - 1);
      const Firing& chosen = firings[dist(rng)];
      IDLOG_RETURN_NOT_OK(
          gov->OnDerived(chosen.adds.size(), chosen.adds.size() * 64));
      Apply(chosen, &state);
    }
  }
}

Result<AnswerSet> EnumerateInflationaryAnswers(const InfProgram& program,
                                               const Database& database,
                                               const std::string& query_pred,
                                               InfLanguage language,
                                               ResourceGovernor* governor) {
  AnswerSet result;
  std::set<State> visited;
  std::vector<State> frontier = {InitialState(database)};
  InventionCache inventions(database.symbols(), /*budget=*/10000);

  // One "tuple" per distinct visited state.
  ResourceGovernor local;
  local.Arm(EvalLimits::TupleBudget(kDefaultMaxInflationaryStates));
  ResourceGovernor* gov = governor != nullptr ? governor : &local;
  gov->set_scope("inflationary enumeration");
  TraceSpan span(gov->trace_sink(), "inflationary enumeration",
                 "inflationary");
  span.AddArg(TraceArg::Str("query", query_pred));

  while (!frontier.empty()) {
    span.AddArg(TraceArg::Num("states_visited", result.assignments_tried));
    span.AddArg(TraceArg::Num("distinct_answers", result.answers.size()));
    State state = std::move(frontier.back());
    frontier.pop_back();
    if (!visited.insert(state).second) continue;
    uint64_t state_bytes = 0;
    for (const auto& [pred, tuples] : state) {
      state_bytes += pred.size() + tuples.size() * 64;
    }
    IDLOG_RETURN_NOT_OK(gov->OnDerived(1, state_bytes));
    ++result.assignments_tried;

    IDLOG_ASSIGN_OR_RETURN(
        std::vector<Firing> firings,
        ApplicableFirings(program, state, language, &inventions, gov));
    if (firings.empty()) {
      auto it = state.find(query_pred);
      std::vector<Tuple> answer;
      if (it != state.end()) {
        answer.assign(it->second.begin(), it->second.end());
      }
      result.answers.insert(std::move(answer));
      continue;
    }
    for (const Firing& f : firings) {
      State next = state;
      Apply(f, &next);
      if (visited.count(next) == 0) frontier.push_back(std::move(next));
    }
  }
  return result;
}

}  // namespace idlog
