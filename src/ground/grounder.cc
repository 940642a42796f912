#include "ground/grounder.h"

#include <algorithm>

#include "eval/builtin_eval.h"
#include "obs/trace.h"

namespace idlog {

namespace {

// Collects the clause's variables in first-occurrence order.
std::vector<std::string> ClauseVariables(const DisjunctiveClause& clause) {
  std::vector<std::string> vars;
  std::set<std::string> seen;
  auto visit = [&](const Atom& atom) {
    for (const Term& t : atom.terms) {
      if (t.is_variable() && seen.insert(t.var_name()).second) {
        vars.push_back(t.var_name());
      }
    }
  };
  for (const Atom& a : clause.head) visit(a);
  for (const Literal& l : clause.body) visit(l.atom);
  return vars;
}

GroundAtom Instantiate(const Atom& atom,
                       const std::map<std::string, Value>& binding) {
  GroundAtom out;
  out.predicate = atom.predicate;
  for (const Term& t : atom.terms) {
    out.args.push_back(t.is_constant() ? t.value()
                                       : binding.at(t.var_name()));
  }
  return out;
}

}  // namespace

Result<DisjunctiveProgram> DisjunctiveFromProgram(const Program& program) {
  DisjunctiveProgram out;
  for (const Clause& clause : program.clauses) {
    for (const Literal& lit : clause.body) {
      if (lit.atom.kind == AtomKind::kId ||
          lit.atom.kind == AtomKind::kChoice) {
        return Status::InvalidArgument(
            "ID-atoms and choice are not part of the disjunctive/stable "
            "baselines");
      }
    }
    DisjunctiveClause dc;
    dc.head.push_back(clause.head);
    dc.body = clause.body;
    out.clauses.push_back(std::move(dc));
  }
  return out;
}

Result<GroundProgram> GroundDisjunctive(const DisjunctiveProgram& program,
                                        const Database& database,
                                        ResourceGovernor* governor) {
  ResourceGovernor local;
  local.Arm(EvalLimits::TupleBudget(kDefaultMaxInstantiations));
  ResourceGovernor* gov = governor != nullptr ? governor : &local;
  gov->set_scope("grounder");
  TraceSpan span(gov->trace_sink(), "ground program", "ground");
  span.AddArg(TraceArg::Num("clauses", program.clauses.size()));
  // Universe: u-domain symbols plus every numeric constant in data or
  // program (by value).
  std::vector<Value> u_values;
  for (SymbolId id : database.u_domain()) {
    u_values.push_back(Value::Symbol(id));
  }
  std::set<int64_t> numbers;
  for (const std::string& name : database.relation_names()) {
    const Relation* rel = *database.Get(name);
    for (const Tuple& t : rel->tuples()) {
      for (const Value& v : t) {
        if (v.is_number()) numbers.insert(v.number());
      }
    }
  }
  std::set<SymbolId> program_symbols;
  for (const DisjunctiveClause& clause : program.clauses) {
    auto visit = [&](const Atom& atom) {
      for (const Term& t : atom.terms) {
        if (t.is_constant()) {
          if (t.value().is_number()) {
            numbers.insert(t.value().number());
          } else if (program_symbols.insert(t.value().symbol()).second) {
            u_values.push_back(t.value());
          }
        }
      }
    };
    for (const Atom& a : clause.head) visit(a);
    for (const Literal& l : clause.body) visit(l.atom);
  }
  // Drop duplicates with the database domain.
  std::sort(u_values.begin(), u_values.end());
  u_values.erase(std::unique(u_values.begin(), u_values.end()),
                 u_values.end());
  std::vector<Value> universe = u_values;
  for (int64_t n : numbers) universe.push_back(Value::Number(n));
  span.AddArg(TraceArg::Num("universe", universe.size()));

  GroundProgram out;
  for (const std::string& name : database.relation_names()) {
    const Relation* rel = *database.Get(name);
    for (const Tuple& t : rel->tuples()) {
      GroundAtom atom{name, t};
      out.base.insert(atom);
      // EDB tuples become disjunction-free facts.
      GroundClause fact;
      fact.head.push_back(std::move(atom));
      out.clauses.push_back(std::move(fact));
    }
  }

  for (const DisjunctiveClause& clause : program.clauses) {
    std::vector<std::string> vars = ClauseVariables(clause);
    std::map<std::string, Value> binding;

    // Depth-first over variable assignments.
    std::vector<size_t> cursor(vars.size(), 0);
    size_t depth = 0;
    while (true) {
      IDLOG_RETURN_NOT_OK(gov->CheckPoint());
      if (depth == vars.size()) {
        IDLOG_RETURN_NOT_OK(gov->OnDerived(1, 0));
        // Evaluate built-ins; keep the instantiation if none refutes.
        bool alive = true;
        GroundClause ground;
        for (const Literal& lit : clause.body) {
          if (lit.atom.kind == AtomKind::kBuiltin) {
            std::vector<Value> args;
            for (const Term& t : lit.atom.terms) {
              args.push_back(t.is_constant() ? t.value()
                                             : binding.at(t.var_name()));
            }
            if (BuiltinHolds(lit.atom.builtin, args) == lit.negated) {
              alive = false;
              break;
            }
            continue;
          }
          GroundAtom atom = Instantiate(lit.atom, binding);
          if (lit.negated) {
            ground.negative.push_back(std::move(atom));
          } else {
            ground.positive.push_back(std::move(atom));
          }
        }
        if (alive) {
          for (const Atom& h : clause.head) {
            GroundAtom atom = Instantiate(h, binding);
            out.base.insert(atom);
            ground.head.push_back(std::move(atom));
          }
          size_t atoms = ground.head.size() + ground.positive.size() +
                         ground.negative.size();
          IDLOG_RETURN_NOT_OK(
              gov->OnDerived(0, atoms * ApproxTupleBytes(2)));
          out.clauses.push_back(std::move(ground));
        }
        if (vars.empty()) break;
        --depth;  // backtrack
        ++cursor[depth];
      } else if (cursor[depth] >= universe.size()) {
        if (depth == 0) break;
        cursor[depth] = 0;
        --depth;
        ++cursor[depth];
      } else {
        binding[vars[depth]] = universe[cursor[depth]];
        ++depth;
        if (depth < vars.size()) cursor[depth] = 0;
      }
    }
  }
  span.AddArg(TraceArg::Num("ground_clauses", out.clauses.size()));
  span.AddArg(TraceArg::Num("base_atoms", out.base.size()));
  return out;
}

}  // namespace idlog
