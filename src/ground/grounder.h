#ifndef IDLOG_GROUND_GROUNDER_H_
#define IDLOG_GROUND_GROUNDER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/limits.h"
#include "common/status.h"
#include "storage/database.h"

namespace idlog {

/// A ground atom in flat form: predicate plus constant arguments.
struct GroundAtom {
  std::string predicate;
  Tuple args;

  bool operator<(const GroundAtom& o) const {
    if (predicate != o.predicate) return predicate < o.predicate;
    return args < o.args;
  }
  bool operator==(const GroundAtom& o) const {
    return predicate == o.predicate && args == o.args;
  }
};

/// One ground clause: disjunctive head (>= 1 atoms), positive body,
/// negative body. Built-ins are evaluated away during grounding.
struct GroundClause {
  std::vector<GroundAtom> head;
  std::vector<GroundAtom> positive;
  std::vector<GroundAtom> negative;
};

struct GroundProgram {
  std::vector<GroundClause> clauses;
  /// Every atom that can appear in a model: EDB facts + head atoms.
  std::set<GroundAtom> base;
};

/// Grounds `program` (DisjunctiveClause/DisjunctiveProgram are defined
/// in ast/ast.h; parse the surface syntax `a(X) | b(X) :- c(X).` with
/// ParseDisjunctiveProgram) against the active domain of `database` plus the
/// constants appearing in the program. Variable instantiation ranges
/// over the u-domain for sort-u positions and over the numeric
/// constants present for sort-i positions (so programs must be
/// range-restricted over finite data; built-ins are checked per
/// instantiation, not used as generators). Clauses whose body is
/// refuted by a built-in are dropped; satisfied built-ins disappear.
///
/// Resource governance: every instantiation checkpoints against the
/// governor (deadline, cancellation) and every emitted ground clause
/// charges its tuple/memory budgets (ResourceExhausted on overflow).
/// Without one, a local governor allows kDefaultMaxInstantiations
/// ground clauses.
constexpr uint64_t kDefaultMaxInstantiations = 1000000;
Result<GroundProgram> GroundDisjunctive(const DisjunctiveProgram& program,
                                        const Database& database,
                                        ResourceGovernor* governor = nullptr);

/// Convenience: converts a plain single-head Program (ordinary atoms,
/// negation, built-ins) into a DisjunctiveProgram.
Result<DisjunctiveProgram> DisjunctiveFromProgram(const Program& program);

}  // namespace idlog

#endif  // IDLOG_GROUND_GROUNDER_H_
