#ifndef IDLOG_CHOICE_CHOICE_SEMANTICS_H_
#define IDLOG_CHOICE_CHOICE_SEMANTICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "ast/ast.h"
#include "choice/choice_program.h"
#include "common/limits.h"
#include "common/status.h"
#include "core/answer_enumerator.h"
#include "storage/database.h"

namespace idlog {

/// How EvaluateChoiceProgram picks the functional subset of each
/// extChoice relation.
struct ChoicePolicy {
  enum class Kind { kFirst, kRandom };
  Kind kind = Kind::kFirst;
  uint64_t seed = 0;
};

/// One intended model of a DATALOG^C program under the KN88 semantics:
///  1. translate to P^C with extChoice predicates,
///  2. compute the (perfect) model of P^C,
///  3. per extChoice_i, select a functional subset w.r.t. X -> Y
///     (one row per distinct X value, chosen by `policy`),
///  4. recompute the model with the selections fixed as facts.
///
/// Returns a Database holding every IDB relation of the final model
/// (including the selected ext_choice_i relations, for inspection).
/// Fails if the program violates (C1)/(C2).
/// With `governor` set, both fixpoint phases run governed (deadline,
/// budgets, cancellation). Not owned; null means ungoverned.
/// Evaluation builds column indexes inside `database`'s relations, so
/// no other evaluation may read `database` concurrently (the same holds
/// for EnumerateChoiceAnswers).
Result<Database> EvaluateChoiceProgram(const Program& program,
                                       const Database& database,
                                       const ChoicePolicy& policy,
                                       ResourceGovernor* governor = nullptr);

/// Exhaustively enumerates the possible answers of `query_pred` over
/// all functional-subset selections. Exponential; for small instances
/// (tests, bench E5 ground truth). Each evaluated selection charges one
/// tuple to the governor, which also governs the inner fixpoints.
/// Without a governor, a local one allows kDefaultMaxChoiceModels
/// selections and the inner fixpoints run ungoverned.
constexpr uint64_t kDefaultMaxChoiceModels = 1000000;
Result<AnswerSet> EnumerateChoiceAnswers(const Program& program,
                                         const Database& database,
                                         const std::string& query_pred,
                                         ResourceGovernor* governor =
                                             nullptr);

}  // namespace idlog

#endif  // IDLOG_CHOICE_CHOICE_SEMANTICS_H_
