#ifndef IDLOG_CORE_ANSWER_ENUMERATOR_H_
#define IDLOG_CORE_ANSWER_ENUMERATOR_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/limits.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/database.h"

namespace idlog {

struct EnumerateOptions {
  /// Abort with ResourceExhausted beyond this many tid assignments.
  /// Deprecated in favour of `governor`, which it is implemented on
  /// top of; kept so existing call sites keep their cap.
  uint64_t max_assignments = 1000000;
  bool seminaive = true;
  /// Shared resource governor (deadline, budgets, cancellation). When
  /// set it governs every inner evaluation too, so a Cancel() from
  /// another thread stops a running enumeration within one checkpoint
  /// interval. Not owned; null falls back to max_assignments only.
  ResourceGovernor* governor = nullptr;
};

/// The set of possible answers of a non-deterministic query: one entry
/// per distinct answer relation (tuples in sorted canonical order).
struct AnswerSet {
  std::set<std::vector<Tuple>> answers;
  uint64_t assignments_tried = 0;
  /// False when some ID-group was too large to enumerate: a group of
  /// n >= 21 tuples has n! > 2^64 permutations, its radix saturates to
  /// UINT64_MAX, and the odometer cannot walk past rank 0 for it — so
  /// `answers` covers only a slice of the choice tree instead of all of
  /// it. Check before treating `answers` as the complete extent.
  bool exhaustive = true;

  bool ContainsAnswer(std::vector<Tuple> tuples) const;
};

/// Exhaustively enumerates every answer of `query_pred` that `program`
/// can produce on `database` across *all* ID-function choices — the
/// full extent of the IDLOG query q(r) of Section 3.1. Explores the
/// choice tree depth-first: later ID-relations may depend on earlier
/// choices (their base relations are derived), so the tree can have
/// variable depth per branch.
///
/// Exponential in group sizes (each group of size n contributes n!
/// branches); intended for the small instances used to verify the
/// paper's possible-answer sets (Examples 2, 5, 7) and for property
/// tests, not for production queries.
///
/// Evaluation builds column indexes inside `database`'s relations, so
/// no other evaluation may read `database` concurrently.
Result<AnswerSet> EnumerateAnswers(const Program& program,
                                   const Database& database,
                                   const std::string& query_pred,
                                   const EnumerateOptions& options = {});

}  // namespace idlog

#endif  // IDLOG_CORE_ANSWER_ENUMERATOR_H_
