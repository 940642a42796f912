#ifndef IDLOG_TESTS_TEST_UTIL_H_
#define IDLOG_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/symbol_table.h"
#include "common/value.h"
#include "core/idlog_engine.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace idlog {
namespace testing_util {

/// Builds a tuple from string fields: all-digit fields become numbers,
/// everything else is interned as a sort-u symbol.
Tuple T(SymbolTable* symbols, const std::vector<std::string>& fields);

/// Renders a relation as a sorted multi-line string for comparisons.
std::string Dump(const Relation& rel, const SymbolTable& symbols);

/// Returns the tuples of `rel` rendered "(a, b)" style, sorted.
std::vector<std::string> Rows(const Relation& rel,
                              const SymbolTable& symbols);

/// Randomized corpus generator shared by the parallel-equivalence and
/// checkpoint-resume tests: layered stratified programs with recursion,
/// negation and ID-literals (a compact cousin of fuzz_test's generator,
/// biased toward multi-rule strata so the parallel path engages).
class CorpusGenerator {
 public:
  explicit CorpusGenerator(uint64_t seed) : rng_(seed) {}

  /// Generates one program; queries() names the layer predicates.
  std::string Generate();

  const std::vector<std::string>& queries() const { return queries_; }

 private:
  std::string BaseRule(
      const std::string& head, int arity,
      const std::vector<std::pair<std::string, int>>& lower);

  std::mt19937_64 rng_;
  std::vector<std::string> queries_;
};

/// The matching EDB for corpus seed `seed`: rows over e0/2 and e1/1.
std::vector<std::vector<std::string>> CorpusEdb(uint64_t seed);

/// Expects the EXPLAIN ANALYZE counters of everything `engine` evaluated
/// so far (profiling on) to reconcile with its profile and its totals:
/// per rule, the emit step against the profile row; over all rules,
/// step 0's rows_in against rule_firings, the scan and negation steps'
/// rows_scanned against tuples_considered, the emit steps against
/// facts_derived and facts_inserted, and index probes; and the round
/// logs against iterations and facts_inserted.
void ExpectCountersReconcile(const IdlogEngine& engine);

}  // namespace testing_util
}  // namespace idlog

#endif  // IDLOG_TESTS_TEST_UTIL_H_
