#ifndef IDLOG_EVAL_EVAL_STATS_H_
#define IDLOG_EVAL_EVAL_STATS_H_

#include <cstdint>

namespace idlog {

/// Work counters collected during bottom-up evaluation. These back the
/// paper's Section 4 claim that ID-literal rewriting "greatly reduces
/// the number of intermediate redundant tuples": benches report
/// `tuples_considered` with and without the rewrite, independent of
/// machine speed.
struct EvalStats {
  uint64_t tuples_considered = 0;   ///< Candidate tuples enumerated in joins.
  uint64_t facts_derived = 0;       ///< Head instantiations produced.
  /// Of those, new (first derivation). In the stratified fixpoint a
  /// fact counts when its round commits it into the full relation —
  /// the one definition of "new" that is identical for every --jobs
  /// setting; a round that errors out counts nothing, matching its
  /// discarded staging.
  uint64_t facts_inserted = 0;
  uint64_t rule_firings = 0;        ///< Rule evaluation passes.
  uint64_t iterations = 0;          ///< Fixpoint rounds across strata.
  uint64_t strata_evaluated = 0;    ///< Strata entered by the last run.
  uint64_t id_groups_assigned = 0;  ///< Sub-relations given an ID-function.
  uint64_t id_tuples_materialized = 0;
  /// Index effectiveness. `index_probes` counts index Lookup calls — a
  /// logical counter. `index_builds` counts indexes built or extended
  /// when a round binds its tasks, and `index_cache_misses` the bound
  /// scans that found no current index (binding builds what it misses,
  /// so the two agree). All three are identical across --jobs
  /// settings; the last two are physical, like wall times:
  /// they depend on what earlier runs left built (EDB indexes outlive a
  /// run, a resumed run rebuilds its indexes).
  uint64_t index_probes = 0;
  uint64_t index_builds = 0;
  uint64_t index_cache_misses = 0;
  /// Wall time of the run, monotonic clock. Stamped by the engine when
  /// Evaluate() exits (on every path); inside a run it is 0 except in
  /// the governor's trip snapshot, which fills in the elapsed time at
  /// the moment the budget tripped.
  uint64_t eval_wall_ns = 0;
  /// Provenance store footprint, stamped by the engine at Evaluate()
  /// exit from the (merged) store. Logical quantities: the parallel
  /// merge reproduces the serial store exactly, so all three are
  /// identical across --jobs settings. Zero when provenance is off.
  uint64_t provenance_nodes = 0;     ///< Recorded derivations retained.
  uint64_t provenance_premises = 0;  ///< Total premises across them.
  uint64_t provenance_bytes = 0;     ///< Approximate retained bytes.

  void Reset() { *this = EvalStats(); }

  EvalStats& operator+=(const EvalStats& o) {
    tuples_considered += o.tuples_considered;
    facts_derived += o.facts_derived;
    facts_inserted += o.facts_inserted;
    rule_firings += o.rule_firings;
    iterations += o.iterations;
    strata_evaluated += o.strata_evaluated;
    id_groups_assigned += o.id_groups_assigned;
    id_tuples_materialized += o.id_tuples_materialized;
    index_probes += o.index_probes;
    index_builds += o.index_builds;
    index_cache_misses += o.index_cache_misses;
    eval_wall_ns += o.eval_wall_ns;
    provenance_nodes += o.provenance_nodes;
    provenance_premises += o.provenance_premises;
    provenance_bytes += o.provenance_bytes;
    return *this;
  }
};

}  // namespace idlog

#endif  // IDLOG_EVAL_EVAL_STATS_H_
