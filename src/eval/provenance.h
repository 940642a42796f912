#ifndef IDLOG_EVAL_PROVENANCE_H_
#define IDLOG_EVAL_PROVENANCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "common/value.h"

namespace idlog {

/// One premise used by a rule firing.
struct Premise {
  enum class Kind : uint8_t {
    kFact,      ///< Positive ordinary fact (EDB or derived).
    kIdFact,    ///< Tuple of a materialized ID-relation (a leaf: its
                ///< tid comes from the run's ID-function choice).
    kNegation,  ///< A fact whose absence was checked.
    kBuiltin,   ///< A satisfied built-in constraint.
  };
  Kind kind = Kind::kFact;
  std::string predicate;       ///< For kBuiltin: rendered text instead.
  std::vector<int> group;      ///< kIdFact only.
  Tuple tuple;                 ///< Empty for kBuiltin.
  std::string builtin_text;    ///< kBuiltin only.
};

/// The first recorded derivation of a fact: which clause fired, plus a
/// span into the store's shared premise arena. Resolve the span with
/// ProvenanceStore::premises().
struct Derivation {
  int clause_index = -1;
  uint32_t premise_begin = 0;
  uint32_t premise_count = 0;
};

/// Records the first derivation of every fact inserted during a run.
/// Facts present in the database and ID-relation tuples are leaves.
///
/// Layout: derivations live in an append-only arena (one node per
/// fact = clause index + premise span into a shared premise pool),
/// keyed by interned predicate id + tuple, so recording never copies
/// predicate strings per fact and iteration order is recording order —
/// which is what makes parallel-merge output byte-identical to a
/// serial run (see Absorb).
///
/// Not thread-safe; parallel workers record into private stores that
/// the coordinator absorbs in serial task order.
class ProvenanceStore {
 public:
  /// Dense id of a predicate interned by this store. The engine's
  /// SymbolTable interns only data constants, so the store keeps its
  /// own predicate interner.
  using PredId = uint32_t;
  static constexpr PredId kNoPred = UINT32_MAX;

  ProvenanceStore() = default;
  ProvenanceStore(const ProvenanceStore&) = delete;
  ProvenanceStore& operator=(const ProvenanceStore&) = delete;
  ProvenanceStore(ProvenanceStore&&) = default;
  ProvenanceStore& operator=(ProvenanceStore&&) = default;

  void Clear();

  /// Returns the id of `pred`, interning it if new.
  PredId InternPredicate(std::string_view pred);
  /// Returns the id of `pred` or kNoPred if it was never interned.
  PredId FindPredicate(std::string_view pred) const;
  /// Spelling of an interned predicate. `id` must be valid.
  const std::string& PredicateName(PredId id) const {
    return pred_names_[id];
  }
  /// Number of distinct predicates interned (stays O(#predicates)
  /// however many facts are recorded — the key holds an id, not a
  /// string copy).
  size_t num_interned_predicates() const { return pred_names_.size(); }

  /// Keeps only the first derivation per (pred, tuple). Returns the
  /// exact growth of approx_bytes() — node bytes plus any predicate
  /// interning (0 for a duplicate of an already-interned predicate) —
  /// so governor charges reconcile byte-for-byte with the store (the
  /// dbstats sum invariant).
  size_t Record(const std::string& pred, const Tuple& tuple,
                int clause_index, std::vector<Premise> premises);
  /// Id-keyed fast path: excludes interning (the caller interned the
  /// id itself and must account that growth via approx_bytes deltas).
  size_t Record(PredId pred, const Tuple& tuple, int clause_index,
                std::vector<Premise> premises);

  /// Returns the derivation or nullptr (leaf / unknown). The pointer
  /// is valid until the next Record/Absorb/Clear.
  const Derivation* Lookup(const std::string& pred,
                           const Tuple& tuple) const;
  const Derivation* Lookup(PredId pred, const Tuple& tuple) const;

  /// Premise span of a recorded derivation (premise_count entries).
  const Premise* premises(const Derivation& d) const {
    return premise_arena_.data() + d.premise_begin;
  }

  /// Adopts `other`'s derivations in `other`'s recording order,
  /// first-derivation-wins against what this store already holds.
  /// Absorbing per-task stores in serial task order therefore yields
  /// the exact store a serial run would have produced. Returns the
  /// exact growth of approx_bytes() (interning included); leaves
  /// `other` cleared.
  size_t Absorb(ProvenanceStore* other);

  size_t size() const { return nodes_.size(); }
  /// Total premises across all recorded derivations.
  size_t num_premises() const { return premise_arena_.size(); }
  /// Approximate retained bytes (arena + keys), for governor
  /// accounting and the provenance.bytes gauge.
  size_t approx_bytes() const { return bytes_; }

  /// Read-only view of one recorded derivation, in recording order
  /// (the snapshot writer iterates these; decode replays Record in
  /// the same order, so round-trips preserve the arena byte-for-byte).
  struct NodeView {
    PredId pred;
    const Tuple& tuple;
    int clause_index;
    const Premise* premises;
    uint32_t premise_count;
  };
  NodeView node(size_t i) const {
    const Node& n = nodes_[i];
    return NodeView{n.pred, n.tuple, n.deriv.clause_index,
                    premise_arena_.data() + n.deriv.premise_begin,
                    n.deriv.premise_count};
  }

 private:
  struct Node {
    Derivation deriv;
    PredId pred = kNoPred;
    Tuple tuple;
  };
  using Key = std::pair<PredId, Tuple>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return HashCombine(TupleHash{}(k.second),
                         static_cast<size_t>(k.first) * 0x9E3779B9u);
    }
  };

  std::vector<Node> nodes_;             ///< Append-only derivation arena.
  std::vector<Premise> premise_arena_;  ///< Concatenated premise spans.
  std::vector<std::string> pred_names_;
  std::unordered_map<std::string, PredId> pred_ids_;
  std::unordered_map<Key, uint32_t, KeyHash> index_;
  size_t bytes_ = 0;
};

/// Renders a derivation tree for `pred(tuple)` as indented text. Leaves
/// are annotated "[database fact]", "[tid choice]", "[absent]" or the
/// built-in constraint; repeated subtrees and depth overruns are
/// elided. Returns NotFound if the fact has no recorded derivation and
/// is not marked as a leaf by the caller's `is_leaf` predicate.
std::string ExplainFact(const ProvenanceStore& store,
                        const SymbolTable& symbols, const std::string& pred,
                        const Tuple& tuple,
                        const std::function<bool(const std::string&,
                                                 const Tuple&)>& is_leaf,
                        int max_depth = 32);

}  // namespace idlog

#endif  // IDLOG_EVAL_PROVENANCE_H_
