#include "eval/provenance.h"

#include <utility>

namespace idlog {

namespace {

size_t ApproxPremiseBytes(const Premise& p) {
  return sizeof(Premise) + p.predicate.size() + p.builtin_text.size() +
         p.group.size() * sizeof(int) + p.tuple.size() * sizeof(Value);
}

}  // namespace

void ProvenanceStore::Clear() {
  nodes_.clear();
  premise_arena_.clear();
  pred_names_.clear();
  pred_ids_.clear();
  index_.clear();
  bytes_ = 0;
}

ProvenanceStore::PredId ProvenanceStore::InternPredicate(
    std::string_view pred) {
  auto it = pred_ids_.find(std::string(pred));
  if (it != pred_ids_.end()) return it->second;
  PredId id = static_cast<PredId>(pred_names_.size());
  pred_names_.emplace_back(pred);
  pred_ids_.emplace(pred_names_.back(), id);
  bytes_ += 2 * pred.size() + sizeof(PredId);
  return id;
}

ProvenanceStore::PredId ProvenanceStore::FindPredicate(
    std::string_view pred) const {
  auto it = pred_ids_.find(std::string(pred));
  return it == pred_ids_.end() ? kNoPred : it->second;
}

size_t ProvenanceStore::Record(const std::string& pred, const Tuple& tuple,
                               int clause_index,
                               std::vector<Premise> premises) {
  // Delta over bytes_ rather than the id-keyed Record's return so a
  // first-time predicate's interning bytes are charged too.
  const size_t before = bytes_;
  PredId id = InternPredicate(pred);
  (void)Record(id, tuple, clause_index, std::move(premises));
  return bytes_ - before;
}

size_t ProvenanceStore::Record(PredId pred, const Tuple& tuple,
                               int clause_index,
                               std::vector<Premise> premises) {
  auto [it, inserted] = index_.try_emplace(
      Key(pred, tuple), static_cast<uint32_t>(nodes_.size()));
  if (!inserted) return 0;  // First derivation wins.
  size_t added = sizeof(Node) + 2 * tuple.size() * sizeof(Value);
  Node n;
  n.pred = pred;
  n.deriv.clause_index = clause_index;
  n.deriv.premise_begin = static_cast<uint32_t>(premise_arena_.size());
  n.deriv.premise_count = static_cast<uint32_t>(premises.size());
  n.tuple = tuple;
  for (Premise& p : premises) {
    added += ApproxPremiseBytes(p);
    premise_arena_.push_back(std::move(p));
  }
  nodes_.push_back(std::move(n));
  bytes_ += added;
  return added;
}

const Derivation* ProvenanceStore::Lookup(const std::string& pred,
                                          const Tuple& tuple) const {
  PredId id = FindPredicate(pred);
  if (id == kNoPred) return nullptr;
  return Lookup(id, tuple);
}

const Derivation* ProvenanceStore::Lookup(PredId pred,
                                          const Tuple& tuple) const {
  auto it = index_.find(Key(pred, tuple));
  return it == index_.end() ? nullptr : &nodes_[it->second].deriv;
}

size_t ProvenanceStore::Absorb(
    ProvenanceStore* other, const std::function<bool(const Tuple&)>& keep) {
  // Return the exact bytes_ delta (not the sum of Record returns) so
  // predicates interned here for the first time are charged as well.
  const size_t before = bytes_;
  // Memoized remap of the other store's predicate ids into ours.
  std::vector<PredId> remap(other->pred_names_.size(), kNoPred);
  for (Node& n : other->nodes_) {
    if (keep != nullptr && !keep(n.tuple)) continue;
    PredId& mapped = remap[n.pred];
    if (mapped == kNoPred) {
      mapped = InternPredicate(other->pred_names_[n.pred]);
    }
    std::vector<Premise> premises;
    premises.reserve(n.deriv.premise_count);
    for (uint32_t i = 0; i < n.deriv.premise_count; ++i) {
      premises.push_back(
          std::move(other->premise_arena_[n.deriv.premise_begin + i]));
    }
    (void)Record(mapped, n.tuple, n.deriv.clause_index,
                 std::move(premises));
  }
  other->Clear();
  return bytes_ - before;
}

}  // namespace idlog
