#include "eval/provenance.h"

#include <functional>
#include <set>
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

size_t ProvenanceStore::Absorb(ProvenanceStore* other) {
  // Return the exact bytes_ delta (not the sum of Record returns) so
  // predicates interned here for the first time are charged as well.
  const size_t before = bytes_;
  // Memoized remap of the other store's predicate ids into ours.
  std::vector<PredId> remap(other->pred_names_.size(), kNoPred);
  for (Node& n : other->nodes_) {
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

namespace {

void ExplainRec(const ProvenanceStore& store, const SymbolTable& symbols,
                const std::string& pred, const Tuple& tuple,
                const std::function<bool(const std::string&,
                                         const Tuple&)>& is_leaf,
                int depth, int max_depth,
                std::set<std::pair<std::string, Tuple>>* on_path,
                std::string* out) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  *out += indent + pred + TupleToString(tuple, symbols);

  const Derivation* d = store.Lookup(pred, tuple);
  if (d == nullptr) {
    *out += is_leaf(pred, tuple) ? "   [database fact]\n"
                                 : "   [underivable]\n";
    return;
  }
  auto key = std::make_pair(pred, tuple);
  if (on_path->count(key) > 0) {
    *out += "   [cycle — already being explained]\n";
    return;
  }
  if (depth >= max_depth) {
    *out += "   [... depth limit]\n";
    return;
  }
  *out += "   <= clause #" + std::to_string(d->clause_index) + "\n";
  on_path->insert(key);
  const Premise* premises = store.premises(*d);
  for (uint32_t pi = 0; pi < d->premise_count; ++pi) {
    const Premise& p = premises[pi];
    std::string child_indent(static_cast<size_t>(depth + 1) * 2, ' ');
    switch (p.kind) {
      case Premise::Kind::kFact:
        ExplainRec(store, symbols, p.predicate, p.tuple, is_leaf, depth + 1,
                   max_depth, on_path, out);
        break;
      case Premise::Kind::kIdFact: {
        *out += child_indent + p.predicate + "[";
        for (size_t i = 0; i < p.group.size(); ++i) {
          if (i > 0) *out += ",";
          *out += std::to_string(p.group[i] + 1);
        }
        *out += "]" + TupleToString(p.tuple, symbols) + "   [tid choice]\n";
        // The underlying tuple (without the tid) may itself be derived.
        Tuple base(p.tuple.begin(), p.tuple.end() - 1);
        if (store.Lookup(p.predicate, base) != nullptr) {
          ExplainRec(store, symbols, p.predicate, base, is_leaf, depth + 2,
                     max_depth, on_path, out);
        }
        break;
      }
      case Premise::Kind::kNegation:
        *out += child_indent + "not " + p.predicate +
                TupleToString(p.tuple, symbols) + "   [absent]\n";
        break;
      case Premise::Kind::kBuiltin:
        *out += child_indent + p.builtin_text + "   [built-in]\n";
        break;
    }
  }
  on_path->erase(key);
}

}  // namespace

std::string ExplainFact(const ProvenanceStore& store,
                        const SymbolTable& symbols, const std::string& pred,
                        const Tuple& tuple,
                        const std::function<bool(const std::string&,
                                                 const Tuple&)>& is_leaf,
                        int max_depth) {
  std::string out;
  std::set<std::pair<std::string, Tuple>> on_path;
  ExplainRec(store, symbols, pred, tuple, is_leaf, 0, max_depth, &on_path,
             &out);
  return out;
}

}  // namespace idlog
