#include "storage/relation.h"

#include <algorithm>

#include "common/failpoint.h"

namespace idlog {

Relation::Relation(const Relation& o)
    : type_(o.type_), rows_(o.rows_), set_(o.set_), version_(o.version_),
      clear_generation_(o.clear_generation_) {}

Relation& Relation::operator=(const Relation& o) {
  if (this != &o) *this = Relation(o);
  return *this;
}

bool Relation::Insert(Tuple t) {
  if (t.size() != type_.size()) return false;
  auto [it, inserted] = set_.try_emplace(std::move(t), rows_.size());
  if (inserted) {
    rows_.push_back(it->first);
    ++version_;
  }
  return inserted;
}

Status Relation::InsertChecked(Tuple t) {
  IDLOG_FAILPOINT("storage.relation.insert");
  if (t.size() != type_.size()) {
    return Status::TypeError("tuple arity " + std::to_string(t.size()) +
                             " does not match relation arity " +
                             std::to_string(type_.size()));
  }
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].sort() != type_[i]) {
      return Status::TypeError("column " + std::to_string(i) +
                               " expects sort " + SortName(type_[i]));
    }
  }
  Insert(std::move(t));
  return Status::OK();
}

bool Relation::Erase(const Tuple& t) {
  auto it = set_.find(t);
  if (it == set_.end()) return false;
  // Swap-and-pop keeps erasure O(1); the order perturbation is
  // deterministic, so replayed and uninterrupted runs still agree.
  const size_t idx = it->second;
  const size_t last = rows_.size() - 1;
  if (idx != last) {
    rows_[idx] = std::move(rows_[last]);
    set_.find(rows_[idx])->second = idx;
  }
  rows_.pop_back();
  set_.erase(it);
  indexes_.clear();
  ++version_;
  ++clear_generation_;
  return true;
}

void Relation::Clear() {
  rows_.clear();
  set_.clear();
  indexes_.clear();
  ++version_;
  ++clear_generation_;
}

const ColumnIndex& Relation::IndexOn(const std::vector<int>& cols,
                                     bool* built) const {
  auto [it, created] = indexes_.try_emplace(cols, cols);
  ColumnIndex& index = it->second;
  const bool grew = index.num_entries() < rows_.size();
  if (grew) index.Extend(rows_);
  if (built != nullptr) *built = created || grew;
  return index;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out = rows_;
  std::sort(out.begin(), out.end());
  return out;
}

bool Relation::SetEquals(const Relation& other) const {
  if (size() != other.size()) return false;
  for (const Tuple& t : rows_) {
    if (!other.Contains(t)) return false;
  }
  return true;
}

Tuple ProjectTuple(const Tuple& t, const std::vector<int>& cols) {
  Tuple out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(t[static_cast<size_t>(c)]);
  return out;
}

}  // namespace idlog
