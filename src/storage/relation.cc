#include "storage/relation.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "common/failpoint.h"

namespace idlog {

namespace {

/// The smallest non-empty table: 8 slots (64 bytes).
constexpr int kMinTableBits = 3;

/// The upper 32 bits of the tuple's hash after a Fibonacci multiply: a
/// slot's tag, whose top bits are its home slot.
uint32_t TagOf(const Tuple& t) {
  const uint64_t h = static_cast<uint64_t>(TupleHash()(t));
  return static_cast<uint32_t>((h * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

Relation::Relation(const Relation& o)
    : type_(o.type_), rows_(o.rows_), table_(o.table_),
      version_(o.version_), clear_generation_(o.clear_generation_) {}

Relation& Relation::operator=(const Relation& o) {
  if (this != &o) *this = Relation(o);
  return *this;
}

size_t Relation::Home(uint32_t tag) const {
  return tag >> (32 - std::countr_zero(table_.size()));
}

size_t Relation::Find(const Tuple& t, uint32_t tag) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = Home(tag);; i = (i + 1) & mask) {
    const Slot& slot = table_[i];
    if (slot.row1 == 0) return i;
    if (slot.tag == tag && rows_[slot.row1 - 1] == t) return i;
  }
}

void Relation::Grow() {
  const size_t capacity =
      table_.empty() ? size_t{1} << kMinTableBits : 2 * table_.size();
  if (capacity > 2 * kMaxRows) {
    throw std::length_error("Relation: more than 2^31 rows");
  }
  const std::vector<Slot> old =
      std::exchange(table_, std::vector<Slot>(capacity));
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.row1 == 0) continue;
    size_t i = Home(slot.tag);
    while (table_[i].row1 != 0) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

bool Relation::Contains(const Tuple& t) const {
  return !table_.empty() && table_[Find(t, TagOf(t))].row1 != 0;
}

bool Relation::Insert(Tuple t) {
  if (t.size() != type_.size()) return false;
  const uint32_t tag = TagOf(t);
  size_t i = 0;
  if (!table_.empty()) {
    i = Find(t, tag);
    if (table_[i].row1 != 0) return false;
  }
  if ((rows_.size() + 1) * 2 > table_.size()) {
    Grow();
    i = Find(t, tag);
  }
  table_[i] = Slot{static_cast<uint32_t>(rows_.size() + 1), tag};
  rows_.push_back(std::move(t));
  ++version_;
  return true;
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
  if (table_.empty()) return false;
  size_t hole = Find(t, TagOf(t));
  if (table_[hole].row1 == 0) return false;
  // Swap-and-pop keeps erasure O(1); the order perturbation is
  // deterministic, so replayed and uninterrupted runs still agree.
  const size_t idx = table_[hole].row1 - 1;
  const size_t last = rows_.size() - 1;
  if (idx != last) {
    const Tuple& moved = rows_[last];
    table_[Find(moved, TagOf(moved))].row1 = static_cast<uint32_t>(idx + 1);
    rows_[idx] = std::move(rows_[last]);
  }
  rows_.pop_back();
  // Backward-shift deletion: walk the chain after the hole and move
  // back every slot whose home does not lie between the hole and it,
  // so each remaining slot stays reachable from its home.
  const size_t mask = table_.size() - 1;
  for (size_t j = (hole + 1) & mask; table_[j].row1 != 0;
       j = (j + 1) & mask) {
    if (((j - Home(table_[j].tag)) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = Slot();
  indexes_.clear();
  ++version_;
  ++clear_generation_;
  return true;
}

void Relation::Clear() {
  rows_.clear();
  table_ = std::vector<Slot>();
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
