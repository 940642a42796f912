#ifndef IDLOG_STORAGE_RELATION_H_
#define IDLOG_STORAGE_RELATION_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/index.h"

namespace idlog {

/// A finite, typed, duplicate-free set of tuples, plus the column
/// indexes built over it.
///
/// Each tuple is stored once, as a row. Membership is a flat
/// open-addressing table of row ids hashed over the rows: a slot holds
/// a row id and 32 bits of the tuple's hash, which also pick its home
/// slot, so a probe reads the 8-byte slots and compares a row only on
/// a matching hash. The table is at most half full, probes are linear,
/// and an erased slot is filled by shifting its chain back, so erasure
/// leaves no tombstones behind. Row ids are 32 bits and home slots come
/// from the 32 hash bits, so a relation holds at most kMaxRows (2^31)
/// rows; one more throws std::length_error, as std::vector does past
/// max_size().
///
/// Iteration order is insertion order (with Erase moving the last row
/// into the vacated slot), which makes runs repeatable: the same
/// operation sequence always yields the same order, and the "canonical"
/// tid assignment (IdentityTidAssigner) enumerates group members in
/// this order. No semantic meaning attaches to it — IDLOG queries are
/// generic, so any order yields *a* legal ID-function.
///
/// The const members Contains, tuples, size and SortedTuples read only
/// the rows and the table, so any number of threads may call them
/// while no thread modifies the relation (IndexOn builds indexes, so it
/// is not among them).
class Relation {
 public:
  Relation() = default;
  explicit Relation(RelationType type) : type_(std::move(type)) {}

  /// A copy takes the rows and counters but not the indexes, which are
  /// a cache rebuilt on demand; copy assignment therefore drops the
  /// target's indexes. A move carries the indexes along with the rows,
  /// whose positions do not change.
  Relation(const Relation& o);
  Relation& operator=(const Relation& o);
  Relation(Relation&&) noexcept = default;
  Relation& operator=(Relation&&) noexcept = default;

  /// The most rows a relation holds.
  static constexpr size_t kMaxRows = size_t{1} << 31;

  /// Inserts `t`; returns true if the tuple was new, which then becomes
  /// the last row (moved, not copied). A tuple whose arity does not
  /// match the relation type is not inserted.
  bool Insert(Tuple t);

  /// Inserts with sort checking against the relation type.
  Status InsertChecked(Tuple t);

  bool Contains(const Tuple& t) const;

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Tuples in insertion order.
  const std::vector<Tuple>& tuples() const { return rows_; }

  const RelationType& type() const { return type_; }
  int arity() const { return static_cast<int>(type_.size()); }

  /// Monotonically increasing change counter (snapshots and db-stats
  /// report it).
  uint64_t version() const { return version_; }

  /// Churn counter bumped by every Clear() and Erase() (snapshots and
  /// db-stats report it).
  uint64_t clear_generation() const { return clear_generation_; }

  /// Removes one tuple; returns true if it was present. O(1): the last
  /// row moves into the erased slot (so erasure perturbs iteration
  /// order — deterministically, which is what replay equivalence
  /// needs). Drops every index, since a row changed position.
  bool Erase(const Tuple& t);

  /// Removes all tuples and drops every index.
  void Clear();

  /// The index on `cols`, built on first use and extended by the rows
  /// appended since its last use; `*built` (when given) says whether it
  /// did either. Rows only grow between the calls that drop every index
  /// (Clear, Erase, copy assignment), so the row count alone tells what
  /// is new. Not thread-safe: one thread builds while no other thread
  /// reads this relation's indexes.
  const ColumnIndex& IndexOn(const std::vector<int>& cols,
                             bool* built = nullptr) const;

  /// Frees every index; IndexOn rebuilds on demand.
  void DropIndexes() { indexes_.clear(); }

  /// The indexes built so far, by key columns (obs/dbstats).
  const std::map<std::vector<int>, ColumnIndex>& indexes() const {
    return indexes_;
  }

  /// Overwrites the change counters. Snapshot decode only: a relation
  /// rebuilt from its serialized rows must report the same logical
  /// version / clear generation as the live relation it was cut from,
  /// or recovered db-stats would disagree with an uninterrupted run.
  void RestoreCounters(uint64_t version, uint64_t clear_generation) {
    version_ = version;
    clear_generation_ = clear_generation;
  }

  /// Returns the tuples as a sorted vector (value order) — a canonical
  /// form for set comparison in tests.
  std::vector<Tuple> SortedTuples() const;

  /// Set equality regardless of insertion order.
  bool SetEquals(const Relation& other) const;

 private:
  /// A membership-table slot: the row it names plus one (0 = empty),
  /// and the upper 32 bits of the row's mixed hash (its tag).
  struct Slot {
    uint32_t row1 = 0;
    uint32_t tag = 0;
  };

  /// The home slot of `tag`: its top log2(capacity) bits.
  size_t Home(uint32_t tag) const;
  /// The slot holding `t`, or the empty slot that ends its probe chain.
  /// The table must not be empty.
  size_t Find(const Tuple& t, uint32_t tag) const;
  /// Doubles the table (from empty: its minimum size) and re-places
  /// every slot by its tag; no tuple is hashed again.
  void Grow();

  RelationType type_;
  std::vector<Tuple> rows_;
  /// Membership: a power-of-two number of slots, at most half full;
  /// empty while the relation has never held a row since Clear.
  std::vector<Slot> table_;
  uint64_t version_ = 0;
  uint64_t clear_generation_ = 0;
  /// Built by IndexOn through const references (the database and the
  /// stratum driver hand out const relations): a cache, not contents.
  mutable std::map<std::vector<int>, ColumnIndex> indexes_;
};

/// Projects `t` onto `cols` (0-based), preserving the column order given.
Tuple ProjectTuple(const Tuple& t, const std::vector<int>& cols);

}  // namespace idlog

#endif  // IDLOG_STORAGE_RELATION_H_
