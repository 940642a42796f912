#ifndef IDLOG_STORAGE_INDEX_H_
#define IDLOG_STORAGE_INDEX_H_

#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace idlog {

/// A hash index over a column subset of a relation's rows from
/// `first_row` on. Maps a key (the projection of a row onto `cols`) to
/// the positions holding it. The index keeps no pointer to the rows: its
/// owner hands them to Extend and drops the index whenever rows stop
/// being append-only, so the rows indexed so far are always a prefix of
/// the owner's current rows from `first_row` on.
class ColumnIndex {
 public:
  explicit ColumnIndex(std::vector<int> cols, size_t first_row = 0)
      : cols_(std::move(cols)), first_row_(first_row) {}

  /// Indexes the rows appended since the last call, i.e. positions
  /// [first_row + num_entries(), rows.size()).
  void Extend(const std::vector<Tuple>& rows);

  /// Returns row positions matching `key` (projected values in `cols`
  /// order), or nullptr if none.
  const std::vector<size_t>* Lookup(const Tuple& key) const;

  const std::vector<int>& cols() const { return cols_; }

  /// Storage accounting (obs/dbstats).
  size_t num_keys() const { return buckets_.size(); }
  /// One posting per indexed row.
  size_t num_entries() const { return indexed_rows_; }
  /// Approximate heap bytes of the bucket map: per key the projected
  /// key tuple plus hash-node and posting-vector overhead, plus 8 bytes
  /// per posting (a row position).
  uint64_t approx_bytes() const {
    return static_cast<uint64_t>(buckets_.size()) *
               (static_cast<uint64_t>(cols_.size()) * 16 + 80) +
           static_cast<uint64_t>(indexed_rows_) * 8;
  }

 private:
  std::vector<int> cols_;
  size_t first_row_ = 0;
  size_t indexed_rows_ = 0;
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> buckets_;
};

}  // namespace idlog

#endif  // IDLOG_STORAGE_INDEX_H_
