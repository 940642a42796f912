#include "storage/index.h"

#include <cstdio>

#include "obs/flight_recorder.h"
#include "storage/relation.h"

namespace idlog {

namespace {

/// Black-box breadcrumb for one physical index build or extension. The
/// label names the key columns; the payload carries the rows indexed
/// and distinct keys, like the index_builds counter it mirrors.
void RecordIndexBuildEvent(const ColumnIndex& index) {
  if (!FlightRecorder::Enabled()) return;
  char cols[sizeof(FlightEvent::label)];
  size_t n = 0;
  for (size_t i = 0; i < index.cols().size() && n + 4 < sizeof(cols); ++i) {
    n += static_cast<size_t>(std::snprintf(
        cols + n, sizeof(cols) - n, i == 0 ? "%d" : ",%d",
        index.cols()[i]));
  }
  cols[n < sizeof(cols) ? n : sizeof(cols) - 1] = '\0';
  FlightRecorder::Record(FlightEventKind::kIndexBuild, cols,
                         static_cast<int64_t>(index.num_entries()),
                         static_cast<int64_t>(index.num_keys()));
}

}  // namespace

void ColumnIndex::Extend(const std::vector<Tuple>& rows) {
  for (size_t i = first_row_ + indexed_rows_; i < rows.size(); ++i) {
    buckets_[ProjectTuple(rows[i], cols_)].push_back(i);
  }
  indexed_rows_ = rows.size() - first_row_;
  RecordIndexBuildEvent(*this);
}

const std::vector<size_t>* ColumnIndex::Lookup(const Tuple& key) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return nullptr;
  return &it->second;
}

}  // namespace idlog
