#ifndef IDLOG_BENCH_BENCH_UTIL_H_
#define IDLOG_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "storage/database.h"

namespace idlog {
namespace bench_util {

/// Fills `db` with an emp(Name, Dept) relation: `depts` departments of
/// `emps_per_dept` employees each. Names/departments are synthetic
/// symbols ("e<i>", "d<j>").
void MakeEmpDatabase(Database* db, int depts, int emps_per_dept);

/// Adds `edges` random directed edges over `nodes` vertices to relation
/// `name(From, To)` (self-loops allowed, duplicates collapse).
void MakeRandomGraph(Database* db, const std::string& name, int nodes,
                     int edges, uint64_t seed);

/// Adds a simple chain 0 -> 1 -> ... -> n-1 to `name(From, To)`.
void MakeChainGraph(Database* db, const std::string& name, int nodes);

/// Prints a table row of the form "| a | b | ... |" with fixed widths,
/// for the experiment tables in EXPERIMENTS.md.
void PrintRow(const std::vector<std::string>& cells);
void PrintHeader(const std::vector<std::string>& cells);

/// One labeled per-rule profile of a bench variant.
using LabeledProfile = std::pair<std::string, EvalProfile>;

/// Writes every labeled profile, flattened into one idlog-metrics-v1
/// report (keys prefixed "<label>."), to bench_logs/BENCH_<name>.json —
/// the same schema the CLI's --metrics-json emits, so per-rule
/// tuples_considered of each variant lands next to the printed tables.
/// Creates bench_logs/ if needed; warns on stderr and returns false on
/// I/O failure.
bool WriteBenchMetrics(const std::string& name,
                       const std::vector<LabeledProfile>& runs);

/// One scalar of the top-level core report: section (e.g.
/// "E8_flight"), key (e.g. "chain256.armed_ms"), numeric value.
struct CoreMetric {
  std::string section;
  std::string key;
  double value = 0;
};

/// Writes bench_logs/BENCH_core.json: an `idlog-bench-core-v1` document
/// with a `host` block (hardware_threads) and a `sections` object
/// grouping the metrics by section in first-appearance order, keys in
/// insertion order within a section. Wall times carry real jitter;
/// everything else (answers, tuple counts, equality bits) is
/// deterministic, which is what CI trend tooling diffs.
bool WriteCoreReport(const std::vector<CoreMetric>& metrics);

}  // namespace bench_util
}  // namespace idlog

#endif  // IDLOG_BENCH_BENCH_UTIL_H_
