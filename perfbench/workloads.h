// The four benchmark workloads. Each runs closed-loop with one client,
// checks every answer against an engine-free reference, and returns its
// figures.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< Directory the run owns for its files.
  std::string cli_path;  ///< The built `idlog` CLI, for the parity check.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  uint64_t attempted = 0;      ///< Public calls made and checked.
  uint64_t failed = 0;         ///< Calls that returned a non-OK Status.
  uint64_t wrong_answers = 0;  ///< Outputs that failed a reference check.
  std::vector<std::string> problems;  ///< One line per failure.
  /// The figures printed on the result line: end-to-end metrics, or
  /// per-layer metrics in a traced run.
  std::vector<Metric> metrics;
  /// Every other figure, under the names the report file uses.
  std::vector<Metric> details;
  std::string spans_json;  ///< Traced runs: every span, as JSON.
  /// Untraced request latencies in the order they ran, in ms.
  std::vector<double> request_samples_ms;
  bool phase_sum_ok = true;

  bool correct() const { return failed == 0 && wrong_answers == 0; }
};

/// Sum of per-layer self times must match each traced request's wall
/// time within this share; the rest is time inside no layer call.
inline constexpr double kPhaseSumTolerance = 0.02;

/// Runs `options.workload`. Returns false for an unknown workload name.
bool RunWorkload(const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
