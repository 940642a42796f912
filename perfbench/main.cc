// perfbench: runs one benchmark workload against the engine's public API
// and prints its metrics. Normally started through perfbench/run.py,
// which builds this binary first:
//
//   perfbench --workload tc_batch --seed 1 --seconds 25 --trace 0
//             --work-dir DIR --cli PATH/idlog --report FILE [--git-sha SHA]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --report receives the full
// report: stamps, every figure by name, problems and, in a traced run,
// the spans.
#include <sys/statfs.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(NDEBUG)
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

const char* BuildType() {
  if (!kOptimized) return "debug (not optimized)";
  return kAssertsOff ? "release" : "optimized with assertions";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<perfbench::Metric>& metrics,
                          const char* sep) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += sep;
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The file system holding `dir`, by statfs magic number.
std::string FileSystem(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --cli PATH "
               "--report FILE [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string report_path, git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--cli") {
      options.cli_path = value;
    } else if (arg == "--report") {
      report_path = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || options.work_dir.empty() ||
      options.cli_path.empty() || report_path.empty() ||
      !(options.seconds > 0)) {
    return Usage("missing a required flag");
  }

  perfbench::RunReport report;
  if (!perfbench::RunWorkload(options, &report)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!kOptimized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: not an optimized build; the report "
                 "is marked invalid\n");
  }

  const uint64_t failed = report.failed + report.wrong_answers;
  std::string result = std::string("{\"correct\": ") +
                       (report.correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": " + MetricsObject(report.metrics, " ") +
                       "}";

  std::string doc = "{\n  \"schema\": \"idlog-perfbench-v1\",\n";
  doc += "  \"stamps\": {\"git_sha\": " + Quote(git_sha) +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": " + Quote(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + Number(options.seconds) +
         ", \"trace\": " + (options.trace ? "true" : "false") +
         ", \"build_type\": " + Quote(BuildType()) +
         ", \"valid\": " + (kOptimized ? "true" : "false") +
         ", \"work_dir_filesystem\": " + Quote(FileSystem(options.work_dir)) +
         "},\n";
  doc += "  \"result\": " + result + ",\n";
  doc += "  \"details\": " + MetricsObject(report.details, "\n    ") + ",\n";
  doc += "  \"phase_sum\": {\"tolerance\": " +
         Number(perfbench::kPhaseSumTolerance) + ", \"ok\": " +
         (report.phase_sum_ok ? "true" : "false") + "},\n";
  doc += "  \"request_ms\": [";
  for (size_t i = 0; i < report.request_samples_ms.size(); ++i) {
    doc += (i > 0 ? ", " : "") + Number(report.request_samples_ms[i]);
  }
  doc += "],\n";
  doc += "  \"problems\": [";
  for (size_t i = 0; i < report.problems.size(); ++i) {
    doc += (i > 0 ? ", " : "") + Quote(report.problems[i]);
  }
  doc += "],\n  \"spans\": " +
         (report.spans_json.empty() ? std::string("[]") : report.spans_json) +
         "\n}\n";
  std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", report_path.c_str());
    return 1;
  }

  std::fprintf(stderr, "perfbench %s seed %llu (%s, %u hardware threads)\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), BuildType(),
               std::thread::hardware_concurrency());
  for (const auto* list : {&report.metrics, &report.details}) {
    for (const perfbench::Metric& m : *list) {
      std::fprintf(stderr, "  %-36s %14s %s\n", m.name.c_str(),
                   Number(m.value).c_str(), m.unit.c_str());
    }
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "  problem: %s\n", p.c_str());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
