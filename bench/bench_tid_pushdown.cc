// Experiment E9 (footnotes 6/7): the tid-bound pushdown. The paper
// notes that a condition like `N < 2` on the tid "can be used to
// generate an optimization information which ensures that only two
// tuples of the relation emp will be used in the evaluation". This
// bench turns the engine's implementation of that remark on and off
// and reports materialized ID-tuples and wall time.
#include <chrono>
#include <cstdio>

#include "core/idlog_engine.h"
#include "util.h"

namespace idlog {
namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  size_t answer = 0;
  double ms = 0;
  uint64_t id_tuples = 0;
  EvalProfile profile;
};

std::vector<bench_util::LabeledProfile> g_profiles;

RunResult Run(const std::string& program, int depts, int per_dept,
              bool pushdown) {
  IdlogEngine engine;
  bench_util::MakeEmpDatabase(&engine.database(), depts, per_dept);
  engine.SetTidBoundPushdown(pushdown);
  RunResult out;
  Status st = engine.LoadProgramText(program);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return out;
  }
  auto t0 = Clock::now();
  auto q = engine.Query("q");
  out.ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  out.answer = q.ok() ? (*q)->size() : 0;
  out.id_tuples = engine.stats().id_tuples_materialized;
  out.profile = engine.profile();
  return out;
}

void RunScale(const char* label, const std::string& program, int depts,
              int per_dept) {
  RunResult off = Run(program, depts, per_dept, false);
  RunResult on = Run(program, depts, per_dept, true);
  const std::string scale = std::string(label) + "." +
                            std::to_string(depts) + "x" +
                            std::to_string(per_dept);
  g_profiles.emplace_back(scale + ".off", off.profile);
  g_profiles.emplace_back(scale + ".on", on.profile);
  auto fmt = [](double v) { return std::to_string(v).substr(0, 6); };
  bench_util::PrintRow(
      {std::string(label) + " " + std::to_string(depts) + "x" +
           std::to_string(per_dept),
       std::to_string(on.answer), std::to_string(off.id_tuples),
       fmt(off.ms), std::to_string(on.id_tuples), fmt(on.ms),
       on.id_tuples == 0
           ? "-"
           : fmt(static_cast<double>(off.id_tuples) /
                 static_cast<double>(on.id_tuples)) + "x",
       on.answer == off.answer ? "yes" : "NO"});
}

}  // namespace
}  // namespace idlog

int main() {
  std::printf(
      "E9: tid-bound pushdown (footnotes 6/7) — materialize only the "
      "tids the program can observe\n\n");
  idlog::bench_util::PrintHeader({"workload", "|ans|", "off id-tup",
                                  "off ms", "on id-tup", "on ms",
                                  "tuple redux", "same ans"});
  const std::string witness = "q(D) :- emp[2](N, D, 0).";
  const std::string sample2 = "q(N) :- emp[2](N, D, T), T < 2.";
  const std::string unbounded = "q(N, T) :- emp[2](N, D, T).";
  for (auto [depts, per_dept] :
       {std::pair<int, int>{100, 100}, {100, 1000}, {1000, 100},
        {1000, 1000}}) {
    idlog::RunScale("witness", witness, depts, per_dept);
  }
  for (auto [depts, per_dept] :
       {std::pair<int, int>{100, 100}, {100, 1000}, {1000, 1000}}) {
    idlog::RunScale("sample2", sample2, depts, per_dept);
  }
  // Control: an unbounded use must not be truncated.
  idlog::RunScale("unbounded", unbounded, 100, 100);
  std::printf(
      "\n'unbounded' is the control: the analysis finds no bound, both "
      "modes materialize everything.\n");
  idlog::bench_util::WriteBenchMetrics("tid_pushdown", idlog::g_profiles);
  return 0;
}
