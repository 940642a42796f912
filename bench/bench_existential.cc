// Experiment E2 (Section 4, Examples 6/8): the existential-argument
// optimization pipeline on the RBK88 reachability program
//
//   q(X) :- a(X, Y).   a(X, Y) :- p(X, Z), a(Z, Y).   a(X, Y) :- p(X, Y).
//
// Three variants are measured on random graphs:
//   original            — as written;
//   projected (RBK88)   — existential columns pushed out of the IDB;
//   ID-rewritten (IDLOG)— input literals with existential positions
//                         replaced by p[s](..., 0) (Definition 2).
// Reported: answer size, wall time, and tuples considered (the paper's
// "intermediate redundant tuples").
#include <chrono>
#include <cstdio>

#include "ast/printer.h"
#include "core/idlog_engine.h"
#include "opt/adornment.h"
#include "opt/id_rewrite.h"
#include "opt/projection_push.h"
#include "parser/parser.h"
#include "util.h"

namespace idlog {
namespace {

using Clock = std::chrono::steady_clock;

const char* kProgram =
    "q(X) :- a(X, Y)."
    "a(X, Y) :- p(X, Z), a(Z, Y)."
    "a(X, Y) :- p(X, Y).";

struct RunResult {
  size_t answer = 0;
  double ms = 0;
  uint64_t tuples = 0;
  EvalProfile profile;
};

std::vector<bench_util::LabeledProfile> g_profiles;

RunResult RunVariant(const std::string& program_text, int nodes, int edges,
                     uint64_t seed) {
  IdlogEngine engine;
  bench_util::MakeRandomGraph(&engine.database(), "p", nodes, edges, seed);
  Status st = engine.LoadProgramText(program_text);
  RunResult out;
  if (!st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return out;
  }
  auto t0 = Clock::now();
  auto q = engine.Query("q");
  out.ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  out.answer = q.ok() ? (*q)->size() : 0;
  out.tuples = engine.stats().tuples_considered;
  out.profile = engine.profile();
  return out;
}

void RunScale(int nodes, int edges, uint64_t seed) {
  SymbolTable s;
  auto parsed = ParseProgram(kProgram, &s);
  if (!parsed.ok()) return;

  // Variant 2: RBK88 projection only.
  ExistentialAnalysis analysis = DetectExistentialArguments(*parsed, "q");
  auto projected = PushProjections(*parsed, analysis);
  // Variant 3: full pipeline with the ID-literal rewrite.
  auto optimized = OptimizeForOutput(*parsed, "q");
  if (!projected.ok() || !optimized.ok()) return;

  RunResult original = RunVariant(kProgram, nodes, edges, seed);
  RunResult rbk = RunVariant(ProgramToString(projected->program, s), nodes,
                             edges, seed);
  RunResult idlog = RunVariant(ProgramToString(optimized->program, s),
                               nodes, edges, seed);
  const std::string scale =
      std::to_string(nodes) + "n" + std::to_string(edges) + "e";
  g_profiles.emplace_back(scale + ".original", original.profile);
  g_profiles.emplace_back(scale + ".rbk88", rbk.profile);
  g_profiles.emplace_back(scale + ".idlog", idlog.profile);

  auto fmt = [](double v) { return std::to_string(v).substr(0, 6); };
  bench_util::PrintRow(
      {std::to_string(nodes) + "/" + std::to_string(edges),
       std::to_string(original.answer), std::to_string(original.tuples),
       fmt(original.ms), std::to_string(rbk.tuples), fmt(rbk.ms),
       std::to_string(idlog.tuples), fmt(idlog.ms),
       original.tuples == 0
           ? "-"
           : fmt(static_cast<double>(original.tuples) /
                 static_cast<double>(idlog.tuples ? idlog.tuples : 1)) +
                 "x"});
}

}  // namespace
}  // namespace idlog

int main() {
  std::printf(
      "E2: existential-argument optimization (Examples 6 and 8)\n"
      "Paper claim: replacing existential positions by ID-literals "
      "greatly reduces intermediate redundant tuples.\n\n");
  idlog::bench_util::PrintHeader({"nodes/edges", "|q|", "orig tuples",
                                  "orig ms", "rbk88 tuples", "rbk88 ms",
                                  "idlog tuples", "idlog ms", "reduction"});
  for (auto [nodes, edges] :
       {std::pair<int, int>{20, 60}, {50, 200}, {100, 500}, {150, 1200},
        {200, 2500}}) {
    idlog::RunScale(nodes, edges, /*seed=*/nodes * 7 + edges);
  }
  std::printf(
      "\n'reduction' = original / ID-rewritten tuples considered.\n");
  idlog::bench_util::WriteBenchMetrics("existential", idlog::g_profiles);
  return 0;
}
