// Experiment E4 (engine ablation): naive vs semi-naive fixpoint on
// transitive closure over chains, grids and random graphs. Backs the
// Section 3.2 remark that IDLOG's minimal/perfect-model semantics lets
// it reuse standard evaluation strategies unchanged — the ID mechanism
// adds no per-iteration cost.
//
// This binary also registers google-benchmark microbenches for the join
// kernel (run with --benchmark_filter=... to see them).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "core/idlog_engine.h"
#include "obs/flight_recorder.h"
#include "util.h"

namespace idlog {
namespace {

using Clock = std::chrono::steady_clock;

// Top-level core report: every section appends its headline numbers
// (wall ms + key counters) here; main() writes them as one
// idlog-bench-core-v1 document next to the per-section metrics files.
std::vector<bench_util::CoreMetric> g_core;

void Core(const std::string& section, const std::string& key,
          double value) {
  g_core.push_back({section, key, value});
}

const char* kTc =
    "path(X, Y) :- edge(X, Y)."
    "path(X, Z) :- path(X, Y), edge(Y, Z).";

struct RunResult {
  size_t answer = 0;
  double ms = 0;
  uint64_t tuples = 0;
  uint64_t iterations = 0;
};

enum class Shape { kChain, kRandom, kCycle };

void FillGraph(Database* db, Shape shape, int nodes, int edges,
               uint64_t seed) {
  switch (shape) {
    case Shape::kChain:
      bench_util::MakeChainGraph(db, "edge", nodes);
      break;
    case Shape::kRandom:
      bench_util::MakeRandomGraph(db, "edge", nodes, edges, seed);
      break;
    case Shape::kCycle:
      bench_util::MakeChainGraph(db, "edge", nodes);
      (void)db->AddRow("edge",
                       {"n" + std::to_string(nodes - 1), "n0"});
      break;
  }
}

RunResult RunTc(Shape shape, int nodes, int edges, bool seminaive,
                bool use_indexes = true) {
  IdlogEngine engine;
  FillGraph(&engine.database(), shape, nodes, edges, /*seed=*/13);
  RunResult out;
  Status st = engine.LoadProgramText(kTc);
  if (!st.ok()) return out;
  engine.SetSeminaive(seminaive);
  engine.SetUseIndexes(use_indexes);
  auto t0 = Clock::now();
  auto q = engine.Query("path");
  out.ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  out.answer = q.ok() ? (*q)->size() : 0;
  out.tuples = engine.stats().tuples_considered;
  out.iterations = engine.stats().iterations;
  return out;
}

void RunScale(const char* label, Shape shape, int nodes, int edges) {
  RunResult naive = RunTc(shape, nodes, edges, false);
  RunResult semi = RunTc(shape, nodes, edges, true);
  auto fmt = [](double v) { return std::to_string(v).substr(0, 7); };
  bench_util::PrintRow(
      {std::string(label) + " " + std::to_string(nodes),
       std::to_string(semi.answer), fmt(naive.ms),
       std::to_string(naive.tuples), fmt(semi.ms),
       std::to_string(semi.tuples),
       fmt(naive.ms / (semi.ms > 0 ? semi.ms : 1e-9)) + "x",
       std::to_string(semi.iterations)});
  std::string tag = std::string(label) + std::to_string(nodes);
  Core("E4_ablation", tag + ".answer", static_cast<double>(semi.answer));
  Core("E4_ablation", tag + ".naive_ms", naive.ms);
  Core("E4_ablation", tag + ".semi_ms", semi.ms);
  Core("E4_ablation", tag + ".naive_tuples",
       static_cast<double>(naive.tuples));
  Core("E4_ablation", tag + ".semi_tuples",
       static_cast<double>(semi.tuples));
  Core("E4_ablation", tag + ".rounds",
       static_cast<double>(semi.iterations));
}

// E4b: parallel stratum executor. A wide stratum — `kRules` independent
// join rules with one head — is the shape `--jobs N` fans out: each
// fixpoint round's (rule, delta) evaluations run concurrently and merge
// deterministically, so the answers and stats below must match serial
// exactly; only the wall time may differ.
constexpr int kParallelRules = 8;

struct ParallelRun {
  size_t answer = 0;
  double ms = 0;
  uint64_t tuples = 0;
  EvalProfile profile;
};

ParallelRun RunWideStratum(int jobs, int fanout) {
  IdlogEngine engine;
  std::mt19937_64 rng(29);
  std::string program;
  for (int k = 0; k < kParallelRules; ++k) {
    std::string e = "e" + std::to_string(k);
    std::string f = "f" + std::to_string(k);
    for (int i = 0; i < fanout; ++i) {
      (void)engine.AddRow(e, {"a" + std::to_string(rng() % (fanout / 4)),
                              "m" + std::to_string(rng() % 40)});
      (void)engine.AddRow(f, {"m" + std::to_string(rng() % 40),
                              "b" + std::to_string(rng() % (fanout / 4))});
    }
    program += "q(X, Y) :- " + e + "(X, Z), " + f + "(Z, Y).";
  }
  // A recursive rule keeps the stratum iterating, so later rounds
  // exercise the per-(rule, delta) task fan-out too.
  program += "q(X, Z) :- q(X, Y), e0(Y, Z).";

  ParallelRun out;
  engine.SetThreads(jobs);
  Status st = engine.LoadProgramText(program);
  if (!st.ok()) return out;
  auto t0 = Clock::now();
  auto q = engine.Query("q");
  out.ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  out.answer = q.ok() ? (*q)->size() : 0;
  out.tuples = engine.stats().tuples_considered;
  out.profile = engine.profile();
  return out;
}

void RunParallelSection() {
  std::printf(
      "\nE4b: parallel fixpoint — %d-rule stratum, --jobs 1 vs 4 "
      "(host has %u hardware threads)\n",
      kParallelRules, std::thread::hardware_concurrency());
  bench_util::PrintHeader({"fanout", "|q|", "jobs1 ms", "jobs4 ms",
                           "speedup", "tuples", "equal", "-"});
  std::vector<bench_util::LabeledProfile> profiles;
  for (int fanout : {400, 1200}) {
    ParallelRun serial = RunWideStratum(1, fanout);
    ParallelRun parallel = RunWideStratum(4, fanout);
    bool equal = serial.answer == parallel.answer &&
                 serial.tuples == parallel.tuples;
    auto fmt = [](double v) { return std::to_string(v).substr(0, 7); };
    bench_util::PrintRow(
        {std::to_string(fanout), std::to_string(serial.answer),
         fmt(serial.ms), fmt(parallel.ms),
         fmt(serial.ms / (parallel.ms > 0 ? parallel.ms : 1e-9)) + "x",
         std::to_string(serial.tuples), equal ? "yes" : "NO", "-"});
    profiles.emplace_back("jobs1_fanout" + std::to_string(fanout),
                          serial.profile);
    profiles.emplace_back("jobs4_fanout" + std::to_string(fanout),
                          parallel.profile);
    std::string tag = "fanout" + std::to_string(fanout);
    Core("E4b_parallel", tag + ".answer",
         static_cast<double>(serial.answer));
    Core("E4b_parallel", tag + ".jobs1_ms", serial.ms);
    Core("E4b_parallel", tag + ".jobs4_ms", parallel.ms);
    Core("E4b_parallel", tag + ".tuples",
         static_cast<double>(serial.tuples));
    Core("E4b_parallel", tag + ".equal", equal ? 1 : 0);
  }
  bench_util::WriteBenchMetrics("parallel", profiles);
}

// One timed semi-naive TC query (E8 times it with the flight recorder
// disarmed and armed).
double RunTcTimed(Shape shape, int nodes, int edges, size_t* answer) {
  IdlogEngine engine;
  FillGraph(&engine.database(), shape, nodes, edges, /*seed=*/13);
  if (!engine.LoadProgramText(kTc).ok()) return 0;
  auto t0 = Clock::now();
  auto q = engine.Query("path");
  double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  *answer = q.ok() ? (*q)->size() : 0;
  return ms;
}

// E6: provenance overhead. Recording the first derivation of every
// inserted fact costs one id-keyed hash insert per emit on the hot
// path; with provenance off the executor null-tests a single pointer,
// so the off path must stay at full speed (<10% target). Parallel runs
// record into per-task stores merged in task order, so --jobs 4 pays
// the same logical cost plus the merge.
double RunTcProvenance(Shape shape, int nodes, int edges, bool provenance,
                       int jobs, size_t* answer, uint64_t* prov_nodes) {
  IdlogEngine engine;
  FillGraph(&engine.database(), shape, nodes, edges, /*seed=*/13);
  engine.EnableProvenance(provenance);
  engine.SetThreads(jobs);
  if (!engine.LoadProgramText(kTc).ok()) return 0;
  auto t0 = Clock::now();
  auto q = engine.Query("path");
  double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  *answer = q.ok() ? (*q)->size() : 0;
  *prov_nodes = engine.stats().provenance_nodes;
  return ms;
}

EvalProfile ProfileTcProvenance(Shape shape, int nodes, int edges,
                                bool provenance, int jobs) {
  IdlogEngine engine;
  FillGraph(&engine.database(), shape, nodes, edges, /*seed=*/13);
  engine.EnableProvenance(provenance);
  engine.SetThreads(jobs);
  if (!engine.LoadProgramText(kTc).ok()) return {};
  (void)engine.Query("path");
  return engine.profile();
}

void RunProvenanceSection() {
  std::printf(
      "\nE6: provenance overhead — semi-naive TC, lineage recording off "
      "vs on, serial and --jobs 4 (best of 5, no profiling in the timed "
      "runs)\n");
  bench_util::PrintHeader({"graph", "jobs", "|path|", "off ms", "on ms",
                           "overhead", "prov nodes", "equal"});
  std::vector<bench_util::LabeledProfile> profiles;
  struct Config {
    const char* label;
    Shape shape;
    int nodes, edges;
  };
  for (const Config& c :
       {Config{"chain", Shape::kChain, 256, 0},
        Config{"random", Shape::kRandom, 200, 800}}) {
    for (int jobs : {1, 4}) {
      double off = 1e18, on = 1e18;
      size_t answer_off = 0, answer_on = 0;
      uint64_t nodes_off = 0, nodes_on = 0;
      for (int rep = 0; rep < 5; ++rep) {
        off = std::min(off, RunTcProvenance(c.shape, c.nodes, c.edges,
                                            false, jobs, &answer_off,
                                            &nodes_off));
        on = std::min(on, RunTcProvenance(c.shape, c.nodes, c.edges, true,
                                          jobs, &answer_on, &nodes_on));
      }
      double overhead = off > 0 ? (on - off) / off * 100.0 : 0;
      auto fmt = [](double v) { return std::to_string(v).substr(0, 7); };
      bench_util::PrintRow(
          {std::string(c.label) + " " + std::to_string(c.nodes),
           std::to_string(jobs), std::to_string(answer_off), fmt(off),
           fmt(on), fmt(overhead) + "%", std::to_string(nodes_on),
           answer_off == answer_on && nodes_off == 0 ? "yes" : "NO"});
      std::string tag = std::string(c.label) + std::to_string(c.nodes) +
                        ".jobs" + std::to_string(jobs);
      profiles.emplace_back("prov_off_" + tag,
                            ProfileTcProvenance(c.shape, c.nodes, c.edges,
                                                false, jobs));
      profiles.emplace_back("prov_on_" + tag,
                            ProfileTcProvenance(c.shape, c.nodes, c.edges,
                                                true, jobs));
      Core("E6_provenance", tag + ".answer",
           static_cast<double>(answer_off));
      Core("E6_provenance", tag + ".off_ms", off);
      Core("E6_provenance", tag + ".on_ms", on);
      Core("E6_provenance", tag + ".overhead_pct", overhead);
      Core("E6_provenance", tag + ".prov_nodes",
           static_cast<double>(nodes_on));
    }
  }
  bench_util::WriteBenchMetrics("provenance", profiles);
}

// E8: flight-recorder overhead. Every event site costs one relaxed
// atomic load when the recorder is disarmed (the default and the state
// every measurement elsewhere in this binary runs under); armed it
// pays a thread-local ring store per event. Both states are timed on
// the same TC workload, best of 7 — the armed delta bounds the
// disarmed-path cost from above, and the ≤2% acceptance target applies
// to the disarmed state the rest of the suite measures.
void RunFlightSection() {
  std::printf(
      "\nE8: flight-recorder overhead — semi-naive TC, recorder disarmed "
      "vs armed (best of 7, ring capacity 65536)\n");
  bench_util::PrintHeader({"graph", "|path|", "disarmed ms", "armed ms",
                           "overhead", "events", "equal", "-"});
  struct Config {
    const char* label;
    Shape shape;
    int nodes, edges;
  };
  for (const Config& c :
       {Config{"chain", Shape::kChain, 256, 0},
        Config{"random", Shape::kRandom, 200, 800}}) {
    double off = 1e18, on = 1e18;
    size_t answer_off = 0, answer_on = 0;
    uint64_t events = 0;
    for (int rep = 0; rep < 7; ++rep) {
      FlightRecorder::Instance().Disarm();
      off = std::min(off, RunTcTimed(c.shape, c.nodes, c.edges,
                                     &answer_off));
      FlightRecorder::Instance().Arm(1 << 16);
      on = std::min(on, RunTcTimed(c.shape, c.nodes, c.edges,
                                   &answer_on));
      events = FlightRecorder::Instance().total_recorded();
      FlightRecorder::Instance().Disarm();
    }
    double overhead = off > 0 ? (on - off) / off * 100.0 : 0;
    auto fmt = [](double v) { return std::to_string(v).substr(0, 7); };
    bench_util::PrintRow(
        {std::string(c.label) + " " + std::to_string(c.nodes),
         std::to_string(answer_off), fmt(off), fmt(on),
         fmt(overhead) + "%", std::to_string(events),
         answer_off == answer_on ? "yes" : "NO", "-"});
    std::string tag = std::string(c.label) + std::to_string(c.nodes);
    Core("E8_flight", tag + ".answer", static_cast<double>(answer_off));
    Core("E8_flight", tag + ".disarmed_ms", off);
    Core("E8_flight", tag + ".armed_ms", on);
    Core("E8_flight", tag + ".armed_overhead_pct", overhead);
    Core("E8_flight", tag + ".events_recorded",
         static_cast<double>(events));
  }
}

// Microbench: one full TC evaluation, semi-naive.
void BM_TransitiveClosureSeminaive(benchmark::State& state) {
  for (auto _ : state) {
    RunResult r = RunTc(Shape::kChain, static_cast<int>(state.range(0)), 0,
                        true);
    benchmark::DoNotOptimize(r.answer);
  }
}
BENCHMARK(BM_TransitiveClosureSeminaive)->Arg(32)->Arg(64)->Arg(128);

void BM_IdRelationMaterialization(benchmark::State& state) {
  IdlogEngine engine;
  bench_util::MakeEmpDatabase(&engine.database(),
                              static_cast<int>(state.range(0)), 50);
  (void)engine.LoadProgramText("one(N) :- emp[2](N, D, 0).");
  for (auto _ : state) {
    engine.InvalidateRun();
    auto q = engine.Query("one");
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_IdRelationMaterialization)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace idlog

int main(int argc, char** argv) {
  std::printf(
      "E4: engine ablation — naive vs semi-naive fixpoint on transitive "
      "closure\n\n");
  idlog::bench_util::PrintHeader({"graph", "|path|", "naive ms",
                                  "naive tup", "semi ms", "semi tup",
                                  "speedup", "rounds"});
  idlog::RunScale("chain", idlog::Shape::kChain, 64, 0);
  idlog::RunScale("chain", idlog::Shape::kChain, 128, 0);
  idlog::RunScale("chain", idlog::Shape::kChain, 256, 0);
  idlog::RunScale("cycle", idlog::Shape::kCycle, 64, 0);
  idlog::RunScale("cycle", idlog::Shape::kCycle, 128, 0);
  idlog::RunScale("random", idlog::Shape::kRandom, 100, 300);
  idlog::RunScale("random", idlog::Shape::kRandom, 200, 800);

  std::printf("\nIndex ablation (semi-naive, random graphs):\n");
  idlog::bench_util::PrintHeader({"graph", "|path|", "noindex ms",
                                  "noindex tup", "indexed ms",
                                  "indexed tup", "speedup", "-"});
  for (auto [nodes, edges] :
       {std::pair<int, int>{100, 300}, {200, 800}}) {
    idlog::RunResult scan =
        idlog::RunTc(idlog::Shape::kRandom, nodes, edges, true, false);
    idlog::RunResult indexed =
        idlog::RunTc(idlog::Shape::kRandom, nodes, edges, true, true);
    auto fmt = [](double v) { return std::to_string(v).substr(0, 7); };
    idlog::bench_util::PrintRow(
        {"random " + std::to_string(nodes),
         std::to_string(indexed.answer), fmt(scan.ms),
         std::to_string(scan.tuples), fmt(indexed.ms),
         std::to_string(indexed.tuples),
         fmt(scan.ms / (indexed.ms > 0 ? indexed.ms : 1e-9)) + "x", "-"});
    std::string tag = "random" + std::to_string(nodes);
    idlog::Core("E4_index", tag + ".answer",
                static_cast<double>(indexed.answer));
    idlog::Core("E4_index", tag + ".noindex_ms", scan.ms);
    idlog::Core("E4_index", tag + ".indexed_ms", indexed.ms);
    idlog::Core("E4_index", tag + ".noindex_tuples",
                static_cast<double>(scan.tuples));
    idlog::Core("E4_index", tag + ".indexed_tuples",
                static_cast<double>(indexed.tuples));
  }

  idlog::RunParallelSection();
  idlog::RunProvenanceSection();
  idlog::RunFlightSection();

  idlog::bench_util::WriteCoreReport(idlog::g_core);

  std::printf("\nGoogle-benchmark microbenches:\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
