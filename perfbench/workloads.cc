#include "workloads.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/idlog_engine.h"
#include "inputs.h"
#include "opt/id_rewrite.h"
#include "parser/parser.h"
#include "spans.h"
#include "storage/csv.h"

namespace perfbench {
namespace {

using idlog::IdlogEngine;
using idlog::Status;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

bool WriteText(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

/// What the CLI's PrintRelation writes for `rel`.
std::string Render(const idlog::Relation& rel,
                   const idlog::SymbolTable& symbols) {
  std::string out;
  for (const idlog::Tuple& t : rel.SortedTuples()) {
    out += "  ";
    out += idlog::TupleToString(t, symbols);
    out += '\n';
  }
  out += "(" + std::to_string(rel.size()) + " tuples)\n";
  return out;
}

/// One `idlog run`-shaped query: which files, which program, how.
struct QuerySpec {
  const char* program = nullptr;
  std::vector<std::pair<std::string, std::string>> csvs;  ///< rel, path
  std::string output;
  bool optimize = false;  ///< OptimizeForOutput(·, output) before loading.
  int threads = 1;
  bool random_tids = false;
  uint64_t tid_seed = 0;
};

struct QueryOutcome {
  bool traced = false;
  int64_t start_ns = 0;
  int64_t wall_ns = 0;
  int64_t open_ns = 0;  ///< Everything before Run: csv, parse, opt, load.
  std::string rendered;
  idlog::EvalStats stats;
  uint64_t csv_rows = 0;
  int literals_rewritten = 0;
  // Traced requests only.
  double accounted_bytes = 0;
  double total_tuples = 0;
  double rule_self_ns = 0;
  double stratum_wall_ns = 0;
};

/// A commit of the update session.
struct CommitSample {
  int64_t start_ns = 0;
  int64_t ns = 0;
  bool retract = false;
  bool incremental = false;
  uint64_t facts_inserted = 0;
  bool traced = false;
};

/// A latency and the interval it was measured in, for HostRefAround.
struct Timed {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms = 0;
};

/// Collects the figures of one run and owns its span log.
class Bench {
 public:
  Bench(const RunOptions& options, RunReport* report)
      : options_(options), report_(report), log_(options.trace) {}

  bool Run() {
    const std::string& w = options_.workload;
    if (w == "tc_batch" || w == "tc_parallel") {
      TcWorkload(w == "tc_parallel" ? 4 : 1);
    } else if (w == "id_sampling") {
      IdSamplingWorkload();
    } else if (w == "update_session") {
      SessionWorkload();
    } else {
      return false;
    }
    Finish();
    return true;
  }

 private:
  // --- Bookkeeping. ------------------------------------------------------

  bool Check(const Status& st, const std::string& what) {
    ++report_->attempted;
    if (st.ok()) return true;
    ++report_->failed;
    Problem(what + ": " + st.ToString());
    return false;
  }
  void Wrong(const std::string& what) {
    ++report_->wrong_answers;
    Problem("wrong answer: " + what);
  }
  void Problem(const std::string& line) {
    if (report_->problems.size() < 20) report_->problems.push_back(line);
  }
  /// An output check: counts as one attempted call.
  void Expect(bool ok, const std::string& what) {
    ++report_->attempted;
    if (!ok) Wrong(what);
  }

  void StartClock() {
    deadline_ns_ = NowNs() + seconds_ns();
    next_setup_ns_ = NowNs() + seconds_ns() / kSetupReps;
  }
  int64_t seconds_ns() const {
    return static_cast<int64_t>(options_.seconds * 1e9);
  }
  bool TimeLeft() const { return NowNs() < deadline_ns_; }

  void Detail(const std::string& name, double value, const std::string& unit) {
    report_->details.push_back(Metric{name, value, unit});
  }
  void Out(const std::string& name, double value, const std::string& unit) {
    report_->metrics.push_back(Metric{name, value, unit});
  }

  std::string Path(const std::string& file) const {
    return options_.work_dir + "/" + file;
  }

  /// Set-up: input generation, reference answers and files written. It
  /// runs once before the first request and again, with the same seed
  /// and so the same bytes, at even intervals between requests until it
  /// has run kSetupReps times. Spreading the repetitions over the run
  /// keeps one slow moment of the host from setting the figure; setup_s
  /// is their median, scaled like the latencies to the host speed at
  /// which the reference takes kRefNominalMs.
  void Setup(std::function<void()> make) {
    setup_ = std::move(make);
    SetupRep();
  }
  void SetupRep() {
    Timed rep;
    rep.start_ns = NowNs();
    setup_();
    rep.end_ns = NowNs();
    rep.ms = Ms(rep.end_ns - rep.start_ns);
    setup_reps_.push_back(rep);
    SampleHostRef();
  }
  void BetweenRequests() {
    if (setup_reps_.size() < kSetupReps && NowNs() >= next_setup_ns_) {
      SetupRep();
      next_setup_ns_ += seconds_ns() / kSetupReps;
    }
  }
  /// Completes the set-up repetitions once the requests are done, and
  /// reads the peak RSS before any measurement outside the request loop.
  void EndRequests() {
    peak_rss_mb_ = PeakRssMb();
    SampleHostRef(/*force=*/true);
    while (setup_reps_.size() < kSetupReps) SetupRep();
    setup_ = nullptr;
  }

  bool Traced(int64_t request) const {
    return traced_requests_.count(request) > 0;
  }

  /// Storage bytes and profile totals of a traced request, read inside an
  /// obs-layer span since only traced requests pay for them.
  void CollectTraced(const IdlogEngine& engine, QueryOutcome* o) {
    LayerSpan span(&log_, "DbStats", "obs");
    idlog::StorageStats db = engine.DbStats();
    o->accounted_bytes = static_cast<double>(db.total_approx_bytes());
    o->total_tuples = static_cast<double>(db.total_tuples());
    for (const auto& r : engine.profile().rules) o->rule_self_ns += r.self_ns;
    for (const auto& s : engine.profile().strata) {
      o->stratum_wall_ns += s.wall_ns;
    }
  }

  /// Wraps the engine's events into the request's spans; the import
  /// itself is observability work, so it is a span of the obs layer.
  void ImportTrace(idlog::TraceSink* sink, int64_t sink_epoch_ns) {
    LayerSpan span(&log_, "import engine trace", "obs");
    log_.ImportEngineEvents(sink, sink_epoch_ns);
  }

  // --- The query pipeline shared by tc_* and id_sampling. ------------------

  QueryOutcome RunQuery(const QuerySpec& q, bool traced) {
    QueryOutcome out;
    out.traced = traced;
    const int64_t sink_epoch = NowNs();
    idlog::TraceSink sink;  // Outlives the engine.
    out.start_ns = NowNs();
    const int64_t request = log_.BeginRequest("query");
    if (traced) traced_requests_.insert(request);
    auto engine = std::make_unique<IdlogEngine>();
    engine->SetThreads(q.threads);
    if (traced) {
      engine->SetTraceSink(&sink);
      engine->EnableProfiling(true);
    }
    bool ok = true;
    {
      LayerSpan span(&log_, "LoadCsvRelation", "storage");
      for (const auto& [rel, path] : q.csvs) {
        ok = ok && Check(idlog::LoadCsvRelation(&engine->database(), rel, path),
                         "LoadCsvRelation " + rel);
        if (ok) out.csv_rows += (*engine->database().Get(rel))->size();
      }
      out.open_ns += span.Close();
    }
    idlog::Program program;
    if (ok) {
      LayerSpan span(&log_, "ParseProgram", "parser");
      auto parsed = idlog::ParseProgram(q.program, &engine->symbols());
      ok = Check(parsed.status(), "ParseProgram");
      if (ok) program = std::move(*parsed);
      out.open_ns += span.Close();
    }
    if (ok && q.optimize) {
      LayerSpan span(&log_, "OptimizeForOutput", "opt");
      auto optimized = idlog::OptimizeForOutput(program, q.output);
      ok = Check(optimized.status(), "OptimizeForOutput");
      if (ok) {
        out.literals_rewritten = optimized->literals_rewritten;
        program = std::move(optimized->program);
      }
      out.open_ns += span.Close();
    }
    if (ok) {
      LayerSpan span(&log_, "LoadProgram", "analysis");
      ok = Check(engine->LoadProgram(std::move(program)), "LoadProgram");
      out.open_ns += span.Close();
    }
    if (ok && q.random_tids) {
      engine->SetTidAssigner(
          std::make_unique<idlog::RandomTidAssigner>(q.tid_seed));
    }
    if (ok) {
      LayerSpan span(&log_, "Run", "eval");
      ok = Check(engine->Run(), "Run");
    }
    if (ok) {
      LayerSpan span(&log_, "render", "render");
      auto rel = engine->Query(q.output);
      ok = Check(rel.status(), "Query " + q.output);
      if (ok) out.rendered = Render(**rel, engine->symbols());
    }
    out.stats = engine->stats();
    if (traced && ok) CollectTraced(*engine, &out);
    if (traced) ImportTrace(&sink, sink_epoch);
    {
      LayerSpan span(&log_, "engine teardown", "storage");
      engine.reset();
    }
    out.wall_ns = log_.EndRequest();
    return out;
  }

  /// Run() alone at `threads`, outside the span log (exec.speedup).
  double RunOnlyMs(const QuerySpec& q, int threads, std::string* rendered) {
    IdlogEngine engine;
    engine.SetThreads(threads);
    for (const auto& [rel, path] : q.csvs) {
      Check(idlog::LoadCsvRelation(&engine.database(), rel, path),
            "LoadCsvRelation " + rel);
    }
    auto parsed = idlog::ParseProgram(q.program, &engine.symbols());
    if (!Check(parsed.status(), "ParseProgram")) return 0;
    idlog::Program program = std::move(*parsed);
    if (q.optimize) {
      auto optimized = idlog::OptimizeForOutput(program, q.output);
      if (!Check(optimized.status(), "OptimizeForOutput")) return 0;
      program = std::move(optimized->program);
    }
    if (!Check(engine.LoadProgram(std::move(program)), "LoadProgram")) return 0;
    if (q.random_tids) {
      engine.SetTidAssigner(
          std::make_unique<idlog::RandomTidAssigner>(q.tid_seed));
    }
    int64_t t0 = NowNs();
    if (!Check(engine.Run(), "Run")) return 0;
    double ms = Ms(NowNs() - t0);
    auto rel = engine.Query(q.output);
    if (Check(rel.status(), "Query") && rendered != nullptr) {
      *rendered = Render(**rel, engine.symbols());
    }
    return ms;
  }

  /// exec.speedup: median serial Run ÷ median Run at kThreads threads,
  /// on the workload's own inputs. Also checks that both thread counts
  /// render identical bytes.
  void MeasureSpeedup(const QuerySpec& q, int reps) {
    std::vector<double> serial, parallel;
    std::string serial_bytes, parallel_bytes;
    for (int i = 0; i < reps; ++i) {
      serial.push_back(RunOnlyMs(q, 1, &serial_bytes));
      parallel.push_back(RunOnlyMs(q, kThreads, &parallel_bytes));
      Expect(serial_bytes == parallel_bytes,
             "--jobs 1 and --jobs 4 render different bytes");
    }
    speedup_ = Ratio(Median(serial), Median(parallel));
  }

  /// How fast the shared host runs the benchmark right now: times a
  /// fixed computation that no engine change touches (hash-map inserts
  /// and lookups over a few MB, the kind of work the engine does most).
  /// Called before each request; samples at most every kRefEveryNs
  /// unless `force`. End-to-end latencies are reported in units of it
  /// (see HostRefAround), so a slow spell of the host, which stretches
  /// both, cancels out; the raw milliseconds stay in the report.
  void SampleHostRef(bool force = false) {
    if (!force && !ref_samples_.empty() &&
        NowNs() - ref_samples_.back().start_ns < kRefEveryNs) {
      return;
    }
    Timed sample;
    sample.start_ns = NowNs();
    std::unordered_map<uint64_t, uint64_t> map;
    Rng rng(42);
    uint64_t hits = 0;
    for (uint64_t i = 0; i < kRefOps; ++i) {
      map.emplace(rng.Below(kRefOps * 4 / 3), i);
    }
    for (uint64_t i = 0; i < kRefOps; ++i) {
      hits += map.count(rng.Below(kRefOps * 8 / 3));
    }
    ref_sink_ = hits + map.size();  // Keeps the work observable.
    sample.end_ns = NowNs();
    sample.ms = Ms(sample.end_ns - sample.start_ns);
    ref_samples_.push_back(sample);
  }

  /// The host reference around `t`: the median of the samples taken
  /// within kRefWindowNs of its interval, else the nearest sample.
  double HostRefAround(const Timed& t) const {
    std::vector<double> near;
    const Timed* nearest = nullptr;
    int64_t best = INT64_MAX;
    for (const Timed& s : ref_samples_) {
      int64_t gap = s.end_ns < t.start_ns   ? t.start_ns - s.end_ns
                    : s.start_ns > t.end_ns ? s.start_ns - t.end_ns
                                            : 0;
      if (gap <= kRefWindowNs) near.push_back(s.ms);
      if (gap < best) {
        best = gap;
        nearest = &s;
      }
    }
    if (near.empty()) return nearest != nullptr ? nearest->ms : 0;
    return Median(near);
  }

  /// Each latency in units of the host reference around it.
  std::vector<double> InRefs(const std::vector<Timed>& timed) const {
    std::vector<double> out;
    for (const Timed& t : timed) out.push_back(Ratio(t.ms, HostRefAround(t)));
    return out;
  }

  void RecordQuery(const QueryOutcome& o) {
    if (o.traced) {
      traced_wall_ms_.push_back(Ms(o.wall_ns));
      traced_outcomes_.push_back(o);
      traced_outcomes_.back().rendered.clear();
      return;
    }
    const int64_t end = o.start_ns + o.wall_ns;
    requests_.push_back(Timed{o.start_ns, end, Ms(o.wall_ns)});
    opens_.push_back(Timed{o.start_ns, end, Ms(o.open_ns)});
    facts_inserted_.push_back(static_cast<double>(o.stats.facts_inserted));
  }

  // --- tc_batch / tc_parallel. ---------------------------------------------

  void TcWorkload(int threads) {
    std::string expected;
    size_t expected_count = 0;
    Setup([&] {
      Rng rng(MixSeed(options_.seed, 1));
      std::vector<Edge> edges = RandomGraph(kTcNodes, kTcEdges, &rng);
      std::vector<Edge> closure = Closure(kTcNodes, edges);
      expected = RenderPairs(closure);
      expected_count = closure.size();
      WriteText(Path("edges.csv"), EdgesCsv(edges));
      WriteText(Path("tc.idl"), kTcProgram);
    });
    Detail("reference.path_facts", static_cast<double>(expected_count),
           "count");
    QuerySpec q;
    q.program = kTcProgram;
    q.csvs = {{"edge", Path("edges.csv")}};
    q.output = "path";
    q.threads = threads;

    StartClock();
    for (int i = 0; i < kMinTcQueries || TimeLeft(); ++i) {
      bool traced = options_.trace && i % 2 == 1;
      SampleHostRef();
      QueryOutcome o = RunQuery(q, traced);
      RecordQuery(o);
      BetweenRequests();
      Expect(o.rendered == expected, "path differs from the BFS closure");
    }
    EndRequests();
    if (threads == 1) CliParity(expected);
    if (options_.trace) MeasureSpeedup(q, 2);
  }

  /// Runs the built CLI on the same files; its stdout must be
  /// byte-identical to the in-process render.
  void CliParity(const std::string& expected) {
    std::string cmd = "'" + options_.cli_path + "' run '" + Path("tc.idl") +
                      "' --query path --csv 'edge=" + Path("edges.csv") + "'";
    std::string out;
    ++report_->attempted;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      ++report_->failed;
      Problem("cannot start the idlog CLI");
      return;
    }
    char buf[1 << 16];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
    int status = pclose(pipe);
    if (status != 0) {
      ++report_->failed;
      Problem("idlog run exited with status " + std::to_string(status));
      return;
    }
    if (out != expected) {
      Wrong("idlog run output differs from the in-process render");
    }
    cli_checked_ = true;
  }

  // --- id_sampling. --------------------------------------------------------

  void IdSamplingWorkload() {
    Company company;
    Setup([&] {
      Rng rng(MixSeed(options_.seed, 2));
      company = RandomCompany(kDepts, kMaxDeptSize, &rng);
      WriteText(Path("emp.csv"), EmpCsv(company));
      WriteText(Path("mgr.csv"), MgrCsv(company));
      WriteText(Path("company.idl"), kCompanyProgram);
    });
    Detail("reference.emp_rows", static_cast<double>(company.emps.size()),
           "count");
    QuerySpec q;
    q.program = kCompanyProgram;
    q.csvs = {{"emp", Path("emp.csv")}, {"mgr", Path("mgr.csv")}};
    q.output = "top";
    q.optimize = true;
    q.random_tids = true;

    StartClock();
    for (int i = 0; i < kMinIdQueries || TimeLeft(); ++i) {
      bool traced = options_.trace && i % 2 == 1;
      q.tid_seed = MixSeed(options_.seed, 1000 + static_cast<uint64_t>(i));
      SampleHostRef();
      QueryOutcome o = RunQuery(q, traced);
      RecordQuery(o);
      BetweenRequests();
      literals_rewritten_ = o.literals_rewritten;
      std::string why = CheckTop(company, o.rendered);
      Expect(why.empty(), "top: " + why);
    }
    EndRequests();
    if (options_.trace) MeasureSpeedup(q, 3);
  }

  // --- update_session. -----------------------------------------------------

  void SessionWorkload() {
    std::vector<Edge> base;
    Setup([&] {
      Rng rng(MixSeed(options_.seed, 3));
      base = RandomGraph(kSessionNodes, kSessionEdges, &rng);
      base_closure_ = Closure(kSessionNodes, base).size();
      WriteText(Path("edges.csv"), EdgesCsv(base));
      WriteText(Path("tc.idl"), kTcProgram);
    });
    Detail("reference.base_path_facts", static_cast<double>(base_closure_),
           "count");
    IdlogEngine::WalOptions wal_options;
    wal_options.group_commit_every = 1;
    wal_options.checkpoint_every_commits = 0;

    StartClock();
    for (int c = 0; c < kMinCycles || TimeLeft(); ++c) {
      SessionCycle(c, base, wal_options);
      BetweenRequests();
    }
    EndRequests();
    if (options_.trace) {
      QuerySpec q;
      q.program = kTcProgram;
      q.csvs = {{"edge", Path("edges.csv")}};
      q.output = "path";
      MeasureSpeedup(q, 3);
    }
  }

  void SessionCycle(int cycle, const std::vector<Edge>& base,
                    const IdlogEngine::WalOptions& wal_options) {
    const bool traced = options_.trace && cycle % 2 == 1;
    const std::string wal = Path("session-" + std::to_string(cycle) + ".wal");
    std::remove(wal.c_str());
    std::remove((wal + ".snap").c_str());

    // Open: fresh engine to a durable session ready for commits.
    SampleHostRef();
    int64_t sink_epoch = NowNs();
    idlog::TraceSink sink;
    auto engine = std::make_unique<IdlogEngine>();
    if (traced) {
      engine->SetTraceSink(&sink);
      engine->EnableProfiling(true);
    }
    const int64_t open_start = NowNs();
    int64_t request = log_.BeginRequest("open");
    if (traced) traced_requests_.insert(request);
    bool ok;
    {
      LayerSpan span(&log_, "LoadCsvRelation", "storage");
      ok = Check(idlog::LoadCsvRelation(&engine->database(), "edge",
                                        Path("edges.csv")),
                 "LoadCsvRelation edge");
    }
    idlog::Program program;
    if (ok) {
      LayerSpan span(&log_, "ParseProgram", "parser");
      auto parsed = idlog::ParseProgram(kTcProgram, &engine->symbols());
      ok = Check(parsed.status(), "ParseProgram");
      if (ok) program = std::move(*parsed);
    }
    if (ok) {
      LayerSpan span(&log_, "LoadProgram", "analysis");
      ok = Check(engine->LoadProgram(std::move(program)), "LoadProgram");
    }
    if (ok) {
      LayerSpan span(&log_, "Run", "eval");
      ok = Check(engine->Run(), "Run");
    }
    if (ok) {
      LayerSpan span(&log_, "AttachWal", "store");
      ok = Check(engine->AttachWal(wal, wal_options), "AttachWal");
    }
    if (traced && ok) {
      QueryOutcome o;
      o.traced = true;
      o.csv_rows = base.size();
      o.stats = engine->stats();
      CollectTraced(*engine, &o);
      traced_outcomes_.push_back(o);
    }
    if (traced) ImportTrace(&sink, sink_epoch);
    const int64_t open_ns = log_.EndRequest();
    if (!ok) return;
    if (!traced) {
      opens_.push_back(Timed{open_start, open_start + open_ns, Ms(open_ns)});
    }
    snapshot_bytes_.push_back(static_cast<double>(FileSize(wal + ".snap")));
    const uint64_t wal_start = FileSize(wal);
    {
      auto rel = engine->Query("path");
      Expect(rel.ok() && (*rel)->size() == base_closure_,
             "opened session's path differs from the BFS closure");
    }

    // The closed-loop transaction stream.
    std::vector<Edge> live = base;
    std::unordered_set<uint64_t> live_set;
    auto key = [](const Edge& e) {
      return static_cast<uint64_t>(e.first) * kSessionNodes + e.second;
    };
    for (const Edge& e : live) live_set.insert(key(e));
    Rng rng(MixSeed(options_.seed, 5000 + static_cast<uint64_t>(cycle)));
    for (int i = 0; i < kTxnsPerCycle; ++i) {
      const bool retract = i % 10 == 9;
      Edge e;
      if (retract) {
        size_t at = rng.Below(live.size());
        e = live[at];
        live[at] = live.back();
        live.pop_back();
        live_set.erase(key(e));
      } else {
        do {
          e = Edge(static_cast<int>(rng.Below(kSessionNodes)),
                   static_cast<int>(rng.Below(kSessionNodes)));
        } while (e.first == e.second || live_set.count(key(e)) > 0);
        live.push_back(e);
        live_set.insert(key(e));
      }
      idlog::Tuple t = {idlog::Value::Number(e.first),
                        idlog::Value::Number(e.second)};
      const uint64_t inserted_before = engine->stats().facts_inserted;
      CommitSample sample;
      SampleHostRef();
      sample.retract = retract;
      sample.traced = traced;
      sample.start_ns = NowNs();
      request = log_.BeginRequest("commit");
      if (traced) traced_requests_.insert(request);
      {
        LayerSpan span(&log_, "Begin+stage", "store");
        ok = Check(engine->Begin(), "Begin") &&
             Check(retract ? engine->Retract("edge", t)
                           : engine->Insert("edge", t),
                   retract ? "Retract" : "Insert");
      }
      if (ok) {
        LayerSpan span(&log_, "Commit", "store");
        ok = Check(engine->Commit(), "Commit");
      }
      if (traced) ImportTrace(&sink, sink_epoch);
      sample.ns = log_.EndRequest();
      if (!ok) return;
      sample.incremental = engine->last_commit_incremental();
      const uint64_t inserted = engine->stats().facts_inserted;
      sample.facts_inserted =
          sample.incremental ? inserted - inserted_before : inserted;
      commits_.push_back(sample);
    }
    wal_bytes_ += static_cast<double>(FileSize(wal) - wal_start);

    // Read the live answer, then check it against a BFS of the live edges.
    request = log_.BeginRequest("read");
    if (traced) traced_requests_.insert(request);
    std::string live_render;
    {
      LayerSpan span(&log_, "render", "render");
      auto rel = engine->Query("path");
      if (Check(rel.status(), "Query path")) {
        live_render = Render(**rel, engine->symbols());
      }
    }
    log_.EndRequest();
    Expect(live_render == RenderPairs(Closure(kSessionNodes, live)),
           "session path differs from the BFS closure of the live edges");
    engine.reset();  // Closes the log before recovery reopens it.

    // Recovery: a fresh engine rebuilds the session from disk.
    sink_epoch = NowNs();
    idlog::TraceSink rec_sink;
    auto rec = std::make_unique<IdlogEngine>();
    if (traced) rec->SetTraceSink(&rec_sink);
    request = log_.BeginRequest("recover");
    if (traced) traced_requests_.insert(request);
    int64_t recovery_ns = 0, prepare_ns = 0, replay_ns = 0;
    {
      LayerSpan span(&log_, "PrepareRecovery", "store");
      ok = Check(rec->PrepareRecovery(wal), "PrepareRecovery");
      prepare_ns = span.Close();
      recovery_ns += prepare_ns;
    }
    if (ok) {
      LayerSpan span(&log_, "ParseProgram", "parser");
      auto parsed = idlog::ParseProgram(kTcProgram, &rec->symbols());
      ok = Check(parsed.status(), "ParseProgram");
      if (ok) program = std::move(*parsed);
      recovery_ns += span.Close();
    }
    if (ok) {
      LayerSpan span(&log_, "LoadProgram", "analysis");
      ok = Check(rec->LoadProgram(std::move(program)), "LoadProgram");
      recovery_ns += span.Close();
    }
    if (ok) {
      LayerSpan span(&log_, "CompleteRecovery", "store");
      ok = Check(rec->CompleteRecovery(wal_options), "CompleteRecovery");
      replay_ns = span.Close();
      recovery_ns += replay_ns;
    }
    std::string recovered_render;
    if (ok) {
      LayerSpan span(&log_, "render", "render");
      auto rel = rec->Query("path");
      if (Check(rel.status(), "Query path")) {
        recovered_render = Render(**rel, rec->symbols());
      }
    }
    if (traced) ImportTrace(&rec_sink, sink_epoch);
    log_.EndRequest();
    rec.reset();
    if (!ok) return;
    Expect(recovered_render == live_render,
           "recovered path differs from the live session's");
    if (!traced) {
      recovery_s_.push_back(recovery_ns / 1e9);
      recovery_prepare_ms_.push_back(Ms(prepare_ns));
      recovery_replay_ms_.push_back(Ms(replay_ns));
    } else {
      replay_share_.push_back(Ratio(replay_ns, recovery_ns));
    }
    std::remove(wal.c_str());
    std::remove((wal + ".snap").c_str());
  }

  // --- Results. ------------------------------------------------------------

  /// Sum of durations of spans called `name`, per traced request.
  std::vector<double> TracedSpanMs(const std::string& name) const {
    std::map<int64_t, double> per_request;
    for (const Span& s : log_.spans()) {
      if (s.name == name && Traced(s.request)) {
        per_request[s.request] += Ms(s.end_ns - s.start_ns);
      }
    }
    std::vector<double> out;
    for (const auto& [id, ms] : per_request) out.push_back(ms);
    return out;
  }

  void Finish() {
    const double rss = peak_rss_mb_;
    const bool session = options_.workload == "update_session";
    // Requests: queries, or commits in the session.
    std::vector<double> insert_ms, retract_ms, inc_ms, recompute_ms;
    double incremental = 0;
    for (const CommitSample& c : commits_) {
      if (c.incremental) ++incremental;
      (c.incremental ? inc_ms : recompute_ms).push_back(Ms(c.ns));
      if (c.traced) {
        traced_wall_ms_.push_back(Ms(c.ns));
        continue;
      }
      requests_.push_back(Timed{c.start_ns, c.start_ns + c.ns, Ms(c.ns)});
      facts_inserted_.push_back(static_cast<double>(c.facts_inserted));
      (c.retract ? retract_ms : insert_ms).push_back(Ms(c.ns));
    }
    std::vector<double> request_ms, open_ms, ref_ms;
    for (const Timed& t : requests_) request_ms.push_back(t.ms);
    for (const Timed& t : opens_) open_ms.push_back(t.ms);
    for (const Timed& t : ref_samples_) ref_ms.push_back(t.ms);
    const double wall_ms = Sum(request_ms);
    const std::vector<double>& facts = facts_inserted_;
    report_->request_samples_ms = request_ms;

    // End-to-end figures (also kept in the report of a traced run).
    Detail("requests", static_cast<double>(request_ms.size()), "count");
    if (!session) {
      Detail("query_ms_p50", Median(request_ms), "ms");
      Detail("query_ms_p90", Quantile(request_ms, 0.9), "ms");
    } else {
      Detail("session_open_ms", Median(open_ms), "ms");
      Detail("insert_commit_ms_p50", Median(insert_ms), "ms");
      Detail("insert_commit_ms_p90", Quantile(insert_ms, 0.9), "ms");
      Detail("retract_commit_ms_p50", Median(retract_ms), "ms");
      Detail("recovery_s", Median(recovery_s_), "s");
      Detail("store.recovery_prepare_ms", Median(recovery_prepare_ms_), "ms");
      Detail("store.recovery_replay_ms", Median(recovery_replay_ms_), "ms");
      Detail("store.commit_incremental_ms_p50", Median(inc_ms), "ms");
      Detail("store.commit_recompute_ms_p50", Median(recompute_ms), "ms");
      Detail("commits", static_cast<double>(commits_.size()), "count");
    }
    Detail("error_rate",
           Ratio(static_cast<double>(report_->failed),
                 static_cast<double>(report_->attempted)),
           "ratio");
    Detail("wrong_answers", static_cast<double>(report_->wrong_answers),
           "count");
    if (options_.workload == "tc_batch") {
      Detail("cli_parity_checked", cli_checked_ ? 1 : 0, "bool");
    }

    Detail("request_ms_p50", Median(request_ms), "ms");
    Detail("request_ms_mean", Ratio(wall_ms, request_ms.size()), "ms");
    Detail("facts_per_s", Ratio(Sum(facts), wall_ms / 1e3), "facts/s");
    Detail("open_ms", Median(open_ms), "ms");
    std::vector<double> setup_ms;
    for (const Timed& t : setup_reps_) setup_ms.push_back(t.ms);
    Detail("setup_raw_s", Median(setup_ms) / 1e3, "s");
    Detail("host_ref_ms_p50", Median(ref_ms), "ms");
    Detail("host_ref_samples", static_cast<double>(ref_samples_.size()),
           "count");

    if (!options_.trace) {
      std::vector<double> setup_s;
      for (double refs : InRefs(setup_reps_)) {
        setup_s.push_back(refs * kRefNominalMs / 1e3);
      }
      Out("setup_s", Median(setup_s), "s");
      const std::vector<double> request_ref = InRefs(requests_);
      Out("request_ref_p50", Median(request_ref), "ref");
      Out("request_ref_mean", Ratio(Sum(request_ref), request_ref.size()),
          "ref");
      Out("facts_per_ref", Ratio(Sum(facts), Sum(request_ref)), "facts/ref");
      Out("open_ref", Median(InRefs(opens_)), "ref");
      Out("peak_rss_mb", rss, "MB");
      return;
    }

    // Per-layer figures, from the traced requests.
    std::vector<double> tuples, derived, inserted, rounds, probes, idtuples,
        accounted, per_fact;
    double rule_self = 0, stratum_wall = 0;
    for (const QueryOutcome& o : traced_outcomes_) {
      tuples.push_back(static_cast<double>(o.stats.tuples_considered));
      derived.push_back(static_cast<double>(o.stats.facts_derived));
      inserted.push_back(static_cast<double>(o.stats.facts_inserted));
      rounds.push_back(static_cast<double>(o.stats.iterations));
      probes.push_back(static_cast<double>(o.stats.index_probes));
      idtuples.push_back(static_cast<double>(o.stats.id_tuples_materialized));
      accounted.push_back(o.accounted_bytes);
      per_fact.push_back(Ratio(o.accounted_bytes, o.total_tuples));
      rule_self += o.rule_self_ns;
      stratum_wall += o.stratum_wall_ns;
    }
    const std::vector<double> run_ms = TracedSpanMs("Run");
    const std::vector<double> csv_ms = TracedSpanMs("LoadCsvRelation");
    double csv_rows = 0;
    for (const QueryOutcome& o : traced_outcomes_) csv_rows += o.csv_rows;
    const double accounted_max =
        accounted.empty() ? 0 : *std::max_element(accounted.begin(),
                                                  accounted.end());

    // Layer self times and the phase-sum check over traced requests.
    std::map<std::string, double> layer_ms;
    double traced_wall = 0, worst_unattributed = 0;
    size_t traced_requests = 0;
    for (const RequestBreakdown& b : log_.Breakdowns()) {
      if (!Traced(b.request)) continue;
      ++traced_requests;
      traced_wall += Ms(b.wall_ns);
      for (const auto& [layer, ns] : b.layer_self_ns) layer_ms[layer] += Ms(ns);
      worst_unattributed = std::max(
          worst_unattributed, Ratio(b.unattributed_ns, b.wall_ns));
    }
    report_->phase_sum_ok = worst_unattributed <= kPhaseSumTolerance;
    ++report_->attempted;
    if (!report_->phase_sum_ok) {
      ++report_->failed;
      Problem("per-layer self times miss " +
              std::to_string(worst_unattributed * 100) +
              "% of a request's wall time");
    }
    for (const auto& [layer, ms] : layer_ms) {
      Detail("layer." + layer + ".self_ms", ms, "ms");
      Detail("layer." + layer + ".share", Ratio(ms, traced_wall), "ratio");
    }
    Detail("layer.traced_requests", static_cast<double>(traced_requests),
           "count");
    Detail("layer.traced_wall_ms", traced_wall, "ms");
    report_->spans_json = log_.ToJson();

    Out("parser.parse_ms", Median(TracedSpanMs("ParseProgram")), "ms");
    Out("opt.optimize_share", Ratio(layer_ms["opt"], traced_wall), "ratio");
    Out("opt.literals_rewritten", literals_rewritten_, "count");
    Out("analysis.load_program_ms", Median(TracedSpanMs("LoadProgram")), "ms");
    Out("storage.csv_load_ms", Median(csv_ms), "ms");
    Out("storage.csv_ns_per_row", Ratio(Sum(csv_ms) * 1e6, csv_rows),
        "ns/row");
    Out("storage.accounted_mb", accounted_max / (1 << 20), "MB");
    Out("storage.bytes_per_fact", Median(per_fact), "B/fact");
    Out("storage.rss_over_accounted", Ratio(rss, accounted_max / (1 << 20)),
        "ratio");
    Out("eval.run_ms", Median(run_ms), "ms");
    Out("eval.tuples_considered", Median(tuples), "count");
    Out("eval.facts_derived", Median(derived), "count");
    Out("eval.facts_inserted", Median(inserted), "count");
    Out("eval.dedup_yield", Ratio(Median(inserted), Median(derived)), "ratio");
    Out("eval.ns_per_tuple", Ratio(Sum(run_ms) * 1e6, Sum(tuples)), "ns");
    Out("eval.rounds", Median(rounds), "count");
    Out("eval.index_probes", Median(probes), "count");
    Out("eval.id_tuples_materialized", Median(idtuples), "count");
    Out("eval.idrel_share",
        Ratio(Ms(log_.TotalNsWithPrefix("id-relation ")), Sum(run_ms)),
        "ratio");
    Out("eval.rule_self_share", Ratio(rule_self, stratum_wall), "ratio");
    Out("exec.speedup", speedup_, "ratio");
    Out("store.wal_bytes_per_commit",
        Ratio(wal_bytes_, static_cast<double>(commits_.size())), "B");
    Out("store.snapshot_bytes", Median(snapshot_bytes_), "B");
    Out("store.incremental_share",
        Ratio(incremental, static_cast<double>(commits_.size())), "ratio");
    Out("store.recompute_over_incremental",
        Ratio(Median(recompute_ms), Median(inc_ms)), "ratio");
    Out("store.replay_share", Median(replay_share_), "ratio");
    Out("render.ms", Median(TracedSpanMs("render")), "ms");
    Out("obs.trace_overhead_pct",
        (Ratio(Median(traced_wall_ms_), Median(request_ms)) - 1) * 100,
        "%");
    Out("obs.unattributed_pct", worst_unattributed * 100, "%");
    Detail("peak_rss_mb", rss, "MB");
  }

  static constexpr size_t kSetupReps = 9;
  static constexpr int kThreads = 4;
  static constexpr int kTcNodes = 400;
  static constexpr int kTcEdges = 1600;
  static constexpr int kMinTcQueries = 4;
  static constexpr int kDepts = 2000;
  static constexpr int kMaxDeptSize = 40;
  static constexpr int kMinIdQueries = 100;
  static constexpr int kSessionNodes = 200;
  static constexpr int kSessionEdges = 800;
  static constexpr int kTxnsPerCycle = 50;
  static constexpr int kMinCycles = 2;
  static constexpr uint64_t kRefOps = 60000;
  static constexpr int64_t kRefEveryNs = 200000000;
  static constexpr int64_t kRefWindowNs = 1500000000;
  static constexpr double kRefNominalMs = 7.0;

  const RunOptions& options_;
  RunReport* report_;
  SpanLog log_;
  int64_t deadline_ns_ = 0;
  std::set<int64_t> traced_requests_;

  std::vector<Timed> ref_samples_;
  std::vector<Timed> requests_, opens_;  ///< Untraced only.
  volatile uint64_t ref_sink_ = 0;
  std::function<void()> setup_;
  std::vector<Timed> setup_reps_;
  int64_t next_setup_ns_ = 0;
  std::vector<double> facts_inserted_;  ///< Per untraced request.
  std::vector<double> traced_wall_ms_;
  std::vector<QueryOutcome> traced_outcomes_;
  double peak_rss_mb_ = 0;
  int literals_rewritten_ = 0;
  double speedup_ = 0;
  bool cli_checked_ = false;

  size_t base_closure_ = 0;
  std::vector<CommitSample> commits_;
  std::vector<double> snapshot_bytes_, recovery_s_, replay_share_;
  std::vector<double> recovery_prepare_ms_, recovery_replay_ms_;
  double wal_bytes_ = 0;
};

}  // namespace

bool RunWorkload(const RunOptions& options, RunReport* report) {
  Bench bench(options, report);
  return bench.Run();
}

}  // namespace perfbench
