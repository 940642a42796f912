// idlog — command-line front end for the IDLOG engine.
//
// Batch mode:
//   idlog run PROGRAM.idl --query PRED [--csv REL=FILE]... [--seed N]
//             [--enumerate] [--stats] [--naive] [--no-tid-pushdown]
//             [--jobs N]                (total evaluation threads, the
//                                        calling thread included —
//                                        --jobs 4 is four threads, not
//                                        four workers plus the caller;
//                                        0 = auto-detect the hardware,
//                                        1 = serial)
//             [--why "pred(c1, ...)"]   (bounded proof tree: WHY the
//                                        ground fact holds; implies
//                                        provenance recording)
//             [--why-not "pred(c1, ...)"] (WHY NOT report: per rule,
//                                        the first failing premise of
//                                        the absent ground fact)
//             [--why-json FILE]         (idlog-why-v1 JSON twin of
//                                        --why / --why-not, from the
//                                        same run; not written when
//                                        the explanation fails)
//             [--explain-plan]          (static EXPLAIN of every rule
//                                        plan; no evaluation, --query
//                                        optional)
//             [--explain-analyze]       (EXPLAIN ANALYZE: plan tree
//                                        with per-step runtime counters
//                                        after the query runs)
//             [--explain-json FILE]     (idlog-explain-v1 JSON; implies
//                                        --explain-analyze unless
//                                        --explain-plan is given)
//             [--timeout-ms N] [--max-tuples N] [--max-memory-mb N]
//             [--max-iterations N]      (resource governor budgets)
//             [--partial]               (keep partial results on a trip)
//             [--profile]               (per-rule/per-stratum table)
//             [--trace-out FILE]        (chrome://tracing JSON trace)
//             [--metrics-json FILE]     (flat idlog-metrics-v1 report)
//             [--checkpoint FILE]       (durable idlog-snap-v2 snapshot,
//                                        written atomically at round
//                                        boundaries and on trips)
//             [--checkpoint-every-rounds N]  (write cadence; default 1)
//             [--resume FILE]           (continue a checkpointed run;
//                                        carries database, assigner and
//                                        mode switches — contradicting
//                                        flags are usage errors)
//             [--fail-at SITE:N[:throw]] (deterministic fault injection:
//                                        fail the Nth execution of the
//                                        named site; repeatable, also
//                                        via IDLOG_FAIL_AT env var)
//             [--db-stats]              (per-relation storage statistics
//                                        table: tuples, churn, approx
//                                        bytes, index attribution)
//             [--db-stats-json FILE]    (idlog-dbstats-v1 JSON — logical
//                                        fields only, byte-identical
//                                        across --jobs; written on
//                                        every exit path)
//             [--flight-recorder FILE]  (idlog-flight-v1 black-box dump;
//                                        always written when the flag is
//                                        given. Without it the recorder
//                                        still runs and dumps to
//                                        idlog-flight.json on a failure
//                                        or governor trip)
//             [--flight-events N]       (flight-recorder ring capacity
//                                        per thread; default 256)
//             [--wal FILE]              (durable update session: fixpoint
//                                        once, base snapshot at FILE.snap,
//                                        write-ahead fact log at FILE)
//             [--update-script FILE]    (line-based update driver: begin /
//                                        insert p(c,...) / retract p(...)
//                                        / commit / abort / query PRED /
//                                        why p(c,...) / checkpoint; bare
//                                        insert/retract lines outside a
//                                        begin..commit block are one-op
//                                        transactions; '#' comments)
//             [--recover]               (crash recovery: adopt FILE.snap,
//                                        replay the WAL's committed tail,
//                                        then skip the already-durable
//                                        prefix of --update-script —
//                                        query/why/checkpoint lines inside
//                                        the skipped prefix are skipped
//                                        with it)
//             [--wal-group-commit N]    (fsync once per N commits; the
//                                        default 1 makes every commit
//                                        durable before it applies)
//             [--wal-checkpoint-every N] (auto snapshot + log rotation
//                                        every N commits; default 0 =
//                                        only explicit 'checkpoint')
//
// A batch run installs SIGINT/SIGTERM handlers: the first signal cancels
// the resource governor, so the run winds down through the normal trip
// path (final checkpoint frame, metrics / db-stats / flight-recorder
// dumps, partial results with --partial) and the process exits 130; a
// second signal force-exits immediately.
//
// Value flags accept both "--flag value" and "--flag=value".
//
// Interactive mode (no arguments): a small REPL. Clauses typed at the
// prompt accumulate into the program; dot-commands drive the engine:
//   .load FILE          load program text from a file (replaces rules)
//   .csv REL FILE       load a CSV file into relation REL
//   .fact REL v1 v2 ..  add one fact
//   .seed N             switch to a random tid assigner with seed N
//   .identity           switch back to the canonical assigner
//   .query PRED         evaluate and print PRED
//   .why pred(c1, ...)  show the proof tree of one ground fact
//   .enumerate PRED     print every possible answer of PRED
//   .program            show the accumulated program
//   .stats              show evaluation counters from the last run
//   .help               this text
//   .quit               exit
#include <atomic>
#include <cstdio>
#include <cctype>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>
#include <unistd.h>

#include "ast/printer.h"
#include "common/failpoint.h"
#include "core/answer_enumerator.h"
#include "core/idlog_engine.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "storage/csv.h"
#include "store/atomic_file.h"

namespace {

using idlog::IdlogEngine;
using idlog::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Graceful-shutdown plumbing. The handler may only touch sig_atomic_t
// and lock-free atomics; ResourceGovernor::Cancel() is a relaxed store,
// so the first signal asks the run to wind down through the normal
// governor-trip path (final checkpoint frame, metrics/flight dumps,
// partial results). A second signal force-exits.
volatile std::sig_atomic_t g_signals = 0;
std::atomic<idlog::ResourceGovernor*> g_cancel_target{nullptr};

extern "C" void OnTerminationSignal(int) {
  const std::sig_atomic_t seen = g_signals;
  g_signals = seen + 1;
  if (seen > 0) _exit(130);
  idlog::ResourceGovernor* governor =
      g_cancel_target.load(std::memory_order_relaxed);
  if (governor != nullptr) governor->Cancel();
}

void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnTerminationSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

// Parses a non-negative integer flag value. std::stoull would throw out
// of main() on junk ("--timeout-ms abc") and silently wrap negatives;
// this validates digits and range and reports a usage error instead.
idlog::Result<uint64_t> ParseUint64(const std::string& flag,
                                    const char* value) {
  if (value == nullptr || *value == '\0') {
    return Status::InvalidArgument(flag + " expects a non-negative integer");
  }
  uint64_t out = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) {
      return Status::InvalidArgument(flag + ": '" + value +
                                     "' is not a non-negative integer");
    }
    uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (out > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument(flag + ": '" + value +
                                     "' is out of range");
    }
    out = out * 10 + digit;
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return std::string();
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// Parses "pred(c1, c2, ...)" into a predicate name and constant fields
// (no variables — WHY/WHY NOT explain one ground fact). "pred()" is a
// zero-arity atom.
Status ParseGroundAtom(const std::string& flag, const std::string& text,
                       std::string* pred,
                       std::vector<std::string>* fields) {
  auto fail = [&]() {
    return Status::InvalidArgument(
        flag + ": cannot parse '" + text +
        "'; expected a ground atom like pred(c1, c2)");
  };
  size_t open = text.find('(');
  if (open == std::string::npos || text.empty() || text.back() != ')') {
    return fail();
  }
  std::string name = Trim(text.substr(0, open));
  if (name.empty() ||
      name.find_first_of(" \t(),") != std::string::npos) {
    return fail();
  }
  std::string inner = text.substr(open + 1, text.size() - open - 2);
  if (inner.find('(') != std::string::npos ||
      inner.find(')') != std::string::npos) {
    return fail();
  }
  if (!Trim(inner).empty()) {
    size_t start = 0;
    while (true) {
      size_t comma = inner.find(',', start);
      std::string field = Trim(
          comma == std::string::npos ? inner.substr(start)
                                     : inner.substr(start, comma - start));
      if (field.empty() ||
          field.find_first_of(" \t") != std::string::npos) {
        return fail();
      }
      fields->push_back(std::move(field));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  *pred = std::move(name);
  return Status::OK();
}

// Constant fields to values: all-digit fields are numbers, everything
// else interns as a symbol (same convention for every ground atom the
// CLI reads).
idlog::Tuple FieldsToTuple(idlog::SymbolTable* symbols,
                           const std::vector<std::string>& fields) {
  idlog::Tuple tuple;
  tuple.reserve(fields.size());
  for (const std::string& field : fields) {
    bool numeric = !field.empty();
    for (char c : field) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        numeric = false;
        break;
      }
    }
    tuple.push_back(numeric
                        ? idlog::Value::Number(std::stoll(field))
                        : idlog::Value::Symbol(symbols->Intern(field)));
  }
  return tuple;
}

idlog::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  // Atomic (temp + fsync + rename): every machine-readable output the
  // CLI produces is either the previous complete file or the new one.
  return idlog::WriteFileAtomic(path, content);
}

void PrintRelation(const idlog::Relation& rel,
                   const idlog::SymbolTable& symbols) {
  for (const idlog::Tuple& t : rel.SortedTuples()) {
    std::printf("  %s\n", idlog::TupleToString(t, symbols).c_str());
  }
  std::printf("(%zu tuples)\n", rel.size());
}

void PrintStats(const idlog::EvalStats& stats) {
  std::printf(
      "tuples considered: %llu\nfacts derived: %llu (new: %llu)\n"
      "rule firings: %llu, fixpoint rounds: %llu, strata: %llu\n"
      "ID tuples materialized: %llu\n"
      "evaluation wall time: %.3f ms\n",
      static_cast<unsigned long long>(stats.tuples_considered),
      static_cast<unsigned long long>(stats.facts_derived),
      static_cast<unsigned long long>(stats.facts_inserted),
      static_cast<unsigned long long>(stats.rule_firings),
      static_cast<unsigned long long>(stats.iterations),
      static_cast<unsigned long long>(stats.strata_evaluated),
      static_cast<unsigned long long>(stats.id_tuples_materialized),
      static_cast<double>(stats.eval_wall_ns) / 1e6);
}

// Executes a --update-script against a WAL-attached engine. Lines:
//   begin / commit / abort       transaction brackets
//   insert pred(c1, c2)          stage an EDB insertion
//   retract pred(c1, c2)         stage an EDB retraction
//   query PRED                   print the predicate's current model
//   why pred(c1, ...)            print a proof tree from the model
//   checkpoint                   snapshot + log rotation
// Bare insert/retract lines outside begin..commit are one-op
// transactions. Blank lines and '#' comments are ignored.
//
// `skip_units` replays recovery: that many transaction units (each
// begin..commit block, or each bare insert/retract, is one unit) are
// already durable in the recovered state, so they — and any query / why
// / checkpoint lines interleaved among them — are skipped; execution
// resumes at the first non-durable unit.
Status RunUpdateScript(IdlogEngine* engine, const std::string& text,
                       uint64_t skip_units) {
  std::istringstream lines(text);
  std::string raw;
  uint64_t units_done = 0;
  bool skip_in_block = false;
  int line_no = 0;
  while (std::getline(lines, raw)) {
    ++line_no;
    if (g_signals > 0) {
      // Wind down through the normal cancelled-run path; the driver in
      // RunBatch turns the trip into exit code 130.
      return Status::OK();
    }
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string cmd;
    words >> cmd;
    std::string rest = Trim(line.substr(cmd.size()));
    auto fail_here = [&](Status st) {
      if (st.ok()) return st;
      return Status(st.code(), "update script line " +
                                   std::to_string(line_no) + ": " +
                                   st.message());
    };
    if (units_done < skip_units) {
      // Already durable before the crash: advance the unit counter
      // without touching the engine.
      if (cmd == "begin") {
        skip_in_block = true;
      } else if (cmd == "commit") {
        skip_in_block = false;
        ++units_done;
      } else if (cmd == "abort") {
        skip_in_block = false;  // Aborted blocks were never durable.
      } else if ((cmd == "insert" || cmd == "retract") && !skip_in_block) {
        ++units_done;
      } else if (cmd != "insert" && cmd != "retract" && cmd != "query" &&
                 cmd != "why" && cmd != "checkpoint") {
        return fail_here(
            Status::InvalidArgument("unknown command '" + cmd + "'"));
      }
      continue;
    }
    if (cmd == "begin") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->Begin()));
    } else if (cmd == "commit") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->Commit()));
      ++units_done;
    } else if (cmd == "abort") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->Abort()));
    } else if (cmd == "insert" || cmd == "retract") {
      std::string pred;
      std::vector<std::string> fields;
      IDLOG_RETURN_NOT_OK(
          fail_here(ParseGroundAtom(cmd, rest, &pred, &fields)));
      idlog::Tuple tuple = FieldsToTuple(&engine->symbols(), fields);
      const bool one_op = !engine->in_transaction();
      if (one_op) IDLOG_RETURN_NOT_OK(fail_here(engine->Begin()));
      Status st = cmd == "insert" ? engine->Insert(pred, std::move(tuple))
                                  : engine->Retract(pred, std::move(tuple));
      IDLOG_RETURN_NOT_OK(fail_here(st));
      if (one_op) {
        IDLOG_RETURN_NOT_OK(fail_here(engine->Commit()));
        ++units_done;
      }
    } else if (cmd == "query") {
      if (rest.empty()) {
        return fail_here(Status::InvalidArgument("query PRED"));
      }
      auto result = engine->Query(rest);
      IDLOG_RETURN_NOT_OK(fail_here(result.status()));
      std::printf("query %s\n", rest.c_str());
      PrintRelation(**result, engine->symbols());
    } else if (cmd == "why") {
      std::string pred;
      std::vector<std::string> fields;
      IDLOG_RETURN_NOT_OK(
          fail_here(ParseGroundAtom("why", rest, &pred, &fields)));
      idlog::Tuple tuple = FieldsToTuple(&engine->symbols(), fields);
      auto proof = engine->Why(pred, tuple);
      IDLOG_RETURN_NOT_OK(fail_here(proof.status()));
      std::printf("%s", proof->c_str());
    } else if (cmd == "checkpoint") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->WalCheckpoint()));
    } else {
      return fail_here(
          Status::InvalidArgument("unknown command '" + cmd + "'"));
    }
  }
  if (engine->in_transaction()) {
    return Status::InvalidArgument(
        "update script ended inside a begin..commit block");
  }
  return Status::OK();
}

int RunBatch(int argc, char** argv) {
  std::string program_path = argv[2];
  std::string query;
  std::vector<std::pair<std::string, std::string>> csvs;
  bool enumerate = false;
  bool stats = false;
  bool naive = false;
  bool pushdown = true;
  uint64_t seed = 0;
  bool random = false;
  std::string why_atom;
  bool why = false;
  bool why_not = false;
  std::string why_json;
  bool explain_plan = false;
  bool explain_analyze = false;
  std::string explain_json;
  idlog::EvalLimits limits;
  bool partial = false;
  bool profile = false;
  uint64_t jobs = 1;
  std::string trace_out;
  std::string metrics_json;
  std::string checkpoint_path;
  uint64_t checkpoint_every = 1;
  bool checkpoint_every_given = false;
  std::string resume_path;
  std::vector<std::string> fail_specs;
  bool db_stats = false;
  std::string db_stats_json;
  std::string flight_path;  // --flight-recorder destination (explicit).
  uint64_t flight_events = idlog::FlightRecorder::kDefaultCapacity;
  std::string wal_path;
  std::string update_script;
  bool recover = false;
  IdlogEngine::WalOptions wal_options;

  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    // Split "--flag=value" so every value flag accepts both spellings.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Fail(Status::InvalidArgument("--query PRED"));
      query = v;
    } else if (arg == "--csv") {
      const char* v = next();
      if (v == nullptr || std::strchr(v, '=') == nullptr) {
        return Fail(Status::InvalidArgument("--csv REL=FILE"));
      }
      std::string spec = v;
      size_t eq = spec.find('=');
      csvs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--seed") {
      auto v = ParseUint64("--seed", next());
      if (!v.ok()) return Fail(v.status());
      seed = *v;
      random = true;
    } else if (arg == "--enumerate") {
      enumerate = true;
    } else if (arg == "--why") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--why \"pred(c1, ...)\""));
      }
      why_atom = v;
      why = true;
    } else if (arg == "--why-not") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--why-not \"pred(c1, ...)\""));
      }
      why_atom = v;
      why_not = true;
    } else if (arg == "--why-json") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--why-json FILE"));
      }
      why_json = v;
    } else if (arg == "--explain-plan") {
      explain_plan = true;
    } else if (arg == "--explain-analyze") {
      explain_analyze = true;
    } else if (arg == "--explain-json") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--explain-json FILE"));
      }
      explain_json = v;
    } else if (arg == "--timeout-ms") {
      auto v = ParseUint64("--timeout-ms", next());
      if (!v.ok()) return Fail(v.status());
      if (*v > static_cast<uint64_t>(INT64_MAX)) {
        return Fail(Status::InvalidArgument("--timeout-ms: out of range"));
      }
      limits.timeout_ms = static_cast<int64_t>(*v);
    } else if (arg == "--max-tuples") {
      auto v = ParseUint64("--max-tuples", next());
      if (!v.ok()) return Fail(v.status());
      limits.max_tuples = *v;
    } else if (arg == "--max-memory-mb") {
      auto v = ParseUint64("--max-memory-mb", next());
      if (!v.ok()) return Fail(v.status());
      if (*v > UINT64_MAX / (1024 * 1024)) {
        return Fail(Status::InvalidArgument("--max-memory-mb: out of range"));
      }
      limits.max_memory_bytes = *v * 1024 * 1024;
    } else if (arg == "--max-iterations") {
      auto v = ParseUint64("--max-iterations", next());
      if (!v.ok()) return Fail(v.status());
      limits.max_iterations = *v;
    } else if (arg == "--partial") {
      partial = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--jobs") {
      auto v = ParseUint64("--jobs", next());
      if (!v.ok()) return Fail(v.status());
      if (*v > 1024) {
        return Fail(Status::InvalidArgument(
            "--jobs expects 0 (auto) or 1..1024"));
      }
      jobs = *v;
      if (jobs == 0) {
        // Auto-detect: hardware_concurrency() may legitimately return
        // 0 on exotic platforms — clamp to serial rather than guess.
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw >= 1 ? hw : 1;
      }
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--trace-out FILE"));
      }
      trace_out = v;
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--metrics-json FILE"));
      }
      metrics_json = v;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--checkpoint FILE"));
      }
      checkpoint_path = v;
    } else if (arg == "--checkpoint-every-rounds") {
      auto v = ParseUint64("--checkpoint-every-rounds", next());
      if (!v.ok()) return Fail(v.status());
      if (*v < 1) {
        return Fail(Status::InvalidArgument(
            "--checkpoint-every-rounds expects a positive round count"));
      }
      checkpoint_every = *v;
      checkpoint_every_given = true;
    } else if (arg == "--resume") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--resume FILE"));
      }
      resume_path = v;
    } else if (arg == "--fail-at") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--fail-at SITE:N[:throw]"));
      }
      fail_specs.emplace_back(v);
    } else if (arg == "--db-stats") {
      db_stats = true;
    } else if (arg == "--db-stats-json") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--db-stats-json FILE"));
      }
      db_stats_json = v;
    } else if (arg == "--flight-recorder") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--flight-recorder FILE"));
      }
      flight_path = v;
    } else if (arg == "--flight-events") {
      auto v = ParseUint64("--flight-events", next());
      if (!v.ok()) return Fail(v.status());
      if (*v < 16 || *v > (1ull << 20)) {
        return Fail(Status::InvalidArgument(
            "--flight-events expects 16..1048576 events per thread"));
      }
      flight_events = *v;
    } else if (arg == "--wal") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--wal FILE"));
      }
      wal_path = v;
    } else if (arg == "--update-script") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        return Fail(Status::InvalidArgument("--update-script FILE"));
      }
      update_script = v;
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--wal-group-commit") {
      auto v = ParseUint64("--wal-group-commit", next());
      if (!v.ok()) return Fail(v.status());
      if (*v < 1) {
        return Fail(Status::InvalidArgument(
            "--wal-group-commit expects a positive commit count"));
      }
      wal_options.group_commit_every = *v;
    } else if (arg == "--wal-checkpoint-every") {
      auto v = ParseUint64("--wal-checkpoint-every", next());
      if (!v.ok()) return Fail(v.status());
      wal_options.checkpoint_every_commits = *v;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--naive") {
      naive = true;
    } else if (arg == "--no-tid-pushdown") {
      pushdown = false;
    } else {
      return Fail(Status::InvalidArgument("unknown flag '" + arg + "'"));
    }
  }
  // --explain-json without --explain-plan means EXPLAIN ANALYZE.
  if (!explain_json.empty() && !explain_plan) explain_analyze = true;
  if (why && why_not) {
    return Fail(Status::InvalidArgument(
        "--why explains a present fact and --why-not an absent one; "
        "give one or the other"));
  }
  if (!why_json.empty() && !why && !why_not) {
    return Fail(Status::InvalidArgument(
        "--why-json needs --why or --why-not to say what to explain"));
  }
  // Parse the WHY/WHY NOT atom up front so a malformed argument is a
  // clear usage error, not a late engine failure.
  std::string why_pred;
  std::vector<std::string> why_fields;
  if (why || why_not) {
    Status ast = ParseGroundAtom(why ? "--why" : "--why-not", why_atom,
                                 &why_pred, &why_fields);
    if (!ast.ok()) return Fail(ast);
  }
  // An update script can carry its own `query` lines, so a final
  // --query is optional when one is given.
  if (query.empty() && !explain_plan && !why && !why_not &&
      update_script.empty()) {
    return Fail(Status::InvalidArgument("--query PRED is required"));
  }
  if (explain_analyze && query.empty()) {
    return Fail(Status::InvalidArgument(
        "--explain-analyze needs --query PRED (use --explain-plan for "
        "the static plan)"));
  }
  // Checkpoint/resume combinations that contradict each other are usage
  // errors rather than silent overrides.
  if (!resume_path.empty()) {
    if (!csvs.empty()) {
      return Fail(Status::InvalidArgument(
          "--resume restores the snapshot's database; it cannot be "
          "combined with --csv"));
    }
    if (random) {
      return Fail(Status::InvalidArgument(
          "--resume restores the snapshot's tid-assigner state; it "
          "cannot be combined with --seed"));
    }
    if (naive || !pushdown) {
      return Fail(Status::InvalidArgument(
          "--resume adopts the snapshot's evaluation mode; it cannot be "
          "combined with --naive or --no-tid-pushdown"));
    }
    if (enumerate) {
      return Fail(Status::InvalidArgument(
          "--resume continues one checkpointed run; it cannot be "
          "combined with --enumerate"));
    }
    if (explain_plan) {
      return Fail(Status::InvalidArgument(
          "--explain-plan does not evaluate, so there is nothing for "
          "--resume to continue"));
    }
    if (checkpoint_path == resume_path) {
      return Fail(Status::InvalidArgument(
          "--checkpoint must not equal the --resume path (a failed "
          "resume would overwrite the snapshot it resumes from)"));
    }
  }
  if (checkpoint_every_given && checkpoint_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--checkpoint-every-rounds needs --checkpoint FILE"));
  }
  // Durable-session combinations. The session owns its snapshot
  // (FILE.snap) and its log; the single-run --checkpoint / --resume
  // machinery is a different lifecycle, so mixing them is a usage error
  // rather than two writers disagreeing about one file.
  if (wal_path.empty()) {
    if (!update_script.empty()) {
      return Fail(Status::InvalidArgument(
          "--update-script needs --wal FILE (updates are durable)"));
    }
    if (recover) {
      return Fail(
          Status::InvalidArgument("--recover needs --wal FILE to recover"));
    }
  } else {
    if (!checkpoint_path.empty() || !resume_path.empty()) {
      return Fail(Status::InvalidArgument(
          "--wal sessions snapshot to FILE.snap on checkpoint; they "
          "cannot be combined with --checkpoint or --resume"));
    }
    if (enumerate || explain_plan) {
      return Fail(Status::InvalidArgument(
          "--wal records one evolving model; it cannot be combined with "
          "--enumerate or --explain-plan"));
    }
    if (recover) {
      if (!csvs.empty()) {
        return Fail(Status::InvalidArgument(
            "--recover restores the session snapshot's database; it "
            "cannot be combined with --csv"));
      }
      if (random) {
        return Fail(Status::InvalidArgument(
            "--recover restores the session snapshot's tid-assigner "
            "state; it cannot be combined with --seed"));
      }
      if (naive || !pushdown) {
        return Fail(Status::InvalidArgument(
            "--recover adopts the session snapshot's evaluation mode; it "
            "cannot be combined with --naive or --no-tid-pushdown"));
      }
    }
  }
  if (!checkpoint_path.empty() && (enumerate || explain_plan)) {
    return Fail(Status::InvalidArgument(
        "--checkpoint records one evaluation; it cannot be combined "
        "with --enumerate or --explain-plan"));
  }
  // Deterministic fault injection: flag specs first, then the
  // IDLOG_FAIL_AT environment variable (comma-separated specs).
  for (const std::string& spec : fail_specs) {
    Status st = idlog::Failpoints::Instance().ArmFromSpec(spec);
    if (!st.ok()) return Fail(st);
  }
  if (const char* env = std::getenv("IDLOG_FAIL_AT")) {
    std::string specs(env);
    size_t start = 0;
    while (start <= specs.size()) {
      size_t comma = specs.find(',', start);
      if (comma == std::string::npos) comma = specs.size();
      std::string spec = specs.substr(start, comma - start);
      if (!spec.empty()) {
        Status st = idlog::Failpoints::Instance().ArmFromSpec(spec);
        if (!st.ok()) return Fail(st);
      }
      start = comma + 1;
    }
  }

  // The flight recorder runs for every batch invocation: the black box
  // must already hold events when a run fails unexpectedly, and its
  // disarmed-path design makes the armed overhead a ring-slot write per
  // recorded event (measured <= 2% end to end in BENCH_core E8).
  const std::string flight_dump_path =
      flight_path.empty() ? std::string("idlog-flight.json") : flight_path;
  idlog::FlightRecorder::Instance().Arm(
      static_cast<size_t>(flight_events));

  // Read the update script up front: a missing file is a usage error
  // before any evaluation, and a `why` line means the session needs
  // provenance recorded from round 0.
  std::string update_script_text;
  bool script_wants_why = false;
  if (!update_script.empty()) {
    auto text = ReadFile(update_script);
    if (!text.ok()) return Fail(text.status());
    update_script_text = *text;
    std::istringstream lines(update_script_text);
    std::string line;
    while (std::getline(lines, line)) {
      if (Trim(line).rfind("why", 0) == 0) script_wants_why = true;
    }
  }

  IdlogEngine engine;
  engine.SetSeminaive(!naive);
  engine.SetThreads(static_cast<int>(jobs));
  engine.SetTidBoundPushdown(pushdown);
  engine.SetLimits(limits);
  engine.SetPartialResults(partial);
  // A failure Status out of Run() dumps the black box at the failure
  // site, before any further teardown; finish() below re-dumps for the
  // paths that never enter Run (both writes are atomic whole-files).
  engine.SetFlightRecorderDump(flight_dump_path);
  // --why needs the lineage store; --why-not only walks rule plans
  // against the computed model, so it costs nothing extra. A resumed
  // run restores pre-crash derivations from the snapshot's DERIV
  // section, so --why composes with --resume.
  if (why || script_wants_why) engine.EnableProvenance(true);
  // Graceful shutdown: after this point a first SIGINT/SIGTERM cancels
  // the governor (the run winds down through the normal trip path and
  // finish() maps the exit code to 130); a second force-exits.
  g_cancel_target.store(&engine.governor(), std::memory_order_relaxed);
  InstallSignalHandlers();
  idlog::TraceSink trace_sink;
  const bool tracing = !trace_out.empty();
  if (tracing) engine.SetTraceSink(&trace_sink);
  // --metrics-json implies profiling: the report is the flattened
  // profile, so there is nothing to write without it.
  if (profile || !metrics_json.empty()) engine.EnableProfiling(true);

  // The --why-json document, rendered next to the --why / --why-not
  // text from the run that happened; finish() writes it if it exists
  // (a rendered document is never empty).
  std::string why_doc;

  // Final reporting, shared by every exit path past this point: the
  // trace and metrics files are written even when the run tripped a
  // budget or failed — a truncated run is exactly when they matter.
  auto finish = [&](int code) {
    // A signalled run exits 130 regardless of how the cancellation
    // surfaced (governor trip, partial results, or a clean wind-down),
    // after every dump below has been written.
    if (g_signals > 0) code = 130;
    if (tracing) {
      Status wst = trace_sink.WriteJson(trace_out);
      if (!wst.ok()) {
        std::fprintf(stderr, "error: %s\n", wst.ToString().c_str());
        if (code == 0) code = 1;
      }
    }
    if (!metrics_json.empty()) {
      // The engine's composed document: profile counters plus the
      // governor/storage gauges (totals.memory_bytes, db.*).
      Status wst = WriteFile(metrics_json, engine.MetricsJson());
      if (!wst.ok()) {
        std::fprintf(stderr, "error: %s\n", wst.ToString().c_str());
        if (code == 0) code = 1;
      }
    }
    if (!db_stats_json.empty()) {
      // Written on trips and failures too: what the storage held when
      // the run stopped is front-line post-mortem material.
      Status wst = WriteFile(db_stats_json, engine.DbStatsJson());
      if (!wst.ok()) {
        std::fprintf(stderr, "error: %s\n", wst.ToString().c_str());
        if (code == 0) code = 1;
      }
    }
    // Black-box dump policy: always when --flight-recorder was given;
    // otherwise only when something went wrong (non-zero exit or a
    // governor trip in partial-results mode).
    if (!flight_path.empty() || code != 0 || !engine.last_trip().ok()) {
      Status wst =
          idlog::FlightRecorder::Instance().Dump(flight_dump_path);
      if (!wst.ok()) {
        std::fprintf(stderr, "error: %s\n", wst.ToString().c_str());
        if (code == 0) code = 1;
      }
    }
    if (!explain_json.empty()) {
      // Written on trips and failures too — like the trace and metrics,
      // the plan counters of a truncated run are exactly what a
      // post-mortem wants. Static document when --explain-plan.
      auto doc = engine.ExplainPlanJson(/*analyze=*/!explain_plan);
      Status wst =
          doc.ok() ? WriteFile(explain_json, *doc) : doc.status();
      if (!wst.ok()) {
        std::fprintf(stderr, "error: %s\n", wst.ToString().c_str());
        if (code == 0) code = 1;
      }
    }
    if (!why_doc.empty()) {
      Status wst = WriteFile(why_json, why_doc);
      if (!wst.ok()) {
        std::fprintf(stderr, "error: %s\n", wst.ToString().c_str());
        if (code == 0) code = 1;
      }
    }
    if (profile) {
      std::printf("%s", engine.profile().ToTable().c_str());
    }
    if (db_stats) {
      std::printf("%s", engine.DbStatsText().c_str());
    }
    return code;
  };

  // Arm the governor over the bulk loads too, so --max-tuples /
  // --max-memory-mb also bound CSV ingestion. Run() re-arms it for
  // evaluation.
  engine.governor().Arm(limits);
  for (const auto& [rel, file] : csvs) {
    Status st = idlog::LoadCsvRelation(&engine.database(), rel, file,
                                       /*skip_header=*/false,
                                       &engine.governor());
    if (!st.ok()) return finish(Fail(st));
  }
  // Resume before the program loads: the snapshot restores symbols and
  // database first, then the (hash-guarded) program parses against them.
  if (!resume_path.empty()) {
    Status rst = engine.ResumeFromCheckpoint(resume_path);
    if (!rst.ok()) return finish(Fail(rst));
  }
  // Recovery follows the same ordering: stage one restores the session
  // snapshot into the fresh engine, the program parses against it, and
  // stage two (below) replays the log's committed tail.
  if (recover) {
    Status rst = engine.PrepareRecovery(wal_path);
    if (!rst.ok()) return finish(Fail(rst));
  }
  auto text = ReadFile(program_path);
  if (!text.ok()) return finish(Fail(text.status()));
  Status st = engine.LoadProgramText(*text);
  if (!st.ok()) return finish(Fail(st));
  if (random) {
    engine.SetTidAssigner(std::make_unique<idlog::RandomTidAssigner>(seed));
  }
  if (!checkpoint_path.empty()) {
    engine.SetCheckpoint(checkpoint_path, checkpoint_every);
  }
  if (!wal_path.empty()) {
    Status wst = recover ? engine.CompleteRecovery(wal_options)
                         : engine.AttachWal(wal_path, wal_options);
    if (!wst.ok()) return finish(Fail(wst));
    if (!update_script_text.empty()) {
      // In --recover mode the first wal_commits() transaction units of
      // the script are already durable (snapshot + replayed tail) and
      // are skipped; execution resumes at the first lost unit.
      const uint64_t skip = recover ? engine.wal_commits() : 0;
      Status sst = RunUpdateScript(&engine, update_script_text, skip);
      if (!sst.ok()) return finish(Fail(sst));
    }
  }

  if (explain_plan) {
    auto plan = engine.ExplainPlan();
    if (!plan.ok()) return finish(Fail(plan.status()));
    std::printf("%s", plan->c_str());
    return finish(0);
  }

  if (enumerate) {
    idlog::EnumerateOptions options;
    engine.governor().Arm(limits);
    options.governor = &engine.governor();
    auto answers = idlog::EnumerateAnswers(engine.program(),
                                           engine.database(), query,
                                           options);
    if (!answers.ok()) return finish(Fail(answers.status()));
    std::printf("%zu possible answer(s) over %llu tid assignment(s):\n",
                answers->answers.size(),
                static_cast<unsigned long long>(
                    answers->assignments_tried));
    if (!answers->exhaustive) {
      std::fprintf(stderr,
                   "warning: enumeration not exhaustive — an ID-group "
                   "exceeds 20 tuples (n! > 2^64 permutations), only a "
                   "sample of the answer set was explored\n");
    }
    for (const auto& answer : answers->answers) {
      std::printf("  {");
      for (size_t i = 0; i < answer.size(); ++i) {
        if (i > 0) std::printf(", ");
        std::printf("%s",
                    idlog::TupleToString(answer[i], engine.symbols())
                        .c_str());
      }
      std::printf("}\n");
    }
    return finish(0);
  }

  if (why || why_not) {
    idlog::Tuple tuple = FieldsToTuple(&engine.symbols(), why_fields);
    auto text = why ? engine.Why(why_pred, tuple)
                    : engine.WhyNot(why_pred, tuple);
    if (!text.ok()) return finish(Fail(text.status()));
    if (!why_json.empty()) {
      auto doc = why ? engine.WhyJson(why_pred, tuple)
                     : engine.WhyNotJson(why_pred, tuple);
      if (!doc.ok()) return finish(Fail(doc.status()));
      why_doc = std::move(*doc);
    }
    std::printf("%s", text->c_str());
    return finish(0);
  }

  if (query.empty()) return finish(0);  // Update-script-only run.
  auto result = engine.Query(query);
  if (!result.ok()) return finish(Fail(result.status()));
  if (!engine.last_trip().ok()) {
    std::fprintf(stderr, "warning: partial results — %s\n",
                 engine.last_trip().ToString().c_str());
  }
  PrintRelation(**result, engine.symbols());
  if (stats) PrintStats(engine.stats());
  if (explain_analyze) {
    auto analyzed = engine.ExplainAnalyze();
    if (!analyzed.ok()) return finish(Fail(analyzed.status()));
    std::printf("%s", analyzed->c_str());
  }
  return finish(0);
}

int RunRepl() {
  IdlogEngine engine;
  std::string program_text;
  std::printf("idlog shell — type .help for commands\n");
  std::string line;
  while (true) {
    std::printf("idlog> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line[0] == '.' &&
        !(line.size() >= 5 && line.substr(0, 5) == ".decl")) {
      std::istringstream words(line);
      std::string cmd;
      words >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::printf(
            ".load FILE | .csv REL FILE | .fact REL v... | .seed N | "
            ".why pred(c1, ...) | "
            ".identity | .query PRED | .enumerate PRED | .program | "
            ".stats | .quit\n");
      } else if (cmd == ".load") {
        std::string path;
        words >> path;
        auto text = ReadFile(path);
        if (!text.ok()) {
          std::printf("error: %s\n", text.status().ToString().c_str());
          continue;
        }
        program_text = *text;
        Status st = engine.LoadProgramText(program_text);
        std::printf("%s\n", st.ToString().c_str());
      } else if (cmd == ".csv") {
        std::string rel;
        std::string path;
        words >> rel >> path;
        Status st = idlog::LoadCsvRelation(&engine.database(), rel, path);
        engine.InvalidateRun();
        std::printf("%s\n", st.ToString().c_str());
      } else if (cmd == ".fact") {
        std::string rel;
        words >> rel;
        std::vector<std::string> fields;
        std::string f;
        while (words >> f) fields.push_back(f);
        Status st = engine.AddRow(rel, fields);
        std::printf("%s\n", st.ToString().c_str());
      } else if (cmd == ".seed") {
        uint64_t seed = 0;
        words >> seed;
        engine.SetTidAssigner(
            std::make_unique<idlog::RandomTidAssigner>(seed));
        std::printf("random tids, seed %llu\n",
                    static_cast<unsigned long long>(seed));
      } else if (cmd == ".identity") {
        engine.SetTidAssigner(
            std::make_unique<idlog::IdentityTidAssigner>());
        std::printf("canonical tids\n");
      } else if (cmd == ".query") {
        std::string pred;
        words >> pred;
        if (!engine.has_program() && !program_text.empty()) {
          (void)engine.LoadProgramText(program_text);
        }
        auto result = engine.Query(pred);
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintRelation(**result, engine.symbols());
        }
      } else if (cmd == ".why") {
        std::string atom;
        std::getline(words, atom);
        std::string pred;
        std::vector<std::string> fields;
        Status parsed = ParseGroundAtom(".why", Trim(atom), &pred, &fields);
        if (!parsed.ok()) {
          std::printf("error: %s\n", parsed.ToString().c_str());
          continue;
        }
        engine.EnableProvenance(true);
        auto text = engine.Why(pred, FieldsToTuple(&engine.symbols(), fields));
        if (!text.ok()) {
          std::printf("error: %s\n", text.status().ToString().c_str());
        } else {
          std::printf("%s", text->c_str());
        }
      } else if (cmd == ".enumerate") {
        std::string pred;
        words >> pred;
        if (!engine.has_program()) {
          std::printf("error: no program loaded\n");
          continue;
        }
        auto answers = idlog::EnumerateAnswers(engine.program(),
                                               engine.database(), pred);
        if (!answers.ok()) {
          std::printf("error: %s\n",
                      answers.status().ToString().c_str());
          continue;
        }
        for (const auto& answer : answers->answers) {
          std::printf("  {");
          for (size_t i = 0; i < answer.size(); ++i) {
            if (i > 0) std::printf(", ");
            std::printf("%s", idlog::TupleToString(answer[i],
                                                   engine.symbols())
                                  .c_str());
          }
          std::printf("}\n");
        }
        std::printf("(%zu possible answers)\n", answers->answers.size());
        if (!answers->exhaustive) {
          std::printf(
              "warning: not exhaustive — an ID-group exceeds 20 tuples, "
              "only a sample of the answer set was explored\n");
        }
      } else if (cmd == ".program") {
        if (engine.has_program()) {
          std::printf("%s", idlog::ProgramToString(engine.program(),
                                                   engine.symbols())
                                .c_str());
        }
      } else if (cmd == ".stats") {
        PrintStats(engine.stats());
      } else {
        std::printf("unknown command %s (try .help)\n", cmd.c_str());
      }
      continue;
    }

    // Anything else: accumulate program text and reload.
    std::string candidate = program_text + line + "\n";
    Status st = engine.LoadProgramText(candidate);
    if (st.ok()) {
      program_text = std::move(candidate);
    } else {
      std::printf("error: %s\n", st.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "run") {
    return RunBatch(argc, argv);
  }
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s                      (interactive)\n"
                 "       %s run PROGRAM.idl --query PRED [--csv REL=FILE]"
                 " [--seed N] [--enumerate] [--stats] [--naive]"
                 " [--no-tid-pushdown] [--jobs N]\n"
                 "           [--why \"pred(c1, ...)\"] [--why-not \"pred(c1, ...)\"]"
                 " [--why-json FILE]\n"
                 "           [--explain-plan] [--explain-analyze]"
                 " [--explain-json FILE]\n"
                 "           [--timeout-ms N] [--max-tuples N]"
                 " [--max-memory-mb N] [--max-iterations N] [--partial]\n"
                 "           [--profile] [--trace-out FILE]"
                 " [--metrics-json FILE]\n"
                 "           [--checkpoint FILE]"
                 " [--checkpoint-every-rounds N] [--resume FILE]"
                 " [--fail-at SITE:N[:throw]]\n"
                 "           [--db-stats] [--db-stats-json FILE]"
                 " [--flight-recorder FILE] [--flight-events N]\n"
                 "           [--wal FILE] [--update-script FILE]"
                 " [--recover] [--wal-group-commit N]"
                 " [--wal-checkpoint-every N]\n",
                 argv[0], argv[0]);
    return 2;
  }
  return RunRepl();
}
