#ifndef IDLOG_CORE_IDLOG_ENGINE_H_
#define IDLOG_CORE_IDLOG_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ast/ast.h"
#include "common/limits.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "eval/engine_impl.h"
#include "obs/dbstats.h"
#include "obs/why.h"
#include "storage/database.h"
#include "storage/tid_assigner.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace idlog {

/// The main entry point of the library: owns a symbol table, an
/// extensional database and one loaded IDLOG program, and evaluates the
/// program's perfect model under a pluggable tid-assignment policy.
///
///   IdlogEngine engine;
///   engine.AddRow("emp", {"ann", "sales"});
///   engine.AddRow("emp", {"bob", "sales"});
///   engine.LoadProgramText(
///       "one_per_dept(N) :- emp[2](N, D, 0).");
///   engine.SetTidAssigner(std::make_unique<RandomTidAssigner>(42));
///   const Relation* r = engine.Query("one_per_dept").ValueOrDie();
///
/// Every call to Run()/Query() after changing the assigner or database
/// recomputes the model; with a deterministic assigner results are
/// repeatable.
class IdlogEngine {
 public:
  IdlogEngine();

  IdlogEngine(const IdlogEngine&) = delete;
  IdlogEngine& operator=(const IdlogEngine&) = delete;

  SymbolTable& symbols() { return symbols_; }
  /// The stored relations. Runs build column indexes inside them, so no
  /// evaluation over this database (Run, or an enumerator given it) may
  /// run on one thread while another evaluates over it.
  Database& database() { return database_; }
  const Database& database() const { return database_; }

  /// Parses and loads program text (see ParseProgram for the syntax).
  /// Replaces any previously loaded program.
  Status LoadProgramText(std::string_view text);

  /// Loads an already-built Program (its u-constants must be interned
  /// in this engine's symbol table).
  Status LoadProgram(Program program);

  const Program& program() const { return program_; }
  bool has_program() const { return impl_ != nullptr; }

  /// Adds an EDB fact; convenience wrappers over Database.
  Status AddFact(const std::string& pred, Tuple t);
  Status AddRow(const std::string& pred,
                const std::vector<std::string>& fields);

  /// Selects the non-determinism policy. Default: IdentityTidAssigner.
  void SetTidAssigner(std::unique_ptr<TidAssigner> assigner);
  TidAssigner* tid_assigner() { return assigner_.get(); }

  /// Naive-vs-semi-naive fixpoint (ablation switch; default semi-naive).
  void SetSeminaive(bool seminaive);

  /// Footnote 6/7 tid-bound pushdown (ablation switch; default on):
  /// when every use of an ID-relation bounds its tid, materialize only
  /// the needed prefix of each group.
  void SetTidBoundPushdown(bool enabled);

  /// Index ablation switch (default on): with false, joins fall back to
  /// full scans with key filters.
  void SetUseIndexes(bool enabled);

  /// Total evaluation threads for the fixpoint — the calling thread
  /// included, so n = 4 means four threads doing rule evaluations, not
  /// five (default 1 = serial; values < 1 clamp to 1). With n >= 2 each
  /// round's independent rule evaluations run on a thread pool, and a
  /// rule evaluation whose first plan step scans without an index —
  /// a delta or a full relation, in any round — additionally splits
  /// into up to n parts, each reading one contiguous row range of that
  /// scan; the parts commit in range order, which is the serial order.
  /// Answers, stats, profiles, traces, explain output and the
  /// provenance store (so proof trees and WHY JSON) are byte-identical
  /// to a serial run.
  void SetThreads(int n);
  int threads() const { return threads_; }

  /// Installs resource budgets enforced by every subsequent Run():
  /// wall-clock deadline, derived-tuple budget, approximate-memory
  /// budget and fixpoint-iteration cap. Each Run() re-arms the governor
  /// (the deadline counts from Run entry). Default: unlimited.
  void SetLimits(const EvalLimits& limits);
  const EvalLimits& limits() const { return limits_; }

  /// Cooperative cancellation, callable from another thread while
  /// Run()/Query() is evaluating: the evaluation observes the flag at
  /// its next governor checkpoint and returns ResourceExhausted.
  void Cancel() { governor_.Cancel(); }

  /// The governor backing this engine — share it with the standalone
  /// enumerators (EnumerateAnswers etc.) so one Cancel() stops both.
  ResourceGovernor& governor() { return governor_; }

  /// With partial results enabled (default off), a Run() that trips a
  /// budget keeps the model computed so far: Run() returns OK, the
  /// partial relations are queryable, and last_trip() carries the
  /// ResourceExhausted diagnostic. Without it, a trip fails Run().
  void SetPartialResults(bool enabled) { partial_results_ = enabled; }

  /// The trip diagnostic of the last Run() in partial-results mode, or
  /// OK if the run completed within budget.
  const Status& last_trip() const { return last_trip_; }

  /// Arms durable round-boundary checkpointing for subsequent Run()s:
  /// at every fixpoint round boundary a consistent `idlog-snap-v2`
  /// frame is serialized, and every `every_rounds`-th frame is written
  /// atomically to `path` (plus the last frame when a governor trips or
  /// the evaluation fails, and a final completed frame on success).
  /// An empty path disarms. `every_rounds` < 1 clamps to 1.
  void SetCheckpoint(std::string path, uint64_t every_rounds = 1);
  const std::string& checkpoint_path() const { return checkpoint_path_; }

  /// Writes a snapshot of the engine to `path` on demand: the finished
  /// model after a clean Run(), the last consistent round frame after a
  /// trip under SetCheckpoint(), or a cold-start frame (program config
  /// + database, no progress) before any run. A tripped run without
  /// checkpointing armed has no consistent frame and is an error.
  Status SaveCheckpoint(const std::string& path);

  /// Restores the snapshot at `path` into this engine, which must be
  /// fresh (no program loaded, empty database). The caller then loads
  /// the *same* program text — guarded by a program hash — after which
  /// Run() continues the checkpointed fixpoint exactly where it
  /// stopped (or adopts the finished model without re-evaluating).
  /// Fixpoint-content switches (semi-naive, tid-bound pushdown, index
  /// use) and the tid-assigner state are adopted from the snapshot;
  /// thread count stays caller-chosen, as it never changes answers.
  Status ResumeFromCheckpoint(const std::string& path);

  /// Evaluates the program (all strata). Idempotent until the program,
  /// database, assigner or mode changes.
  Status Run();

  /// Forces re-evaluation on the next Run()/Query() (e.g. after
  /// reseeding a random assigner in place).
  void InvalidateRun() { ran_ = false; }

  /// Returns the relation for `pred` after evaluation, running first if
  /// needed. EDB predicates resolve to their stored contents.
  Result<const Relation*> Query(const std::string& pred);

  /// The materialized ID-relation of (pred, group) from the last run.
  Result<const Relation*> QueryIdRelation(const std::string& pred,
                                          const std::vector<int>& group);

  /// Evaluates only the program portion related to `pred` (the paper's
  /// P/q) and returns its relation by value. Useful when the loaded
  /// program defines many outputs and only one is needed; the engine's
  /// cached full-program results are left untouched.
  Result<Relation> QueryPortion(const std::string& pred);

  const EvalStats& stats() const;
  /// Stratification of the loaded program (valid after load).
  Result<const Stratification*> stratification() const;

  /// Soundness self-check: after Run(), re-derives every rule against
  /// the computed relations (same ID-relations) and confirms the result
  /// is a fixpoint model — nothing new is derivable. Runs first if
  /// needed.
  Result<bool> VerifyModel();

  /// Installs a structured trace-event sink observing every subsequent
  /// LoadProgram()/Run()/QueryPortion(): program analysis and
  /// stratification, per-stratum and per-round fixpoint spans, per-rule
  /// evaluations, ID-relation materialization, and governor trips. Not
  /// owned and must outlive the engine (or be detached with null, the
  /// default, which restores the zero-instrumentation fast path).
  void SetTraceSink(TraceSink* sink);
  TraceSink* trace_sink() const { return trace_; }

  /// Enables the per-rule/per-stratum profile collected by Run() (off
  /// by default; costs a few clock reads per rule evaluation).
  void EnableProfiling(bool enabled);
  bool profiling_enabled() const { return profiling_; }

  /// The profile of the last Run() (empty unless profiling enabled).
  const EvalProfile& profile() const;

  /// Records derivations during evaluation so Why() works. Off by
  /// default (memory proportional to the number of derived facts).
  void EnableProvenance(bool enabled);

  /// WHY: renders a bounded proof tree for `pred(tuple)` from the last
  /// run — which clause fired, from which facts, which tid choices and
  /// built-ins it used — with an explicit depth/node budget, cycle
  /// safety, and a deterministic `idlog-why-v1` JSON twin. Requires
  /// EnableProvenance(true); runs first if needed. NotFound if the fact
  /// does not hold (use WhyNot for those).
  Result<std::string> Why(const std::string& pred, const Tuple& tuple,
                          const WhyBudget& budget = WhyBudget());
  Result<std::string> WhyJson(const std::string& pred, const Tuple& tuple,
                              const WhyBudget& budget = WhyBudget());

  /// WHY NOT: explains why `pred(tuple)` is absent from the computed
  /// model. Walks every rule whose head unifies with the query and
  /// reports its first failing premise — a missing subgoal (recursing,
  /// bounded, when it is ground), a blocking negation, an unsatisfied
  /// built-in, or a tid mismatch against the model's ID choice. Does
  /// not require provenance; runs first if needed. If the fact holds
  /// after all, the report says so (not an error).
  Result<std::string> WhyNot(const std::string& pred, const Tuple& tuple,
                             const WhyBudget& budget = WhyBudget());
  Result<std::string> WhyNotJson(const std::string& pred, const Tuple& tuple,
                                 const WhyBudget& budget = WhyBudget());

  /// Installs rewrite provenance from the opt/ pipeline (MagicSetTransform,
  /// OptimizeForOutput, etc.): when the caller ran rewrite passes before
  /// loading the transformed program, passing their RewriteLog here makes
  /// EXPLAIN annotate each clause with the rewrites that shaped it.
  /// Takes effect at the next LoadProgram(); the engine adds its own
  /// tid-pushdown notes during program analysis.
  void SetRewriteLog(RewriteLog log);

  /// Static EXPLAIN: the compiled plan of every rule as an aligned text
  /// tree — safe join order, key columns / index choice, ArgModes,
  /// delta-substitution candidates, plus the rewrite annotations.
  /// Requires a loaded program; does not run the evaluation.
  Result<std::string> ExplainPlan();

  /// EXPLAIN ANALYZE: renders the plan tree with the per-step runtime
  /// counters (rows in / scanned / emitted, observed selectivity, index
  /// probes) and per-stratum fixpoint round sizes of the last
  /// evaluation — a failed or tripped one included. Does not run: call
  /// Run() (or Query()) first.
  Result<std::string> ExplainAnalyze();

  /// The deterministic `idlog-explain-v1` JSON document. With `analyze`,
  /// carries the counters of the last evaluation, like ExplainAnalyze();
  /// without, renders the static plan only. Never runs. Byte-identical
  /// across --jobs settings for the same program and database.
  Result<std::string> ExplainPlanJson(bool analyze);

  /// Per-step counters of the last evaluation (always collected; empty
  /// before the first).
  const PlanAnalysis& plan_analysis() const;

  /// Storage observability: walks the database, derived/ID-relations
  /// and their indexes, intern pool, tid-assigner and provenance arena into
  /// per-relation statistics with component byte attribution. Valid any
  /// time (a pre-run engine reports EDB state only); does not run.
  StorageStats DbStats() const;
  /// The walk rendered as an aligned text table (physical index columns
  /// included) or the deterministic `idlog-dbstats-v1` JSON (logical
  /// fields only — byte-identical across --jobs).
  std::string DbStatsText() const;
  std::string DbStatsJson() const;

  /// The `idlog-metrics-v1` document of the last Run(): the profile's
  /// counters plus governor/storage gauges (totals.memory_bytes,
  /// db.relations, db.tuples, db.approx_bytes, db.indexes — the last is
  /// physical). Superset of profile().ToMetricsJson().
  std::string MetricsJson() const;

  // --- Durable update sessions (write-ahead fact log). -------------
  //
  // A session turns the engine into an updatable database: committed
  // EDB insertions and retractions are made durable in an
  // `idlog-wal-v1` log *before* they are applied, and insertions
  // re-derive the model incrementally by seeding the semi-naive delta
  // machinery instead of re-running the whole fixpoint. After a crash
  // at any instant, PrepareRecovery + LoadProgramText +
  // CompleteRecovery rebuild a state byte-identical (answers, db-stats
  // JSON, provenance, WHY proofs) to a session that never crashed.

  /// Knobs of a durable session; passed to AttachWal / CompleteRecovery.
  struct WalOptions {
    /// Fsync the log once per `group_commit_every` commits (default 1:
    /// every commit is durable before Commit() returns). Larger values
    /// trade the durability of the trailing group for fewer fsyncs; a
    /// crash then loses at most the unsynced tail, never consistency.
    uint64_t group_commit_every = 1;
    /// Auto-checkpoint (snapshot + log rotation) every N commits.
    /// 0 (default) checkpoints only on explicit WalCheckpoint() calls.
    uint64_t checkpoint_every_commits = 0;
  };

  /// Starts a durable session: runs the program to its fixpoint, writes
  /// the session's base snapshot to `path` + ".snap" and creates the
  /// WAL at `path`. Requires a loaded program; fails if a WAL is
  /// already attached. The snapshot and log are a pair — recovery
  /// refuses one without the other.
  Status AttachWal(const std::string& path, const WalOptions& options);
  Status AttachWal(const std::string& path) {
    return AttachWal(path, WalOptions());
  }
  bool wal_attached() const { return wal_ != nullptr; }

  /// Opens an update transaction. Operations buffer in memory — the
  /// model, the database and the log are untouched until Commit().
  Status Begin();
  /// Stages an EDB insertion/retraction. Predicates derived by rules
  /// are refused (their contents are the program's, not the caller's);
  /// sort/arity mismatches are refused here so nothing invalid is ever
  /// logged. Requires an open transaction.
  Status Insert(const std::string& pred, Tuple t);
  Status Retract(const std::string& pred, Tuple t);
  /// Makes the transaction durable (BEGIN..ops..COMMIT appended to the
  /// WAL, fsynced per group_commit_every), applies it to the database,
  /// and re-derives: pure insertions extend the model incrementally
  /// (semi-naive seed rounds; falls back to a full re-run when the
  /// change touches negation, ID-relations or `udom`), retractions
  /// recompute from the EDB. Queries see the new model immediately.
  Status Commit();
  /// Discards the open transaction. Nothing was logged or applied.
  Status Abort();
  bool in_transaction() const { return in_txn_; }

  /// Durably compacts the session: writes a fresh base snapshot
  /// covering every commit so far, appends a CHECKPOINT-REF record and
  /// rotates the log to a new epoch (records before the snapshot are
  /// retired). Refused inside a transaction.
  Status WalCheckpoint();

  /// Stage one of crash recovery, on a *fresh* engine (no program,
  /// empty database): loads the base snapshot next to `wal_path` (if
  /// any) and scans the log's committed prefix, tolerating a torn tail.
  /// The caller then loads the same program text the session ran
  /// (guarded by a program hash) and calls CompleteRecovery(). With
  /// nothing durable on disk, recovery degrades to a fresh AttachWal().
  Status PrepareRecovery(const std::string& wal_path);

  /// Stage two: validates the snapshot/log pairing (program hash,
  /// epoch lineage), adopts the snapshot's model without re-evaluating,
  /// truncates the log's torn tail durably, replays the committed
  /// transactions beyond the snapshot through the normal commit path,
  /// and reopens the log for append. Idempotent: recovering twice in a
  /// row yields the same state and a second recovery replays nothing.
  Status CompleteRecovery(const WalOptions& options);
  Status CompleteRecovery() { return CompleteRecovery(WalOptions()); }

  /// Committed transactions applied by this session so far — the base
  /// snapshot's commits plus replayed and newly committed ones. Update
  /// drivers use this to skip the prefix of a script that is already
  /// durable.
  uint64_t wal_commits() const { return wal_commits_; }
  /// Transactions CompleteRecovery() replayed from the log tail.
  uint64_t wal_commits_replayed() const { return wal_commits_replayed_; }
  /// True when the last Commit() re-derived incrementally (seeded
  /// delta rounds) rather than re-running the full fixpoint.
  bool last_commit_incremental() const { return last_commit_incremental_; }

  /// Arms the crash black box: when a Run() returns a failure Status or
  /// trips a governor budget (partial-results mode included), the
  /// process-global FlightRecorder is dumped to `path` as
  /// `idlog-flight-v1` JSON before Run() returns. Empty disarms. The
  /// recorder itself is armed separately (FlightRecorder::Instance()).
  void SetFlightRecorderDump(std::string path) {
    flight_dump_path_ = std::move(path);
  }
  const std::string& flight_recorder_dump_path() const {
    return flight_dump_path_;
  }

 private:
  Result<ProofTree> BuildWhy(const std::string& pred, const Tuple& tuple,
                             const WhyBudget& budget);
  Result<WhyNotReport> BuildWhyNotReport(const std::string& pred,
                                         const Tuple& tuple,
                                         const WhyBudget& budget);
  void DumpFlightRecorder() const;
  SnapshotConfig CurrentConfig() const;
  SnapshotView CurrentView(const FixpointFrame& progress) const;
  std::string SerializeCurrentState(const FixpointFrame& progress) const;
  Status OnCheckpointFrame(const FixpointFrame& frame,
                           const DeltaMarks& delta);
  Status RestoreAssigner(const SnapshotConfig& config);
  /// Restores a decoded snapshot's symbols/EDB/config into this (fresh)
  /// engine and stages the rest for the matching LoadProgram + Run.
  Status AdoptSnapshot(SnapshotData snap);
  /// Applies the buffered transaction to the database and re-derives
  /// (incrementally when possible). Called after the WAL commit is
  /// durable, and again — appends suppressed — during replay.
  Status ApplyCommittedOps();
  /// Writes the session snapshot to wal_path_ + ".snap" with a WAL
  /// position of (epoch, offset, wal_commits_).
  Status WriteSessionSnapshot(uint64_t epoch, uint64_t offset);
  /// Charges a freshly armed governor for the current model — an
  /// adopted snapshot's, or the one an insert commit extends — exactly
  /// as the run that computed it did, so totals.memory_bytes and the
  /// tuple and memory budgets see the whole model.
  Status RechargeGovernor();
  Status ReplayWal(const WalScanResult& scan, uint64_t replay_from);

  SymbolTable symbols_;
  Database database_;
  Program program_;
  std::unique_ptr<EngineImpl> impl_;
  std::unique_ptr<TidAssigner> assigner_;
  EvalLimits limits_;
  ResourceGovernor governor_;
  Status last_trip_;
  TraceSink* trace_ = nullptr;
  bool profiling_ = false;
  bool partial_results_ = false;
  bool seminaive_ = true;
  bool tid_bound_pushdown_ = true;
  bool provenance_ = false;
  bool use_indexes_ = true;
  RewriteLog rewrite_log_;
  int threads_ = 1;
  bool ran_ = false;

  std::string flight_dump_path_;      ///< Empty: no dump-on-failure.
  std::string checkpoint_path_;       ///< Empty: checkpointing off.
  uint64_t checkpoint_every_ = 1;     ///< Write cadence in round frames.
  uint64_t frames_since_write_ = 0;
  std::string last_frame_;            ///< Last serialized round frame.
  uint64_t program_hash_ = 0;         ///< FNV-1a of the printed program.
  /// Decoded snapshot awaiting the matching LoadProgram + Run.
  std::unique_ptr<SnapshotData> pending_resume_;

  // --- Durable-session state. ---
  struct PendingOp {
    bool retract = false;
    std::string pred;
    Tuple tuple;
  };
  /// Recovery staging between PrepareRecovery and CompleteRecovery.
  struct RecoveryState {
    std::string wal_path;
    WalScanResult scan;
    SnapshotWalPosition snap_pos;
    bool have_wal = false;
    bool have_snapshot = false;
  };
  std::unique_ptr<WriteAheadLog> wal_;  ///< Null: no session attached.
  std::string wal_path_;
  WalOptions wal_options_;
  std::vector<PendingOp> txn_ops_;
  bool in_txn_ = false;
  bool wal_replaying_ = false;  ///< Suppresses appends during replay.
  /// Latched on any log write failure: the append buffer's state is no
  /// longer known to match the file, so further commits are refused and
  /// the caller must recover from the WAL (the durable prefix is intact
  /// — nothing before the failed write is ever rewritten).
  bool wal_failed_ = false;
  uint64_t wal_commits_ = 0;
  uint64_t wal_commits_replayed_ = 0;
  bool last_commit_incremental_ = false;
  std::unique_ptr<RecoveryState> pending_recovery_;
};

}  // namespace idlog

#endif  // IDLOG_CORE_IDLOG_ENGINE_H_
