#include "core/idlog_engine.h"

#include "analysis/dependency_graph.h"
#include "ast/printer.h"
#include "common/failpoint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "store/atomic_file.h"

namespace idlog {
namespace {

/// 64-bit FNV-1a over the round-tripped program text: cheap, stable
/// across processes, and exactly as precise as the printer (two
/// programs hash alike iff they print alike).
uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

IdlogEngine::IdlogEngine()
    : database_(&symbols_),
      assigner_(std::make_unique<IdentityTidAssigner>()) {}

Status IdlogEngine::LoadProgramText(std::string_view text) {
  IDLOG_ASSIGN_OR_RETURN(Program program, ParseProgram(text, &symbols_));
  return LoadProgram(std::move(program));
}

Status IdlogEngine::LoadProgram(Program program) {
  program_ = std::move(program);
  program_hash_ = Fnv1a64(ProgramToString(program_, symbols_));
  // Hash 0 marks a cold-start snapshot taken before any program was
  // loaded; it carries no fixpoint progress, so any program may follow.
  if (pending_resume_ != nullptr &&
      pending_resume_->config.program_hash != 0 &&
      pending_resume_->config.program_hash != program_hash_) {
    return Status::InvalidArgument(
        "program does not match the checkpoint being resumed (program "
        "hash mismatch); resume with the same program text the snapshot "
        "was taken under");
  }
  // Indexes the previous program's runs left in the EDB relations are
  // dead weight for this one.
  database_.DropIndexes();
  auto impl = std::make_unique<EngineImpl>(&program_, &database_);
  impl->set_tid_bound_pushdown(tid_bound_pushdown_);
  impl->set_provenance_enabled(provenance_);
  impl->set_use_indexes(use_indexes_);
  impl->set_threads(threads_);
  impl->set_trace_sink(trace_);
  impl->set_rewrite_log(rewrite_log_);
  IDLOG_RETURN_NOT_OK(impl->Prepare());
  impl_ = std::move(impl);
  ran_ = false;
  return Status::OK();
}

Status IdlogEngine::AddFact(const std::string& pred, Tuple t) {
  ran_ = false;
  return database_.AddTuple(pred, std::move(t));
}

Status IdlogEngine::AddRow(const std::string& pred,
                           const std::vector<std::string>& fields) {
  ran_ = false;
  return database_.AddRow(pred, fields);
}

void IdlogEngine::SetTidAssigner(std::unique_ptr<TidAssigner> assigner) {
  assigner_ = std::move(assigner);
  ran_ = false;
}

void IdlogEngine::SetSeminaive(bool seminaive) {
  if (seminaive_ != seminaive) ran_ = false;
  seminaive_ = seminaive;
}

void IdlogEngine::SetThreads(int n) {
  if (n < 1) n = 1;
  if (threads_ != n) ran_ = false;
  threads_ = n;
  if (impl_ != nullptr) impl_->set_threads(n);
}

void IdlogEngine::SetTidBoundPushdown(bool enabled) {
  if (tid_bound_pushdown_ != enabled) ran_ = false;
  tid_bound_pushdown_ = enabled;
  if (impl_ != nullptr) impl_->set_tid_bound_pushdown(enabled);
}

void IdlogEngine::SetLimits(const EvalLimits& limits) {
  limits_ = limits;
  ran_ = false;
}

void IdlogEngine::SetCheckpoint(std::string path, uint64_t every_rounds) {
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = every_rounds < 1 ? 1 : every_rounds;
}

SnapshotConfig IdlogEngine::CurrentConfig() const {
  SnapshotConfig config;
  config.program_hash = program_hash_;
  config.seminaive = seminaive_;
  config.tid_bound_pushdown = tid_bound_pushdown_;
  config.use_indexes = use_indexes_;
  if (assigner_ != nullptr) {
    config.assigner_kind = assigner_->kind();
    config.assigner_state = assigner_->SaveState();
  } else {
    config.assigner_kind = "identity";
  }
  return config;
}

SnapshotView IdlogEngine::CurrentView(
    const FixpointFrame& progress) const {
  SnapshotView view;
  view.symbols = &symbols_;
  view.database = &database_;
  view.derived = &impl_->derived();
  view.id_relations = &impl_->id_relations();
  view.delta = nullptr;
  view.stats = &impl_->stats();
  view.analysis = &impl_->plan_analysis();
  view.provenance = provenance_ ? &impl_->provenance() : nullptr;
  view.config = CurrentConfig();
  view.progress = progress;
  return view;
}

std::string IdlogEngine::SerializeCurrentState(
    const FixpointFrame& progress) const {
  return SerializeSnapshot(CurrentView(progress));
}

Status IdlogEngine::OnCheckpointFrame(const FixpointFrame& frame,
                                      const DeltaMarks& delta) {
  IDLOG_FAILPOINT("engine.checkpoint.frame");
  SnapshotView view = CurrentView(frame);
  if (frame.in_stratum) view.delta = &delta;
  last_frame_ = SerializeSnapshot(view);
  if (++frames_since_write_ >= checkpoint_every_) {
    frames_since_write_ = 0;
    return WriteFileAtomic(checkpoint_path_, last_frame_);
  }
  return Status::OK();
}

Status IdlogEngine::SaveCheckpoint(const std::string& path) {
  // ran_ implies a loaded program; the cold-start branch below handles
  // an engine with no program at all (config hash 0, database only).
  if (ran_ && last_trip_.ok()) {
    FixpointFrame done;
    done.completed = true;
    done.stratum = impl_->stratification().num_strata;
    return WriteFileAtomic(path, SerializeCurrentState(done));
  }
  if (!last_frame_.empty()) {
    // Last consistent round boundary of the (tripped or in-flight) run.
    return WriteFileAtomic(path, last_frame_);
  }
  if (!ran_) {
    // Cold start: program config + database, no progress. A resume of
    // this snapshot evaluates from scratch against the restored state.
    static const std::map<std::string, Relation> kNoDerived;
    static const std::map<std::pair<std::string, std::vector<int>>, Relation>
        kNoIdRels;
    static const EvalStats kNoStats;
    SnapshotView view;
    view.symbols = &symbols_;
    view.database = &database_;
    view.derived = &kNoDerived;
    view.id_relations = &kNoIdRels;
    view.stats = &kNoStats;
    view.config = CurrentConfig();
    return WriteFileAtomic(path, SerializeSnapshot(view));
  }
  return Status::InvalidArgument(
      "the tripped run was not checkpointing, so no consistent round "
      "frame exists; arm SetCheckpoint() before Run() to make trips "
      "resumable");
}

Status IdlogEngine::RestoreAssigner(const SnapshotConfig& config) {
  if (assigner_ == nullptr || assigner_->kind() != config.assigner_kind) {
    if (config.assigner_kind == "identity") {
      assigner_ = std::make_unique<IdentityTidAssigner>();
    } else if (config.assigner_kind == "random") {
      assigner_ = std::make_unique<RandomTidAssigner>(0);
    } else if (config.assigner_kind == "scripted") {
      assigner_ = std::make_unique<ScriptedTidAssigner>();
    } else {
      return Status::InvalidArgument(
          "snapshot was taken under a custom tid assigner ('" +
          config.assigner_kind +
          "'); install a matching assigner with SetTidAssigner() before "
          "resuming");
    }
  }
  return assigner_->RestoreState(config.assigner_state);
}

Status IdlogEngine::AdoptSnapshot(SnapshotData snap) {
  symbols_ = snap.symbols;
  for (const SnapshotData::NamedRelation& nr : snap.edb) {
    IDLOG_RETURN_NOT_OK(database_.CreateRelation(nr.name, nr.relation.type()));
    for (const Tuple& t : nr.relation.tuples()) {
      IDLOG_RETURN_NOT_OK(database_.AddTuple(nr.name, t));
    }
    // The snapshot's logical counters survive the round trip; the
    // re-insertion loop above advanced them from zero, so restore the
    // recorded values for db-stats equivalence.
    IDLOG_ASSIGN_OR_RETURN(Relation * rel, database_.GetMutable(nr.name));
    rel->RestoreCounters(nr.relation.version(),
                         nr.relation.clear_generation());
  }
  for (SymbolId id : snap.u_domain) database_.AddDomainConstant(id);
  // Fixpoint-content switches come from the snapshot (they change what
  // is computed); --jobs stays physical and caller-chosen.
  SetSeminaive(snap.config.seminaive);
  SetTidBoundPushdown(snap.config.tid_bound_pushdown);
  SetUseIndexes(snap.config.use_indexes);
  pending_resume_ = std::make_unique<SnapshotData>(std::move(snap));
  ran_ = false;
  return Status::OK();
}

Status IdlogEngine::ResumeFromCheckpoint(const std::string& path) {
  if (impl_ != nullptr || symbols_.size() != 0 ||
      !database_.relation_names().empty()) {
    return Status::InvalidArgument(
        "ResumeFromCheckpoint() needs a fresh engine: no program loaded "
        "and an empty database");
  }
  IDLOG_ASSIGN_OR_RETURN(SnapshotData snap, LoadSnapshotFile(path));
  return AdoptSnapshot(std::move(snap));
}

Status IdlogEngine::Run() {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("no program loaded");
  }
  if (ran_) return Status::OK();
  if (pending_resume_ != nullptr) {
    std::unique_ptr<SnapshotData> snap = std::move(pending_resume_);
    IDLOG_RETURN_NOT_OK(RestoreAssigner(snap->config));
    impl_->InstallResumeState(std::move(snap->eval));
    // A completed snapshot resumes at stratum == num_strata, so the
    // Evaluate() below adopts the finished model without doing work.
  }
  if (!checkpoint_path_.empty()) {
    impl_->set_checkpoint_hook(
        [this](const FixpointFrame& frame, const DeltaMarks& delta) {
          return OnCheckpointFrame(frame, delta);
        });
  } else {
    impl_->set_checkpoint_hook(nullptr);
  }
  last_frame_.clear();
  frames_since_write_ = 0;
  // Arm per run: the deadline counts from here, and a trip or Cancel()
  // from a previous run does not poison this one.
  governor_.Arm(limits_);
  impl_->set_governor(&governor_);
  last_trip_ = Status::OK();
  FlightRecorder::Record(FlightEventKind::kRunStart, "run",
                         static_cast<int64_t>(threads_));
  Status st = impl_->Evaluate(assigner_.get(), seminaive_);
  if (!st.ok()) {
    FlightRecorder::Record(FlightEventKind::kRunEnd, "failure",
                           static_cast<int64_t>(st.code()));
    DumpFlightRecorder();
    // Durability on the way down: put the last consistent frame (if
    // any) on disk so the run is resumable past this failure.
    Status final_write = Status::OK();
    if (!checkpoint_path_.empty() && !last_frame_.empty()) {
      final_write = WriteFileAtomic(checkpoint_path_, last_frame_);
    }
    if (partial_results_ && st.code() == StatusCode::kResourceExhausted) {
      // Keep the model computed so far queryable; the diagnostic is
      // available via last_trip().
      last_trip_ = std::move(st);
      ran_ = true;
      return final_write;
    }
    return st;
  }
  ran_ = true;
  FlightRecorder::Record(FlightEventKind::kRunEnd, "ok", 0,
                         static_cast<int64_t>(stats().facts_inserted));
  if (!checkpoint_path_.empty()) {
    FixpointFrame done;
    done.completed = true;
    done.stratum = impl_->stratification().num_strata;
    return WriteFileAtomic(checkpoint_path_, SerializeCurrentState(done));
  }
  return Status::OK();
}

namespace {

/// Session tuples travel through the WAL with symbols as names, so a
/// log outlives any particular symbol-table numbering.
std::vector<WalValue> ToWalValues(const Tuple& t,
                                  const SymbolTable& symbols) {
  std::vector<WalValue> out;
  out.reserve(t.size());
  for (const Value& v : t) {
    if (v.is_symbol()) {
      out.push_back(WalValue::Symbol(symbols.NameOf(v.symbol())));
    } else {
      out.push_back(WalValue::Number(v.number()));
    }
  }
  return out;
}

Tuple FromWalValues(const std::vector<WalValue>& values,
                    SymbolTable* symbols) {
  Tuple t;
  t.reserve(values.size());
  for (const WalValue& v : values) {
    if (v.is_symbol) {
      t.push_back(Value::Symbol(symbols->Intern(v.symbol)));
    } else {
      t.push_back(Value::Number(v.number));
    }
  }
  return t;
}

/// Sort/arity check against a relation's type, done at staging time so
/// nothing invalid is ever appended to the log.
Status CheckTupleType(const std::string& pred, const Tuple& t,
                      const RelationType& type) {
  if (t.size() != type.size()) {
    return Status::TypeError("tuple arity " + std::to_string(t.size()) +
                             " does not match relation '" + pred + "' (" +
                             std::to_string(type.size()) + ")");
  }
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].sort() != type[i]) {
      return Status::TypeError("sort mismatch at position " +
                               std::to_string(i) + " of relation '" + pred +
                               "'");
    }
  }
  return Status::OK();
}

}  // namespace

Status IdlogEngine::AttachWal(const std::string& path,
                              const WalOptions& options) {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("no program loaded");
  }
  if (wal_ != nullptr) {
    return Status::InvalidArgument("a WAL is already attached");
  }
  IDLOG_RETURN_NOT_OK(Run());
  if (!last_trip_.ok()) {
    return Status::InvalidArgument(
        "cannot start a durable session over a tripped (partial) run");
  }
  wal_path_ = path;
  wal_options_ = options;
  wal_commits_ = 0;
  wal_commits_replayed_ = 0;
  wal_failed_ = false;
  IDLOG_RETURN_NOT_OK(
      WriteSessionSnapshot(/*epoch=*/1, /*offset=*/kWalHeaderSize));
  IDLOG_ASSIGN_OR_RETURN(
      wal_, WriteAheadLog::Create(path, /*epoch=*/1, program_hash_,
                                  options.group_commit_every));
  return Status::OK();
}

Status IdlogEngine::Begin() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "no durable session: AttachWal() or CompleteRecovery() first");
  }
  if (wal_failed_) {
    return Status::Internal(
        "the session's log is in an unknown state after a write failure; "
        "recover from the WAL");
  }
  if (in_txn_) {
    return Status::InvalidArgument("a transaction is already open");
  }
  in_txn_ = true;
  txn_ops_.clear();
  return Status::OK();
}

Status IdlogEngine::Insert(const std::string& pred, Tuple t) {
  if (!in_txn_) {
    return Status::InvalidArgument("no open transaction; Begin() first");
  }
  if (impl_->idb_preds().count(pred) > 0) {
    return Status::InvalidArgument(
        "'" + pred +
        "' is derived by rules; sessions mutate EDB predicates only");
  }
  Result<const Relation*> rel = database_.Get(pred);
  if (rel.ok()) {
    IDLOG_RETURN_NOT_OK(CheckTupleType(pred, t, (*rel)->type()));
  } else {
    // The commit will create the relation with the sorts of its first
    // staged insert. Every later insert must match them, and the program
    // must stay typable over them: the next run rejects the data
    // otherwise, and a logged commit that cannot apply latches the
    // session for good.
    auto sorts_of = [](const Tuple& tuple) {
      RelationType type;
      for (const Value& v : tuple) type.push_back(v.sort());
      return type;
    };
    std::map<std::string, RelationType> pending;
    for (const PendingOp& op : txn_ops_) {
      if (!op.retract && !database_.HasRelation(op.pred)) {
        pending.emplace(op.pred, sorts_of(op.tuple));
      }
    }
    auto staged = pending.find(pred);
    if (staged != pending.end()) {
      IDLOG_RETURN_NOT_OK(CheckTupleType(pred, t, staged->second));
    } else {
      pending.emplace(pred, sorts_of(t));
      IDLOG_RETURN_NOT_OK(impl_->RunTypes(pending).status());
    }
  }
  PendingOp op;
  op.retract = false;
  op.pred = pred;
  op.tuple = std::move(t);
  txn_ops_.push_back(std::move(op));
  return Status::OK();
}

Status IdlogEngine::Retract(const std::string& pred, Tuple t) {
  if (!in_txn_) {
    return Status::InvalidArgument("no open transaction; Begin() first");
  }
  if (impl_->idb_preds().count(pred) > 0) {
    return Status::InvalidArgument(
        "'" + pred +
        "' is derived by rules; sessions mutate EDB predicates only");
  }
  Result<const Relation*> rel = database_.Get(pred);
  if (rel.ok()) {
    IDLOG_RETURN_NOT_OK(CheckTupleType(pred, t, (*rel)->type()));
  }
  PendingOp op;
  op.retract = true;
  op.pred = pred;
  op.tuple = std::move(t);
  txn_ops_.push_back(std::move(op));
  return Status::OK();
}

Status IdlogEngine::Commit() {
  if (!in_txn_) {
    return Status::InvalidArgument("no open transaction; Begin() first");
  }
  if (wal_failed_) {
    return Status::Internal(
        "the session's log is in an unknown state after a write failure; "
        "recover from the WAL");
  }
  const uint64_t txn_id = wal_commits_ + 1;
  if (!wal_replaying_) {
    // Durability first: the transaction reaches the log (and, per
    // group_commit_every, the disk) before any state changes. A crash
    // after this block replays the transaction; a crash inside it
    // leaves an uncommitted tail the recovery scan drops.
    Status logged = wal_->AppendBegin(txn_id);
    for (const PendingOp& op : txn_ops_) {
      if (!logged.ok()) break;
      std::vector<WalValue> values = ToWalValues(op.tuple, symbols_);
      logged = op.retract ? wal_->AppendRetract(op.pred, values)
                          : wal_->AppendInsert(op.pred, values);
    }
    if (logged.ok()) logged = wal_->AppendCommit(txn_id);
    if (!logged.ok()) {
      wal_failed_ = true;
      return logged;
    }
  }
  Status applied = ApplyCommittedOps();
  if (!applied.ok()) {
    if (!wal_replaying_) {
      // The transaction is durably logged but only partially applied
      // (a governor trip or storage failure mid-apply): the live state
      // no longer matches what replaying the log would rebuild, and an
      // Abort-and-retry would reuse this txn_id for different ops.
      // Latch the session like a log-write failure — recovery replays
      // the durable log into a fresh engine and converges.
      wal_failed_ = true;
    }
    return applied;
  }
  in_txn_ = false;
  txn_ops_.clear();
  ++wal_commits_;
  if (!wal_replaying_ && wal_options_.checkpoint_every_commits > 0 &&
      wal_commits_ % wal_options_.checkpoint_every_commits == 0) {
    return WalCheckpoint();
  }
  return Status::OK();
}

Status IdlogEngine::Abort() {
  if (!in_txn_) {
    return Status::InvalidArgument("no open transaction; Begin() first");
  }
  // Nothing was logged or applied: operations buffer until Commit(), so
  // an abort is a pure in-memory discard and replay never sees it.
  in_txn_ = false;
  txn_ops_.clear();
  return Status::OK();
}

Status IdlogEngine::ApplyCommittedOps() {
  // Apply to the EDB, marking each relation that gains a tuple at its
  // size before the first one: Insert appends only new tuples, so its
  // rows from the mark on are exactly the delta the incremental
  // re-derivation seeds.
  DeltaMarks inserted;
  bool any_retract = false;
  for (const PendingOp& op : txn_ops_) {
    if (op.retract) {
      Result<bool> erased = database_.EraseTuple(op.pred, op.tuple);
      if (!erased.ok()) {
        // Retracting from a relation that never existed is a no-op,
        // like retracting an absent tuple.
        if (erased.status().code() == StatusCode::kNotFound) continue;
        return erased.status();
      }
      any_retract = any_retract || *erased;
    } else {
      Result<const Relation*> rel = database_.Get(op.pred);
      if (!rel.ok() || !(*rel)->Contains(op.tuple)) {
        inserted.try_emplace(op.pred, rel.ok() ? (*rel)->size() : 0);
      }
      IDLOG_RETURN_NOT_OK(database_.AddTuple(op.pred, Tuple(op.tuple)));
    }
  }
  last_commit_incremental_ = false;
  if (any_retract) {
    // Retraction is not monotone: recompute the model from the mutated
    // EDB (see ROADMAP item 1 for the planned DRed-style alternative).
    ran_ = false;
    return Run();
  }
  if (inserted.empty()) return ran_ ? Status::OK() : Run();
  if (!ran_) {
    // No model to extend (first evaluation still pending).
    return Run();
  }
  // Budgets bound each pass, as in Run(): the deadline and the
  // iteration cap count from this commit, while the tuple and memory
  // budgets keep bounding the whole model, which is charged again first.
  governor_.Arm(limits_);
  IDLOG_RETURN_NOT_OK(RechargeGovernor());
  Status st = impl_->EvaluateIncremental(inserted, seminaive_);
  if (st.code() == StatusCode::kUnsupported) {
    ran_ = false;
    return Run();
  }
  if (st.ok()) last_commit_incremental_ = true;
  return st;
}

Status IdlogEngine::WalCheckpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("no durable session to checkpoint");
  }
  if (in_txn_) {
    return Status::InvalidArgument(
        "cannot checkpoint inside a transaction");
  }
  if (wal_failed_) {
    return Status::Internal(
        "the session's log is in an unknown state after a write failure; "
        "recover from the WAL");
  }
  IDLOG_RETURN_NOT_OK(Run());
  // Drain the append buffer before taking the covered offset: with
  // group commit > 1 the buffer may hold frames that are not yet on
  // disk, and a snapshot recording a position past the durable log
  // would make a later recovery replay from beyond the truncated file
  // — aliasing the offsets of commits appended after that recovery.
  Status flushed = wal_->Flush();
  if (!flushed.ok()) {
    wal_failed_ = true;
    return flushed;
  }
  // Snapshot first (atomically), then mark and rotate: every crash
  // point leaves either the old pair or the new pair recoverable.
  const uint64_t covered = wal_->offset();
  IDLOG_RETURN_NOT_OK(WriteSessionSnapshot(wal_->epoch(), covered));
  Status st = wal_->AppendCheckpointRef(covered, wal_path_ + ".snap");
  if (st.ok()) st = wal_->Rotate(wal_->epoch() + 1);
  if (!st.ok()) wal_failed_ = true;
  return st;
}

Status IdlogEngine::WriteSessionSnapshot(uint64_t epoch, uint64_t offset) {
  FixpointFrame done;
  done.completed = true;
  done.stratum = impl_->stratification().num_strata;
  SnapshotView view = CurrentView(done);
  view.wal_pos.present = true;
  view.wal_pos.epoch = epoch;
  view.wal_pos.offset = offset;
  view.wal_pos.commits = wal_commits_;
  return WriteFileAtomic(wal_path_ + ".snap", SerializeSnapshot(view));
}

Status IdlogEngine::PrepareRecovery(const std::string& wal_path) {
  if (impl_ != nullptr || symbols_.size() != 0 ||
      !database_.relation_names().empty()) {
    return Status::InvalidArgument(
        "PrepareRecovery() needs a fresh engine: no program loaded and "
        "an empty database");
  }
  auto rec = std::make_unique<RecoveryState>();
  rec->wal_path = wal_path;
  Result<WalScanResult> scan = ScanWal(wal_path);
  if (scan.ok()) {
    rec->scan = std::move(*scan);
    rec->have_wal = true;
  } else if (scan.status().code() != StatusCode::kNotFound) {
    // Damaged header, future version, unreadable file: refuse loudly —
    // only a missing file is a legitimate cold start.
    return scan.status();
  }
  const std::string snap_path = wal_path + ".snap";
  Result<SnapshotData> snap = LoadSnapshotFile(snap_path);
  if (snap.ok()) {
    if (!snap->wal_pos.present) {
      return Status::InvalidArgument(
          "snapshot at '" + snap_path +
          "' carries no WAL position; it was not written by a durable "
          "session");
    }
    rec->snap_pos = snap->wal_pos;
    rec->have_snapshot = true;
    IDLOG_RETURN_NOT_OK(AdoptSnapshot(std::move(*snap)));
  } else if (snap.status().code() != StatusCode::kNotFound) {
    return snap.status();
  }
  if (rec->have_wal && !rec->have_snapshot) {
    return Status::InvalidArgument(
        "WAL at '" + wal_path + "' has no base snapshot at '" + snap_path +
        "'; the pair is written together — restore the snapshot or "
        "remove the log");
  }
  pending_recovery_ = std::move(rec);
  return Status::OK();
}

Status IdlogEngine::CompleteRecovery(const WalOptions& options) {
  if (pending_recovery_ == nullptr) {
    return Status::InvalidArgument(
        "call PrepareRecovery() and load the program before "
        "CompleteRecovery()");
  }
  if (impl_ == nullptr) {
    return Status::InvalidArgument(
        "load the session's program before CompleteRecovery()");
  }
  std::unique_ptr<RecoveryState> rec = std::move(pending_recovery_);
  if (!rec->have_snapshot) {
    // Nothing durable existed: recovery of a session that never got to
    // disk is a fresh session.
    return AttachWal(rec->wal_path, options);
  }
  uint64_t replay_from = 0;
  if (rec->have_wal) {
    if (rec->scan.program_hash != program_hash_) {
      return Status::InvalidArgument(
          "the WAL at '" + rec->wal_path +
          "' was written under a different program (hash mismatch); "
          "recover with the same program text the session ran");
    }
    if (rec->scan.epoch == rec->snap_pos.epoch) {
      // Same epoch: the snapshot covers the log prefix before its
      // recorded offset.
      replay_from = rec->snap_pos.offset;
    } else if (rec->scan.epoch == rec->snap_pos.epoch + 1) {
      // The crash fell between a checkpoint's rotation and its next
      // snapshot: the rotated log holds only post-snapshot records.
      replay_from = 0;
    } else {
      return Status::InvalidArgument(
          "WAL epoch " + std::to_string(rec->scan.epoch) +
          " does not continue snapshot epoch " +
          std::to_string(rec->snap_pos.epoch) +
          "; the files are from different sessions");
    }
  }
  IDLOG_RETURN_NOT_OK(Run());  // Adopts the snapshot's completed model.
  IDLOG_RETURN_NOT_OK(RechargeGovernor());
  wal_path_ = rec->wal_path;
  wal_options_ = options;
  wal_commits_ = rec->snap_pos.commits;
  wal_commits_replayed_ = 0;
  wal_failed_ = false;
  if (rec->have_wal) {
    if (replay_from > rec->scan.committed_length) {
      // The snapshot claims to cover WAL bytes the on-disk log does not
      // hold (the log was truncated or damaged behind the snapshot's
      // back). The snapshot is self-contained — every commit it counts
      // is folded into its state — so nothing is lost; but the log is
      // about to be truncated to committed_length and new commits will
      // land at offsets below the stale replay point. Clamp, and
      // rewrite the snapshot's WAL position so a second recovery agrees
      // instead of silently skipping those future records.
      replay_from = rec->scan.committed_length;
      IDLOG_RETURN_NOT_OK(
          WriteSessionSnapshot(rec->scan.epoch, replay_from));
    }
    // Truncate the torn tail durably and reopen for append before
    // replaying, so a crash mid-replay leaves a clean committed prefix
    // for the next recovery (which replays the same records again).
    IDLOG_ASSIGN_OR_RETURN(
        wal_, WriteAheadLog::OpenForAppend(rec->wal_path, rec->scan,
                                           options.group_commit_every));
    wal_replaying_ = true;
    Status st = ReplayWal(rec->scan, replay_from);
    wal_replaying_ = false;
    IDLOG_RETURN_NOT_OK(st);
  } else {
    // The crash fell between the snapshot write and the log creation
    // (or rotation): recreate the log at the snapshot's epoch.
    IDLOG_ASSIGN_OR_RETURN(
        wal_,
        WriteAheadLog::Create(rec->wal_path, rec->snap_pos.epoch,
                              program_hash_, options.group_commit_every));
  }
  return Status::OK();
}

Status IdlogEngine::ReplayWal(const WalScanResult& scan,
                              uint64_t replay_from) {
  for (const WalRecord& record : scan.records) {
    if (record.offset < replay_from) continue;
    switch (record.type) {
      case WalRecordType::kBegin:
        IDLOG_RETURN_NOT_OK(Begin());
        break;
      case WalRecordType::kInsert:
        IDLOG_RETURN_NOT_OK(
            Insert(record.pred, FromWalValues(record.values, &symbols_)));
        break;
      case WalRecordType::kRetract:
        IDLOG_RETURN_NOT_OK(
            Retract(record.pred, FromWalValues(record.values, &symbols_)));
        break;
      case WalRecordType::kCommit:
        IDLOG_RETURN_NOT_OK(Commit());
        ++wal_commits_replayed_;
        break;
      case WalRecordType::kCheckpointRef:
        // The snapshot it references is the one being recovered (or an
        // older, superseded one); nothing to apply.
        break;
    }
  }
  if (in_txn_) {
    // Cannot happen: the scanner only returns records up to the last
    // commit boundary. Defensive, so a future scanner bug cannot leave
    // a half-open transaction behind.
    in_txn_ = false;
    txn_ops_.clear();
    return Status::Internal("WAL replay ended inside a transaction");
  }
  return Status::OK();
}

Status IdlogEngine::RechargeGovernor() {
  // Mirror exactly what the uninterrupted run charged: one tuple plus
  // ApproxTupleBytes per derived fact and per materialized ID tuple,
  // plus the provenance arena — so totals.memory_bytes and the dbstats
  // governor block match byte-for-byte after recovery.
  uint64_t tuples = 0;
  uint64_t bytes = 0;
  for (const auto& [name, rel] : impl_->derived()) {
    (void)name;
    tuples += rel.size();
    bytes += rel.size() *
             ApproxTupleBytes(static_cast<size_t>(rel.arity()));
  }
  for (const auto& [key, rel] : impl_->id_relations()) {
    (void)key;
    tuples += rel.size();
    bytes += rel.size() * ApproxTupleBytes(rel.type().size());
  }
  bytes += impl_->provenance().approx_bytes();
  if (tuples == 0 && bytes == 0) return Status::OK();
  return governor_.OnDerived(tuples, bytes);
}

void IdlogEngine::DumpFlightRecorder() const {
  if (flight_dump_path_.empty() || !FlightRecorder::Enabled()) return;
  // Best-effort black box on the failure path: a dump error must not
  // mask the Status the evaluation is unwinding with.
  (void)FlightRecorder::Instance().Dump(flight_dump_path_);
}

Result<const Relation*> IdlogEngine::Query(const std::string& pred) {
  IDLOG_RETURN_NOT_OK(Run());
  return impl_->RelationOf(pred);
}

Result<const Relation*> IdlogEngine::QueryIdRelation(
    const std::string& pred, const std::vector<int>& group) {
  IDLOG_RETURN_NOT_OK(Run());
  return impl_->IdRelationOf(pred, group);
}

Result<Relation> IdlogEngine::QueryPortion(const std::string& pred) {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("no program loaded");
  }
  Program portion;
  portion.predicates = program_.predicates;
  portion.clauses = ProgramPortion(program_, pred);
  if (portion.clauses.empty() && !database_.HasRelation(pred)) {
    return Status::NotFound("no clauses define '" + pred + "'");
  }
  EngineImpl impl(&portion, &database_);
  impl.set_tid_bound_pushdown(tid_bound_pushdown_);
  impl.set_trace_sink(trace_);
  governor_.Arm(limits_);
  impl.set_governor(&governor_);
  IDLOG_RETURN_NOT_OK(impl.Prepare());
  IDLOG_RETURN_NOT_OK(impl.Evaluate(assigner_.get(), seminaive_));
  IDLOG_ASSIGN_OR_RETURN(const Relation* rel, impl.RelationOf(pred));
  return *rel;
}

Result<bool> IdlogEngine::VerifyModel() {
  IDLOG_RETURN_NOT_OK(Run());
  return impl_->VerifyModel();
}

void IdlogEngine::SetUseIndexes(bool enabled) {
  if (use_indexes_ != enabled) ran_ = false;
  use_indexes_ = enabled;
  if (impl_ != nullptr) impl_->set_use_indexes(enabled);
}

void IdlogEngine::SetTraceSink(TraceSink* sink) {
  trace_ = sink;
  governor_.set_trace_sink(sink);
  if (impl_ != nullptr) impl_->set_trace_sink(sink);
}

void IdlogEngine::EnableProfiling(bool /*enabled*/) {}

EvalProfile IdlogEngine::profile() const {
  return impl_ == nullptr ? EvalProfile() : impl_->profile();
}

void IdlogEngine::EnableProvenance(bool enabled) {
  if (provenance_ != enabled) ran_ = false;
  provenance_ = enabled;
  if (impl_ != nullptr) impl_->set_provenance_enabled(enabled);
}

Result<ProofTree> IdlogEngine::BuildWhy(const std::string& pred,
                                        const Tuple& tuple,
                                        const WhyBudget& budget) {
  if (!provenance_) {
    return Status::InvalidArgument(
        "call EnableProvenance(true) before Run() to use Why()");
  }
  IDLOG_RETURN_NOT_OK(Run());
  IDLOG_ASSIGN_OR_RETURN(const Relation* rel, impl_->RelationOf(pred));
  if (!rel->Contains(tuple)) {
    return Status::NotFound(pred + TupleToString(tuple, symbols_) +
                            " does not hold in the computed model; use "
                            "WhyNot() for absent facts");
  }
  auto is_leaf = [this](const std::string& p, const Tuple& t) {
    Result<const Relation*> stored = database_.Get(p);
    return stored.ok() && (*stored)->Contains(t);
  };
  return BuildProofTree(impl_->provenance(), symbols_, pred, tuple, is_leaf,
                        budget);
}

Result<std::string> IdlogEngine::Why(const std::string& pred,
                                     const Tuple& tuple,
                                     const WhyBudget& budget) {
  IDLOG_ASSIGN_OR_RETURN(ProofTree tree, BuildWhy(pred, tuple, budget));
  return RenderWhyText(tree);
}

Result<std::string> IdlogEngine::WhyJson(const std::string& pred,
                                         const Tuple& tuple,
                                         const WhyBudget& budget) {
  IDLOG_ASSIGN_OR_RETURN(ProofTree tree, BuildWhy(pred, tuple, budget));
  return RenderWhyJson(tree);
}

Result<WhyNotReport> IdlogEngine::BuildWhyNotReport(const std::string& pred,
                                                    const Tuple& tuple,
                                                    const WhyBudget& budget) {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("no program loaded");
  }
  IDLOG_RETURN_NOT_OK(Run());
  std::vector<std::string> rule_texts;
  rule_texts.reserve(program_.clauses.size());
  for (const Clause& clause : program_.clauses) {
    rule_texts.push_back(ClauseToString(clause, symbols_));
  }
  WhyNotContext ctx;
  ctx.plans = &impl_->plans();
  ctx.rule_texts = &rule_texts;
  ctx.symbols = &symbols_;
  ctx.full = [this](const std::string& p) -> const Relation* {
    Result<const Relation*> r = impl_->RelationOf(p);
    return r.ok() ? *r : nullptr;
  };
  ctx.id_relation = [this](const std::string& p,
                           const std::vector<int>& g) -> const Relation* {
    Result<const Relation*> r = impl_->IdRelationOf(p, g);
    return r.ok() ? *r : nullptr;
  };
  return BuildWhyNot(ctx, pred, tuple, budget);
}

Result<std::string> IdlogEngine::WhyNot(const std::string& pred,
                                        const Tuple& tuple,
                                        const WhyBudget& budget) {
  IDLOG_ASSIGN_OR_RETURN(WhyNotReport report,
                         BuildWhyNotReport(pred, tuple, budget));
  return RenderWhyNotText(report);
}

Result<std::string> IdlogEngine::WhyNotJson(const std::string& pred,
                                            const Tuple& tuple,
                                            const WhyBudget& budget) {
  IDLOG_ASSIGN_OR_RETURN(WhyNotReport report,
                         BuildWhyNotReport(pred, tuple, budget));
  return RenderWhyNotJson(report);
}

void IdlogEngine::SetRewriteLog(RewriteLog log) {
  rewrite_log_ = std::move(log);
  if (impl_ != nullptr) impl_->set_rewrite_log(rewrite_log_);
}

Result<std::string> IdlogEngine::ExplainPlan() {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("no program loaded");
  }
  return impl_->ExplainPlanText(/*analyze=*/false);
}

Result<std::string> IdlogEngine::ExplainAnalyze() {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("no program loaded");
  }
  return impl_->ExplainPlanText(/*analyze=*/true);
}

Result<std::string> IdlogEngine::ExplainPlanJson(bool analyze) {
  if (impl_ == nullptr) {
    return Status::InvalidArgument("no program loaded");
  }
  return impl_->ExplainPlanJson(analyze);
}

const PlanAnalysis& IdlogEngine::plan_analysis() const {
  static const PlanAnalysis kEmpty;
  return impl_ == nullptr ? kEmpty : impl_->plan_analysis();
}

const EvalStats& IdlogEngine::stats() const {
  static const EvalStats kEmpty;
  return impl_ == nullptr ? kEmpty : impl_->stats();
}

Result<const Stratification*> IdlogEngine::stratification() const {
  if (impl_ == nullptr) return Status::InvalidArgument("no program loaded");
  return &impl_->stratification();
}

StorageStats IdlogEngine::DbStats() const {
  StorageStatsView view;
  view.database = &database_;
  view.symbols = &symbols_;
  view.governor = &governor_;
  view.assigner = assigner_.get();
  if (impl_ != nullptr) {
    view.derived = &impl_->derived();
    view.id_relations = &impl_->id_relations();
    view.udom = &impl_->udom_relation();
    view.provenance = &impl_->provenance();
  }
  return CollectStorageStats(view);
}

std::string IdlogEngine::DbStatsText() const { return DbStats().ToTable(); }

std::string IdlogEngine::DbStatsJson() const { return DbStats().ToJson(); }

std::string IdlogEngine::MetricsJson() const {
  MetricsRegistry reg;
  profile().ToMetrics(&reg);
  // Storage/governor gauges the profile cannot see. db.indexes is
  // physical (EDB indexes outlive a run, so it depends on what ran
  // before) — callers comparing runs diff counters, not gauges, exactly
  // because of entries like it.
  const StorageStats db = DbStats();
  reg.SetGauge("totals.memory_bytes",
               static_cast<int64_t>(governor_.memory_charged()));
  reg.SetGauge("db.relations",
               static_cast<int64_t>(db.relations.size()));
  reg.SetGauge("db.id_relations",
               static_cast<int64_t>(db.id_relations.size()));
  reg.SetGauge("db.tuples", static_cast<int64_t>(db.total_tuples()));
  reg.SetGauge("db.approx_bytes",
               static_cast<int64_t>(db.total_approx_bytes()));
  reg.SetGauge("db.indexes", static_cast<int64_t>(db.total_indexes));
  if (wal_ != nullptr) {
    reg.SetGauge("wal.epoch", static_cast<int64_t>(wal_->epoch()));
    reg.SetGauge("wal.commits", static_cast<int64_t>(wal_commits_));
    reg.SetGauge("wal.bytes", static_cast<int64_t>(wal_->offset()));
  }
  return reg.ToJson();
}

}  // namespace idlog
