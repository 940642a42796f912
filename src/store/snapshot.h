#ifndef IDLOG_STORE_SNAPSHOT_H_
#define IDLOG_STORE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "common/value.h"
#include "eval/eval_stats.h"
#include "eval/provenance.h"
#include "eval/resume_state.h"
#include "obs/explain.h"
#include "obs/profile.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace idlog {

/// The `idlog-snap-v2` binary checkpoint format.
///
/// Layout: an 8-byte magic ("IDLGSNAP"), a little-endian u32 version,
/// then a sequence of sections `[tag u32][len u64][payload][crc32]`
/// where the CRC covers tag, length and payload, closed by an END
/// section (tag 0, empty). Sections appear in a fixed order (META,
/// SYMBOLS, DATABASE, DERIVED, IDRELS, DELTA, ANALYSIS, PROFILE, DERIV,
/// WALPOS, END);
/// any reordering, truncation, bit flip or trailing garbage is rejected
/// with a precise error naming the damage. Snapshot files are written
/// only through WriteFileAtomic, so a crash mid-write can never leave a
/// torn file at the target path. DERIV carries the provenance store
/// (absent unless provenance was enabled), so a resumed run can still
/// explain facts derived before the crash. WALPOS records how far into
/// a write-ahead log (store/wal.h) this snapshot's state reaches, so
/// recovery replays only the WAL tail beyond it.
///
/// v2 over v1: each serialized relation additionally carries its
/// logical version and clear-generation counters (db-stats fields that
/// must survive a round trip), and the WALPOS section exists. The
/// reader still accepts v1 files — the counters default to what
/// re-inserting the rows produces and the WAL position reads as absent
/// — so checkpoints written by v1 builds stay resumable; the writer
/// emits v2 only.
constexpr char kSnapshotMagic[8] = {'I', 'D', 'L', 'G',
                                    'S', 'N', 'A', 'P'};
constexpr uint32_t kSnapshotVersion = 2;

/// Run configuration captured at save time. A resumed run adopts these
/// (they change fixpoint *content*, unlike --jobs which is physical),
/// and the program hash guards against resuming under a different
/// program, whose plans the saved progress would be meaningless for.
struct SnapshotConfig {
  uint64_t program_hash = 0;
  bool seminaive = true;
  bool tid_bound_pushdown = true;
  bool use_indexes = true;
  std::string assigner_kind;   ///< TidAssigner::kind() at save time.
  std::string assigner_state;  ///< TidAssigner::SaveState() at save time.
};

/// How much of a write-ahead log the snapshot's state already covers.
/// Absent (present=false) for plain checkpoint/resume snapshots that
/// have no WAL attached.
struct SnapshotWalPosition {
  bool present = false;
  uint64_t epoch = 0;    ///< WAL header epoch the offset refers to.
  uint64_t offset = 0;   ///< Byte offset: records before it are covered.
  uint64_t commits = 0;  ///< Committed transactions folded into the state.
};

/// Borrowed engine state to serialize (the engine's own maps; nothing
/// is copied). Null observability pointers serialize as absent.
struct SnapshotView {
  const SymbolTable* symbols = nullptr;
  const Database* database = nullptr;
  const std::map<std::string, Relation>* derived = nullptr;
  const std::map<std::pair<std::string, std::vector<int>>, Relation>*
      id_relations = nullptr;
  const DeltaMarks* delta = nullptr;  ///< Marks into `derived`; may be null.
  const EvalStats* stats = nullptr;
  const PlanAnalysis* analysis = nullptr;  ///< May be null.
  const EvalProfile* profile = nullptr;    ///< May be null.
  const ProvenanceStore* provenance = nullptr;  ///< May be null.
  SnapshotConfig config;
  /// Where in the stratified fixpoint the snapshot was taken: always a
  /// round boundary (after a round's Commit), the one point where
  /// derived relations, deltas and stats are all consistent.
  FixpointFrame progress;
  SnapshotWalPosition wal_pos;
};

/// A fully decoded snapshot, owning its state.
struct SnapshotData {
  struct NamedRelation {
    std::string name;
    Relation relation;
  };

  SymbolTable symbols;
  std::vector<NamedRelation> edb;      ///< In database creation order.
  std::vector<SymbolId> u_domain;      ///< Includes tuple-less extras.
  EvalResumeState eval;  ///< Derived state and the frame it was cut at.
  SnapshotConfig config;
  SnapshotWalPosition wal_pos;
};

/// Serializes `view` into an idlog-snap-v2 byte string.
std::string SerializeSnapshot(const SnapshotView& view);

/// Decodes a snapshot byte string, checking magic, version, section
/// framing and CRCs, plus semantic invariants (symbol ids in range,
/// each DELTA equal to the last rows of its derived relation, in order,
/// ID-relation tuples consistent with their bases).
Result<SnapshotData> ParseSnapshot(std::string_view bytes);

/// Reads and decodes the snapshot at `path`.
Result<SnapshotData> LoadSnapshotFile(const std::string& path);

/// Structural + invariant check of the file at `path` without keeping
/// the decoded state (the fault-injection sweep's "no torn snapshot"
/// assertion).
Status ValidateSnapshotFile(const std::string& path);

}  // namespace idlog

#endif  // IDLOG_STORE_SNAPSHOT_H_
