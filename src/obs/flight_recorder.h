#ifndef IDLOG_OBS_FLIGHT_RECORDER_H_
#define IDLOG_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace idlog {

/// What a flight-recorder event describes. The payload fields a/b/c are
/// kind-specific (see the table in docs/INTERNALS.md §14):
///   kRunStart         label="run", a=threads
///   kRunEnd           label=status code name, a=ok(1)/failed(0)
///   kRoundStart       a=stratum, b=round, c=tasks
///   kRoundCommit      a=stratum, b=round, c=new facts this round
///   kPartitionCommit  label=head predicate, a=parts, b=inserted, c=round
///   kIndexBuild       label=column list ("0,2"), a=rows indexed, b=keys
///   kCheckpointSection label=section name ("META".."END"), a=payload bytes
///   kGovernorMemory   label="memory", a=bytes charged, b=milestone crossed
///   kFailpointHit     label=site, a=hit count, b=1 iff this hit fired
///   kTrip             label=budget kind, a=tuples charged, b=bytes charged,
///                     c=stratum
///   kWalAppend        label=record type name, a=payload bytes, b=txn id
///   kWalFsync         label="commit", a=records in the synced group,
///                     b=file bytes after the sync
///   kWalReplay        label=record type name, a=file offset, b=txn id
///   kWalRotate        label="rotate", a=new epoch, b=bytes retired
enum class FlightEventKind : uint8_t {
  kRunStart = 0,
  kRunEnd,
  kRoundStart,
  kRoundCommit,
  kPartitionCommit,
  kIndexBuild,
  kCheckpointSection,
  kGovernorMemory,
  kFailpointHit,
  kTrip,
  kWalAppend,
  kWalFsync,
  kWalReplay,
  kWalRotate,
};

/// Stable dump name of a kind ("run-start", "round-commit", ...).
const char* FlightEventKindName(FlightEventKind kind);

/// One compact structured event. Fixed size, no heap: recording is a
/// few stores into a preallocated ring slot.
struct FlightEvent {
  uint64_t seq = 0;    ///< Global record order (merge key at dump time).
  uint64_t ts_ns = 0;  ///< Monotonic ns since the recorder was armed.
  FlightEventKind kind = FlightEventKind::kRunStart;
  char label[23] = {0};  ///< Truncated NUL-terminated tag.
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
};

/// Process-global crash/trip black box: fixed-capacity per-thread ring
/// buffers of FlightEvents behind a relaxed-atomic disarmed fast path,
/// in the style of common/failpoint.h. While disarmed (the default),
/// every instrumentation site costs one relaxed load and a branch.
/// While armed, a site costs an atomic sequence fetch_add plus a few
/// stores into this thread's preallocated ring — no locks, no
/// allocation (rings register once per thread under a mutex).
///
/// Each thread overwrites its own oldest events once its ring wraps, so
/// memory is bounded at capacity_per_thread × threads events no matter
/// how long the run is; a dump always holds the *last* window of
/// activity, which is the window a post-mortem wants.
///
/// Dump (ToJson/Dump) merges every ring by global sequence number into
/// one deterministic `idlog-flight-v1` JSON document. Dump when the
/// evaluation is quiescent (after Run() returned or tripped): recording
/// threads write their rings without synchronization against readers.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  static FlightRecorder& Instance();

  /// Enables recording with `capacity_per_thread` slots per thread ring
  /// (clamped to [16, 1<<20]), discarding previously recorded events.
  /// The arm time is the ts_ns origin.
  void Arm(size_t capacity_per_thread = kDefaultCapacity);

  /// Stops recording. Recorded events stay dumpable until the next
  /// Arm().
  void Disarm();

  /// Fast path for instrumentation sites: false unless Arm()ed.
  static bool Enabled() {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Records one event (no-op while disarmed). `label` may be null;
  /// longer labels are truncated to the fixed slot.
  static void Record(FlightEventKind kind, const char* label,
                     int64_t a = 0, int64_t b = 0, int64_t c = 0) {
    if (!Enabled()) return;
    Instance().RecordSlow(kind, label, a, b, c);
  }

  /// Events recorded since the last Arm() (including overwritten ones).
  uint64_t total_recorded() const;

  /// Events still held in the rings (<= total_recorded()).
  uint64_t retained() const;

  size_t capacity_per_thread() const;

  /// The merged `idlog-flight-v1` document: every ring's retained
  /// events sorted by global sequence number.
  std::string ToJson() const;

  /// Writes ToJson() to `path` atomically (temp + fsync + rename).
  Status Dump(const std::string& path) const;

 private:
  /// One thread's event window. Owned by the registry, not the thread:
  /// a worker that exits leaves its ring behind for the dump.
  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<FlightEvent> slots;
    uint64_t count = 0;  ///< Events ever written; slots[count % size].
  };

  FlightRecorder() = default;

  void RecordSlow(FlightEventKind kind, const char* label, int64_t a,
                  int64_t b, int64_t c);
  Ring* ThisThreadRing();

  static std::atomic<bool> armed_;

  mutable std::mutex mu_;             ///< Guards rings_ registration.
  std::vector<std::unique_ptr<Ring>> rings_;
  size_t capacity_ = kDefaultCapacity;
  /// Bumped by Arm(); a thread whose cached ring pointer carries an
  /// older generation re-registers instead of writing freed memory.
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> seq_{0};
  std::chrono::steady_clock::time_point armed_at_{};
};

}  // namespace idlog

#endif  // IDLOG_OBS_FLIGHT_RECORDER_H_
