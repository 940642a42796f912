// In-memory spans around each public call into an engine layer, plus the
// engine's own TraceSink events nested under them. Nothing is written
// until the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

int64_t NowNs();

struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;      ///< Index into the log, -1 for a request root.
  int64_t request = -1; ///< Request (query, commit, ...) id.
};

/// Self time of each layer within one request, and the request's wall.
struct RequestBreakdown {
  int64_t request = -1;
  int64_t wall_ns = 0;
  std::map<std::string, int64_t> layer_self_ns;
  /// Self time of the root span: wall time inside no layer call.
  int64_t unattributed_ns = 0;
};

/// Records nested spans. With recording off, Open/Close still time the
/// spans (the benchmark's end-to-end figures come from them) but keep
/// only the open stack, so memory stays flat over long runs.
class SpanLog {
 public:
  explicit SpanLog(bool record) : record_(record) {}

  /// Opens a request root span and returns its id.
  int64_t BeginRequest(const std::string& name);
  /// Closes the root; returns its wall time in nanoseconds.
  int64_t EndRequest();

  void Open(const std::string& name, const std::string& layer);
  /// Closes the innermost span; returns its duration in nanoseconds.
  int64_t Close();

  /// Nests the sink's complete events under the innermost benchmark span
  /// of the current request that contains each of them, and clears the
  /// sink. `sink_epoch_ns` is NowNs() taken just before the sink was
  /// created.
  void ImportEngineEvents(idlog::TraceSink* sink, int64_t sink_epoch_ns);

  /// Per-layer self times of every recorded request.
  std::vector<RequestBreakdown> Breakdowns() const;

  /// Total duration of spans whose name starts with `prefix`.
  int64_t TotalNsWithPrefix(const std::string& prefix) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Spans as a JSON array: name, layer, start/end in microseconds since
  /// the first span, parent index and request id.
  std::string ToJson() const;

 private:
  struct OpenSpan {
    int index;  ///< Into spans_ when recording, else -1.
    int64_t start_ns;
  };
  bool record_;
  int64_t request_ = -1;
  int64_t next_request_ = 0;
  int request_root_ = -1;
  std::vector<OpenSpan> stack_;
  std::vector<Span> spans_;
};

/// RAII wrapper over SpanLog::Open/Close.
class LayerSpan {
 public:
  LayerSpan(SpanLog* log, const std::string& name, const std::string& layer)
      : log_(log) {
    log_->Open(name, layer);
  }
  ~LayerSpan() {
    if (!closed_) log_->Close();
  }
  int64_t Close() {
    closed_ = true;
    return log_->Close();
  }

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  SpanLog* log_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
