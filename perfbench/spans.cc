#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanLog::BeginRequest(const std::string& name) {
  request_ = next_request_++;
  Open(name, "request");
  request_root_ = stack_.back().index;
  return request_;
}

int64_t SpanLog::EndRequest() {
  int64_t wall = Close();
  request_ = -1;
  request_root_ = -1;
  return wall;
}

void SpanLog::Open(const std::string& name, const std::string& layer) {
  int64_t now = NowNs();
  int index = -1;
  if (record_) {
    Span span;
    span.name = name;
    span.layer = layer;
    span.start_ns = now;
    span.parent = stack_.empty() ? -1 : stack_.back().index;
    span.request = request_;
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  stack_.push_back(OpenSpan{index, now});
}

int64_t SpanLog::Close() {
  int64_t now = NowNs();
  OpenSpan top = stack_.back();
  stack_.pop_back();
  if (top.index >= 0) spans_[top.index].end_ns = now;
  return now - top.start_ns;
}

void SpanLog::ImportEngineEvents(idlog::TraceSink* sink,
                                 int64_t sink_epoch_ns) {
  if (!record_ || request_root_ < 0) {
    sink->Clear();
    return;
  }
  struct Event {
    std::string name;
    int64_t start, end;
  };
  std::vector<Event> events;
  for (const idlog::TraceEvent& ev : sink->events()) {
    if (ev.phase != 'X') continue;
    int64_t start = sink_epoch_ns + static_cast<int64_t>(ev.ts_us) * 1000;
    events.push_back(
        Event{ev.name, start, start + static_cast<int64_t>(ev.dur_us) * 1000});
  }
  sink->Clear();
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.end > b.end;
                   });
  const int first_own = request_root_;
  const int own_end = static_cast<int>(spans_.size());
  std::vector<int> nest;  // Imported spans enclosing the current event.
  for (const Event& ev : events) {
    const int64_t mid = ev.start + (ev.end - ev.start) / 2;
    while (!nest.empty() && spans_[nest.back()].end_ns <= mid) nest.pop_back();
    int parent = -1;
    if (!nest.empty()) {
      parent = nest.back();
    } else {
      // Innermost benchmark span of this request around the event.
      for (int i = own_end - 1; i >= first_own; --i) {
        const Span& s = spans_[i];
        if (s.start_ns <= mid && (s.end_ns == 0 || mid < s.end_ns)) {
          parent = i;
          break;
        }
      }
      if (parent < 0) parent = first_own;
    }
    Span span;
    span.name = ev.name;
    // The engine's spans are evaluation work, wherever the public call
    // that triggered it sits (Run, Commit, CompleteRecovery), except the
    // analysis LoadProgram does.
    span.layer = ev.name == "program analysis" ? "analysis" : "eval";
    span.start_ns = ev.start;
    span.end_ns = ev.end;
    span.parent = parent;
    span.request = request_;
    nest.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(span));
  }
}

std::vector<RequestBreakdown> SpanLog::Breakdowns() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<int64_t, RequestBreakdown> by_request;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    RequestBreakdown& b = by_request[s.request];
    b.request = s.request;
    int64_t self = s.end_ns - s.start_ns - child_ns[i];
    if (s.parent < 0) {
      b.wall_ns = s.end_ns - s.start_ns;
      b.unattributed_ns = self;
    } else {
      b.layer_self_ns[s.layer] += self;
    }
  }
  std::vector<RequestBreakdown> out;
  for (auto& [id, b] : by_request) out.push_back(std::move(b));
  return out;
}

int64_t SpanLog::TotalNsWithPrefix(const std::string& prefix) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name.rfind(prefix, 0) == 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::string SpanLog::ToJson() const {
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "[";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n  {\"name\": \"";
    for (char c : s.name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    std::snprintf(buf, sizeof(buf),
                  "\", \"layer\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld}",
                  s.layer.c_str(), (s.start_ns - t0) / 1e3,
                  (s.end_ns - t0) / 1e3, s.parent,
                  static_cast<long long>(s.request));
    out += buf;
  }
  out += "\n]";
  return out;
}

}  // namespace perfbench
