// In-memory span log for the benchmark's traced run.
//
// A span is one call into a layer's public function, recorded from the
// benchmark's side of the call: name, start, end, thread, and the span that
// caused it (the innermost open span of the same thread). Spans stay in
// memory and are written out when the run ends. A layer's self time is its
// spans' duration minus the part their child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lpmbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span on this thread
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> self_us;  ///< one entry per span, for percentiles
};

class SpanLog {
 public:
  /// Spans are only recorded while enabled; a disabled log makes Span free.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void add(SpanRecord record);
  [[nodiscard]] std::uint64_t next_id();

  /// Totals per span name, with self time = duration minus children.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  [[nodiscard]] std::size_t size() const;

  /// Writes one JSON object per span, one per line. Returns false if the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span. Parent links follow the per-thread stack of open spans.
class Span {
 public:
  Span(SpanLog* log, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  SpanRecord rec_;
};

}  // namespace lpmbench
