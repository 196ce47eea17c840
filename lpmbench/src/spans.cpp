#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <unordered_map>

namespace lpmbench {

namespace {

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Innermost open span of the calling thread (0 = none).
thread_local std::uint64_t t_open_span = 0;

}  // namespace

void SpanLog::add(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

std::uint64_t SpanLog::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Children of one parent run on the parent's thread inside its interval
  // and never overlap each other, so their summed duration is the covered
  // part of the parent.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans_) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += 1e-9 * static_cast<double>(dur);
    t.self_s += 1e-9 * static_cast<double>(self);
    t.self_us.push_back(1e-3 * static_cast<double>(self));
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

Span::Span(SpanLog* log, const char* name)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  rec_.name = name;
  rec_.id = log_->next_id();
  rec_.parent = t_open_span;
  rec_.thread = thread_ordinal();
  t_open_span = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  rec_.end_ns = now_ns();
  t_open_span = rec_.parent;
  log_->add(std::move(rec_));
}

}  // namespace lpmbench
