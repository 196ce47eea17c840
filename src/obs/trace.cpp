#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "util/error.hpp"
#include "util/flat_json.hpp"
#include "util/log.hpp"

namespace lpm::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Small per-thread ordinal so each thread gets its own Perfetto track.
/// 0 is the thread that created the session (normally main).
int trace_tid() {
  static std::atomic<int> next{0};
  thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

util::JsonWriter args_object(const TraceArgs& args) {
  util::JsonWriter out;
  for (const auto& [key, value] : args) out.num(key, value);
  return out;
}

}  // namespace

TraceSession::TraceSession(const std::string& path)
    : path_(path), start_ns_(steady_now_ns()) {
  out_.open(path);
  if (!out_.is_open()) {
    throw util::IoError("TraceSession: cannot open '" + path + "' for writing");
  }
  out_ << "[\n";
}

TraceSession::~TraceSession() { close(); }

std::uint64_t TraceSession::now_us() const {
  return (steady_now_ns() - start_ns_) / 1000;
}

void TraceSession::emit(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  if (!first_event_) out_ << ",\n";
  first_event_ = false;
  out_ << line;
  ++events_;
}

void TraceSession::complete_event(const std::string& name,
                                  const std::string& cat,
                                  std::uint64_t start_us, std::uint64_t dur_us,
                                  const TraceArgs& args) {
  emit(util::JsonWriter()
           .str("name", name)
           .str("cat", cat)
           .str("ph", "X")
           .num_u64("ts", start_us)
           .num_u64("dur", dur_us)
           .num_u64("pid", 1)
           .num_u64("tid", trace_tid())
           .object("args", args_object(args))
           .finish());
}

void TraceSession::counter_event(const std::string& name, std::uint64_t ts_us,
                                 const TraceArgs& values) {
  emit(util::JsonWriter()
           .str("name", name)
           .str("cat", "counter")
           .str("ph", "C")
           .num_u64("ts", ts_us)
           .num_u64("pid", 1)
           .num_u64("tid", 0)
           .object("args", args_object(values))
           .finish());
}

void TraceSession::instant_event(const std::string& name,
                                 const std::string& cat, std::uint64_t ts_us,
                                 const TraceArgs& args) {
  emit(util::JsonWriter()
           .str("name", name)
           .str("cat", cat)
           .str("ph", "i")
           .str("s", "t")
           .num_u64("ts", ts_us)
           .num_u64("pid", 1)
           .num_u64("tid", trace_tid())
           .object("args", args_object(args))
           .finish());
}

void TraceSession::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  closed_ = true;
  out_ << "\n]\n";
  out_.flush();
  out_.close();
}

std::uint64_t TraceSession::events_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

namespace {

TraceSession* g_global_session = nullptr;

void close_global_session() {
  if (g_global_session != nullptr) g_global_session->close();
}

}  // namespace

TraceSession* TraceSession::global() {
  // Leaked like the global registry: late writers (worker teardown, static
  // destructors) must never touch a destroyed session. The atexit hook
  // only terminates the JSON array; emits after that are silent no-ops.
  static TraceSession* instance = []() -> TraceSession* {
    const char* path = std::getenv("LPM_TRACE");
    if (path == nullptr || *path == '\0') return nullptr;
    try {
      g_global_session = new TraceSession(path);
    } catch (const std::exception& e) {
      util::log_error() << "LPM_TRACE disabled: " << e.what();
      return nullptr;
    }
    std::atexit(close_global_session);
    return g_global_session;
  }();
  return instance;
}

}  // namespace lpm::obs
