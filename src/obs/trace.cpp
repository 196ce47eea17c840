#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>

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

using util::json_escape;

std::string format_args(const TraceArgs& args) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    os << (i == 0 ? "" : ",") << '"' << json_escape(args[i].first)
       << "\":" << args[i].second;
  }
  os << '}';
  return os.str();
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
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
     << json_escape(cat)
     << "\",\"ph\":\"X\",\"ts\":" << start_us << ",\"dur\":" << dur_us
     << ",\"pid\":1,\"tid\":" << trace_tid()
     << ",\"args\":" << format_args(args) << '}';
  emit(os.str());
}

void TraceSession::counter_event(const std::string& name, std::uint64_t ts_us,
                                 const TraceArgs& values) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name)
     << "\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":" << ts_us
     << ",\"pid\":1,\"tid\":0,\"args\":" << format_args(values) << '}';
  emit(os.str());
}

void TraceSession::instant_event(const std::string& name,
                                 const std::string& cat, std::uint64_t ts_us,
                                 const TraceArgs& args) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
     << json_escape(cat)
     << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us
     << ",\"pid\":1,\"tid\":" << trace_tid()
     << ",\"args\":" << format_args(args) << '}';
  emit(os.str());
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
