// TraceSession guarantees: the file is one syntactically valid JSON array
// regardless of how many threads emit, close() is idempotent and final, and
// a null session makes every span free.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace lpm::obs {
namespace {

std::string temp_trace_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal structural JSON check: balanced {}/[] outside strings, array
/// shape. The CI observability job runs `python -m json.tool` on the real
/// artifact; this keeps the guarantee covered in plain ctest too.
bool json_structure_ok(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(TraceSession, WritesValidJsonArray) {
  const std::string path = temp_trace_path("lpm_trace_test_basic.json");
  {
    TraceSession session(path);
    const auto t0 = session.now_us();
    session.complete_event("span.a", "test", t0, 10, {{"x", 1.5}});
    session.counter_event("counter.b", session.now_us(),
                          {{"v1", 1.0}, {"v2", 2.0}});
    session.instant_event("mark.c", "test", session.now_us());
    EXPECT_EQ(session.events_written(), 3u);
    session.close();
  }
  const std::string body = slurp(path);
  EXPECT_TRUE(json_structure_ok(body)) << body;
  EXPECT_EQ(body.front(), '[');
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(body.find("\"span.a\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TraceSession, CloseIsIdempotentAndFinal) {
  const std::string path = temp_trace_path("lpm_trace_test_close.json");
  TraceSession session(path);
  session.instant_event("before", "test", session.now_us());
  session.close();
  session.close();  // idempotent
  session.instant_event("after", "test", session.now_us());  // no-op
  EXPECT_EQ(session.events_written(), 1u);
  const std::string body = slurp(path);
  EXPECT_TRUE(json_structure_ok(body)) << body;
  EXPECT_EQ(body.find("after"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TraceSession, UnwritablePathThrows) {
  EXPECT_THROW(TraceSession("/nonexistent-dir/trace.json"), util::LpmError);
}

TEST(TraceSession, ConcurrentEmittersProduceValidJson) {
  const std::string path = temp_trace_path("lpm_trace_test_mt.json");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  {
    TraceSession session(path);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ScopedSpan span(&session, "worker.span", "test");
          span.arg("thread", static_cast<double>(t));
          span.arg("i", static_cast<double>(i));
        }
      });
    }
    for (auto& th : threads) th.join();
    session.close();
    EXPECT_EQ(session.events_written(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
  }
  const std::string body = slurp(path);
  EXPECT_TRUE(json_structure_ok(body));
  // Distinct tids: each worker shows up as its own Perfetto track.
  std::set<std::string> tids;
  for (auto pos = body.find("\"tid\":"); pos != std::string::npos;
       pos = body.find("\"tid\":", pos + 1)) {
    const auto start = pos + 6;
    const auto end = body.find_first_of(",}", start);
    tids.insert(body.substr(start, end - start));
  }
  EXPECT_GE(tids.size(), 2u);
  std::filesystem::remove(path);
}

TEST(TraceSession, EscapesSpecialCharactersInNames) {
  const std::string path = temp_trace_path("lpm_trace_test_escape.json");
  {
    TraceSession session(path);
    session.instant_event("quote\"back\\slash\nnewline", "test",
                          session.now_us());
    session.close();
  }
  const std::string body = slurp(path);
  EXPECT_TRUE(json_structure_ok(body)) << body;
  // Names go through util::json_escape: quotes and backslashes gain
  // escapes, and the newline survives as \n instead of being flattened.
  EXPECT_NE(body.find("quote\\\"back\\\\slash\\nnewline"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ScopedSpan, NullSessionIsFree) {
  ScopedSpan span(nullptr, "never.emitted", "test");
  span.arg("ignored", 1.0);
  // Destructor must not crash; nothing to assert beyond surviving.
  SUCCEED();
}

TEST(ObsSpanMacro, CompilesAndIsNoOpWhenTracingOff) {
  // LPM_TRACE is unset under ctest, so global() is null and the macro span
  // must cost (and do) nothing.
  OBS_SPAN("macro.test", "test");
  SUCCEED();
}

TEST(TraceSession, TimestampsAreMonotonic) {
  const std::string path = temp_trace_path("lpm_trace_test_ts.json");
  TraceSession session(path);
  const auto a = session.now_us();
  const auto b = session.now_us();
  EXPECT_LE(a, b);
  session.close();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lpm::obs
