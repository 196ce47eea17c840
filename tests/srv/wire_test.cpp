// Framing layer: length-prefixed frames over non-blocking sockets survive
// partial writes, enforce the payload cap, and time out instead of
// blocking forever; JsonWriter emits parseable flat JSON.
#include "srv/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <string>
#include <thread>

#include "common/temp_path.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"

namespace lpm::srv {
namespace {

/// A connected non-blocking socketpair wrapped in Fd owners.
std::pair<Fd, Fd> make_pair_fds() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  return {Fd(fds[0]), Fd(fds[1])};
}

TEST(Wire, FrameRoundTrip) {
  auto [a, b] = make_pair_fds();
  const std::string payload = R"({"op":"ping","id":"x"})";
  ASSERT_EQ(write_frame(a, payload, 1'000), IoStatus::kOk);
  std::string out;
  ASSERT_EQ(read_frame(b, out, 1'000), IoStatus::kOk);
  EXPECT_EQ(out, payload);
}

TEST(Wire, EmptyFrameRoundTrip) {
  auto [a, b] = make_pair_fds();
  ASSERT_EQ(write_frame(a, "", 1'000), IoStatus::kOk);
  std::string out = "stale";
  ASSERT_EQ(read_frame(b, out, 1'000), IoStatus::kOk);
  EXPECT_EQ(out, "");
}

TEST(Wire, ManyFramesKeepOrder) {
  auto [a, b] = make_pair_fds();
  // A concurrent reader: per-send skb overhead fills a unix socket's send
  // buffer after only a few dozen tiny frames, so writing all 64 up front
  // would block on POLLOUT with nobody draining.
  std::thread writer([&a] {
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(write_frame(a, "frame-" + std::to_string(i), 5'000),
                IoStatus::kOk);
    }
  });
  std::string out;
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(read_frame(b, out, 5'000), IoStatus::kOk);
    EXPECT_EQ(out, "frame-" + std::to_string(i));
  }
  writer.join();
}

TEST(Wire, ReadTimesOutWithoutData) {
  auto [a, b] = make_pair_fds();
  std::string out;
  EXPECT_EQ(read_frame(b, out, 50), IoStatus::kTimeout);
}

TEST(Wire, ReadSeesPeerClose) {
  auto [a, b] = make_pair_fds();
  a = Fd();  // close the writer
  std::string out;
  EXPECT_EQ(read_frame(b, out, 1'000), IoStatus::kClosed);
}

TEST(Wire, OversizedPrefixClosesConnection) {
  auto [a, b] = make_pair_fds();
  // Hand-roll a prefix claiming kMaxFramePayload + 1 bytes.
  const std::uint32_t len = kMaxFramePayload + 1;
  const char prefix[4] = {static_cast<char>((len >> 24) & 0xff),
                          static_cast<char>((len >> 16) & 0xff),
                          static_cast<char>((len >> 8) & 0xff),
                          static_cast<char>(len & 0xff)};
  ASSERT_EQ(::send(a.get(), prefix, sizeof(prefix), MSG_NOSIGNAL), 4);
  std::string out;
  EXPECT_EQ(read_frame(b, out, 1'000), IoStatus::kClosed);
}

TEST(Wire, LargeFrameSurvivesPartialWrites) {
  auto [a, b] = make_pair_fds();
  // Well past any socket buffer: forces write_all/read-loop round trips.
  const std::string payload(512 * 1024, 'x');
  std::thread writer(
      [&a, &payload] { EXPECT_EQ(write_frame(a, payload, 5'000), IoStatus::kOk); });
  std::string out;
  EXPECT_EQ(read_frame(b, out, 5'000), IoStatus::kOk);
  writer.join();
  EXPECT_EQ(out.size(), payload.size());
  EXPECT_EQ(out, payload);
}

TEST(Wire, ListenerAcceptRoundTrip) {
  const std::string path = test::temp_path("listener.sock");
  ::unlink(path.c_str());
  Fd listener = listen_unix(path);
  Fd client = connect_unix(path);
  auto accepted = accept_socket(listener, 1'000);
  ASSERT_TRUE(accepted.has_value());
  ASSERT_EQ(write_frame(client, "hi", 1'000), IoStatus::kOk);
  std::string out;
  EXPECT_EQ(read_frame(*accepted, out, 1'000), IoStatus::kOk);
  EXPECT_EQ(out, "hi");
  ::unlink(path.c_str());
}

TEST(Wire, AcceptTimesOutIdle) {
  const std::string path = test::temp_path("idle.sock");
  ::unlink(path.c_str());
  Fd listener = listen_unix(path);
  EXPECT_FALSE(accept_socket(listener, 50).has_value());
  ::unlink(path.c_str());
}

TEST(Wire, AcceptReturnsPromptlyAfterShutdown) {
  // Regression: a shut-down listener polls readable-with-POLLHUP while
  // accept(2) keeps returning EAGAIN; without a deadline check the accept
  // loop spins forever and Server::stop() never joins the listener thread.
  const std::string path = test::temp_path("shutdown.sock");
  ::unlink(path.c_str());
  Fd listener = listen_unix(path);
  listener.shutdown_both();
  const auto start = std::chrono::steady_clock::now();
  try {
    // Either outcome is fine — timeout (nullopt) or a closed-listener
    // throw — as long as the call returns promptly.
    (void)accept_socket(listener, 100);
  } catch (const util::IoError&) {
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  ::unlink(path.c_str());
}

TEST(Wire, JsonWriterProducesFlatJson) {
  JsonWriter out;
  out.str("op", "done")
      .num("ipc", 1.25)
      .num_u64("cycles", 123456789012345ull)
      .boolean("degraded", true)
      .str("msg", "quote\" slash\\ newline\n tab\t");
  const util::FlatJson parsed = util::FlatJson::parse(out.finish());
  EXPECT_EQ(parsed.get_string("op").value_or(""), "done");
  EXPECT_DOUBLE_EQ(parsed.get_number("ipc").value_or(0.0), 1.25);
  EXPECT_DOUBLE_EQ(parsed.get_number("cycles").value_or(0.0),
                   123456789012345.0);
  EXPECT_TRUE(parsed.get_bool("degraded").value_or(false));
  EXPECT_EQ(parsed.get_string("msg").value_or(""),
            "quote\" slash\\ newline\n tab\t");
}

TEST(Wire, JsonWriterRawBodySplicesFragment) {
  JsonWriter inner;
  inner.str("backend", "cycle").num("ipc", 2.0);
  JsonWriter outer;
  outer.str("op", "done").raw_body(inner.body());
  const util::FlatJson parsed = util::FlatJson::parse(outer.finish());
  EXPECT_EQ(parsed.get_string("op").value_or(""), "done");
  EXPECT_EQ(parsed.get_string("backend").value_or(""), "cycle");
  EXPECT_DOUBLE_EQ(parsed.get_number("ipc").value_or(0.0), 2.0);
}

}  // namespace
}  // namespace lpm::srv
