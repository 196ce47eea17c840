// End-to-end server tests over a real Unix-domain socket: submit/stream/
// attach, idempotent resubmit, backpressure, degradation, deadlines, and
// journal-backed crash recovery (simulated by stopping one Server and
// starting another on the same journal).
#include "srv/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "obs/metrics.hpp"
#include "srv/client.hpp"
#include "srv/job_journal.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"

namespace lpm::srv {
namespace {

using std::chrono::milliseconds;

class ServerTest : public testing::Test {
 protected:
  Server::Options base_options(const std::string& tag) {
    Server::Options opts;
    opts.endpoint = test::temp_path(tag + ".sock");
    opts.journal_path = test::temp_path(tag + ".journal");
    std::remove(opts.endpoint.c_str());
    std::remove(opts.journal_path.c_str());
    opts.workers = 2;
    opts.queue_max = 64;
    opts.per_client_max = 32;
    opts.degrade_watermark = 64;  // degradation off unless a test opts in
    opts.idle_timeout_ms = 60'000;
    return opts;
  }

  JobSpec quick_spec() {
    JobSpec spec;
    spec.kind = "simulate";
    spec.workload = "403.gcc";
    spec.length = 2'000;
    return spec;
  }

  /// Polls until a frame for `id` with op in `terminal_ops` arrives;
  /// returns every frame for `id` seen on the way (acks included).
  std::vector<util::FlatJson> drain_until_terminal(Client& client,
                                                   const std::string& id) {
    std::vector<util::FlatJson> frames;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      auto frame = client.poll(200);
      if (!frame) continue;
      if (frame->get_string("id").value_or("") != id) continue;
      const std::string op = frame->get_string("op").value_or("");
      frames.push_back(std::move(*frame));
      if (op == "done" || op == "error") return frames;
    }
    ADD_FAILURE() << "no terminal frame for " << id << " within budget";
    // Sentinel so callers can still .back() without crashing the binary.
    frames.push_back(util::FlatJson::parse(R"({"op":"drain_timeout"})"));
    return frames;
  }
};

TEST(ServerOptions, WorkerCountIsBounded) {
  // A sign or a value beyond 32 bits is refused instead of wrapping into
  // billions of executor threads. Nothing here calls start(), so no
  // executor thread is created.
  for (const char* bad : {"-1", "+2", "4294967297", "2x"}) {
    ::setenv("LPMD_WORKERS", bad, 1);
    EXPECT_THROW((void)Server::Options::from_env(), util::ConfigError) << bad;
  }
  ::setenv("LPMD_WORKERS", "257", 1);
  Server::Options opts = Server::Options::from_env();
  ::unsetenv("LPMD_WORKERS");
  EXPECT_EQ(opts.workers, 257u);
  // The constructor holds the engine's thread ceiling.
  EXPECT_THROW({ Server over(opts); }, util::ConfigError);
  opts.workers = exp::kMaxThreads;
  EXPECT_NO_THROW({ Server at_ceiling(opts); });
}

TEST_F(ServerTest, SecondHelloRejected) {
  Server server(base_options("rehello"));
  server.start();

  // Hand-rolled wire session: Client never re-hellos, but the protocol
  // says exactly one hello per connection, so the server must refuse a
  // second one and close.
  Fd fd = connect_endpoint(Endpoint::parse(server.options().endpoint));
  JsonWriter hello;
  hello.str("op", "hello").str("client", "t1").num_u64("proto", 1);
  const std::string frame = hello.finish();
  ASSERT_EQ(write_frame(fd, frame, 2'000), IoStatus::kOk);
  std::string reply;
  ASSERT_EQ(read_frame(fd, reply, 5'000), IoStatus::kOk);
  ASSERT_EQ(util::FlatJson::parse(reply).get_string("op").value_or(""),
            "hello_ok");

  ASSERT_EQ(write_frame(fd, frame, 2'000), IoStatus::kOk);
  ASSERT_EQ(read_frame(fd, reply, 5'000), IoStatus::kOk);
  const util::FlatJson refusal = util::FlatJson::parse(reply);
  EXPECT_EQ(refusal.get_string("op").value_or(""), "error");
  EXPECT_EQ(refusal.get_string("code").value_or(""), "config");
  server.stop();
}

TEST_F(ServerTest, SimulateStreamsDoneFrame) {
  Server server(base_options("simulate"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  EXPECT_EQ(client.server_recovered(), 0u);
  ASSERT_TRUE(client.submit("j1", quick_spec()));
  const auto frames = drain_until_terminal(client, "j1");
  ASSERT_FALSE(frames.empty());
  const auto& done = frames.back();
  EXPECT_EQ(done.get_string("op").value_or(""), "done");
  EXPECT_EQ(done.get_string("backend").value_or(""), "cycle");
  EXPECT_GT(done.get_number("cycles").value_or(0.0), 0.0);
  EXPECT_GT(done.get_number("ipc").value_or(0.0), 0.0);
  EXPECT_FALSE(done.get_bool("degraded").value_or(true));
  server.stop();
}

TEST_F(ServerTest, SweepStreamsPointsThenDone) {
  Server server(base_options("sweep"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  auto spec = quick_spec();
  spec.kind = "sweep";
  spec.sweep_knob = "l1_kb";
  spec.sweep_values = "16,64";
  ASSERT_TRUE(client.submit("s1", spec));
  const auto frames = drain_until_terminal(client, "s1");
  std::size_t points = 0;
  for (const auto& f : frames) {
    if (f.get_string("op").value_or("") == "point") ++points;
  }
  EXPECT_EQ(points, 2u);
  const auto& done = frames.back();
  EXPECT_EQ(done.get_string("op").value_or(""), "done");
  EXPECT_EQ(done.get_number("points").value_or(0.0), 2.0);
  EXPECT_EQ(done.get_number("points_ok").value_or(0.0), 2.0);
  server.stop();
}

TEST_F(ServerTest, AnalyticBackendRuns) {
  Server server(base_options("analytic"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  auto spec = quick_spec();
  spec.backend = "rdh";
  ASSERT_TRUE(client.submit("r1", spec));
  const auto frames = drain_until_terminal(client, "r1");
  const auto& done = frames.back();
  EXPECT_EQ(done.get_string("op").value_or(""), "done");
  EXPECT_EQ(done.get_string("backend").value_or(""), "rdh");
  server.stop();
}

TEST_F(ServerTest, InvalidSpecGetsTypedError) {
  Server server(base_options("badspec"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  auto spec = quick_spec();
  spec.workload = "not-a-benchmark";
  ASSERT_TRUE(client.submit("bad1", spec));
  const auto frames = drain_until_terminal(client, "bad1");
  const auto& err = frames.back();
  EXPECT_EQ(err.get_string("op").value_or(""), "error");
  EXPECT_FALSE(err.get_string("code").value_or("").empty());
  server.stop();
}

TEST_F(ServerTest, ResubmitOfCompletedJobReplaysWithoutReexecution) {
  Server server(base_options("resubmit"));
  server.start();
  double first_cycles = 0.0;
  {
    Client client(server.options().endpoint, "t1");
    client.connect();
    ASSERT_TRUE(client.submit("j1", quick_spec()));
    const auto first = drain_until_terminal(client, "j1");
    ASSERT_EQ(first.back().get_string("op").value_or(""), "done");
    first_cycles = first.back().get_number("cycles").value_or(-1.0);
    client.disconnect();
  }
  const auto completed_before =
      obs::MetricsRegistry::global().snapshot().counter_or_zero(
          "srv.jobs.completed");
  // A client that lost the result reconnects and resubmits the same id:
  // the server must replay the recorded terminal frame, not run the job
  // again. (On the original live connection the delivery token withholds
  // the replay — the first push is already in the ordered stream.)
  Client again(server.options().endpoint, "t1");
  again.connect();
  ASSERT_TRUE(again.submit("j1", quick_spec()));
  const auto replay = drain_until_terminal(again, "j1");
  ASSERT_EQ(replay.back().get_string("op").value_or(""), "done");
  EXPECT_EQ(replay.back().get_number("cycles").value_or(-2.0), first_cycles);
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().counter_or_zero(
                "srv.jobs.completed"),
            completed_before);
  server.stop();
}

TEST_F(ServerTest, MemoCountsOneLookupPerExecutedPoint) {
  Server server(base_options("memo_counts"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  const auto count = [](const char* name) {
    return obs::MetricsRegistry::global().snapshot().counter_or_zero(name);
  };
  const std::uint64_t hits = count("srv.cache.hits");
  const std::uint64_t misses = count("srv.cache.misses");
  ASSERT_TRUE(client.submit("m1", quick_spec()));
  ASSERT_EQ(drain_until_terminal(client, "m1").back().get_string("op").value_or(""),
            "done");
  EXPECT_EQ(count("srv.cache.misses"), misses + 1) << "a cold point is one miss";
  EXPECT_EQ(count("srv.cache.hits"), hits);
  // The same point under a new id is served from the memo.
  ASSERT_TRUE(client.submit("m2", quick_spec()));
  ASSERT_EQ(drain_until_terminal(client, "m2").back().get_string("op").value_or(""),
            "done");
  EXPECT_EQ(count("srv.cache.misses"), misses + 1);
  EXPECT_EQ(count("srv.cache.hits"), hits + 1);
  server.stop();
}

TEST_F(ServerTest, RepeatedWalkIsServedFromTheEngineCache) {
  Server server(base_options("walk_twice"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  auto spec = quick_spec();
  spec.kind = "walk";
  const auto executed = [] {
    return obs::MetricsRegistry::global().snapshot().counter_or_zero(
        "exp.jobs.executed");
  };
  ASSERT_TRUE(client.submit("w1", spec));
  const util::FlatJson first = drain_until_terminal(client, "w1").back();
  ASSERT_EQ(first.get_string("op").value_or(""), "done");
  const std::uint64_t executed_before = executed();
  ASSERT_TRUE(client.submit("w2", spec));
  const util::FlatJson second = drain_until_terminal(client, "w2").back();
  ASSERT_EQ(second.get_string("op").value_or(""), "done");
  EXPECT_EQ(executed(), executed_before)
      << "the second walk must find every point in the engine cache";
  // The done frames differ only in their id.
  ASSERT_EQ(first.keys(), second.keys());
  for (const std::string& key : first.keys()) {
    if (key == "id") continue;
    EXPECT_EQ(first.get_string(key), second.get_string(key)) << key;
    EXPECT_EQ(first.get_number(key), second.get_number(key)) << key;
    EXPECT_EQ(first.get_bool(key), second.get_bool(key)) << key;
  }
  server.stop();
}

TEST_F(ServerTest, AttachUnknownJobIsTypedError) {
  Server server(base_options("attach_unknown"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  ASSERT_TRUE(client.attach("ghost"));
  const auto frames = drain_until_terminal(client, "ghost");
  EXPECT_EQ(frames.back().get_string("op").value_or(""), "error");
  EXPECT_EQ(frames.back().get_string("code").value_or(""), "unknown_job");
  server.stop();
}

TEST_F(ServerTest, AttachAfterReconnectReplaysDoneJob) {
  Server server(base_options("attach_replay"));
  server.start();
  std::string cycles;
  {
    Client client(server.options().endpoint, "t1");
    client.connect();
    ASSERT_TRUE(client.submit("j1", quick_spec()));
    const auto frames = drain_until_terminal(client, "j1");
    ASSERT_EQ(frames.back().get_string("op").value_or(""), "done");
    client.disconnect();
  }
  Client again(server.options().endpoint, "t1");
  again.connect();
  ASSERT_TRUE(again.attach("j1"));
  const auto frames = drain_until_terminal(again, "j1");
  EXPECT_EQ(frames.back().get_string("op").value_or(""), "done");
  server.stop();
}

TEST_F(ServerTest, PerClientBackpressureGivesRetryAfter) {
  auto opts = base_options("backpressure");
  opts.workers = 1;
  opts.per_client_max = 1;
  opts.retry_after_ms = 77;
  Server server(std::move(opts));
  server.start();
  Client client(server.options().endpoint, "greedy");
  client.connect();
  // Saturate the per-client budget with a slower job, then submit more.
  auto slow = quick_spec();
  slow.length = 200'000;
  ASSERT_TRUE(client.submit("slow1", slow));
  ASSERT_TRUE(client.submit("slow2", slow));
  ASSERT_TRUE(client.submit("slow3", slow));
  bool saw_retry_after = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline && !saw_retry_after) {
    const auto frame = client.poll(200);
    if (!frame) continue;
    if (frame->get_string("op").value_or("") == "retry_after") {
      saw_retry_after = true;
      EXPECT_EQ(frame->get_number("retry_after_ms").value_or(0.0), 77.0);
    }
  }
  EXPECT_TRUE(saw_retry_after);
  server.stop();
}

TEST_F(ServerTest, SaturationDegradesEligibleJobs) {
  auto opts = base_options("degrade");
  opts.workers = 1;
  opts.degrade_watermark = 0;  // every eligible job degrades
  opts.degrade_backend = "rdh";
  Server server(std::move(opts));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  ASSERT_TRUE(client.submit("d1", quick_spec()));
  const auto frames = drain_until_terminal(client, "d1");
  bool acked_degraded = false;
  for (const auto& f : frames) {
    if (f.get_string("op").value_or("") == "ack" &&
        f.get_bool("degraded").value_or(false)) {
      acked_degraded = true;
    }
  }
  EXPECT_TRUE(acked_degraded);
  const auto& done = frames.back();
  EXPECT_EQ(done.get_string("op").value_or(""), "done");
  // The response is tagged with the fidelity it actually ran at.
  EXPECT_TRUE(done.get_bool("degraded").value_or(false));
  EXPECT_EQ(done.get_string("backend").value_or(""), "rdh");
  server.stop();
}

TEST_F(ServerTest, AckPrecedesResultFrames) {
  // A memo hit finishes the moment a worker pops the job, so its done
  // frame races the submit handler's ack; the protocol orders ack first.
  auto opts = base_options("ack_order");
  opts.workers = 1;
  opts.degrade_watermark = 0;
  opts.degrade_backend = "rdh";
  Server server(std::move(opts));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  ASSERT_TRUE(client.submit("warm", quick_spec()));
  (void)drain_until_terminal(client, "warm");
  for (int i = 0; i < 20; ++i) {
    const std::string id = "hit" + std::to_string(i);
    ASSERT_TRUE(client.submit(id, quick_spec()));
    const auto frames = drain_until_terminal(client, id);
    ASSERT_GE(frames.size(), 2u) << id;
    EXPECT_EQ(frames.front().get_string("op").value_or(""), "ack") << id;
    EXPECT_EQ(frames.back().get_string("op").value_or(""), "done") << id;
  }
  server.stop();
}

TEST_F(ServerTest, DegradationRespectsDegradeOkFalse) {
  auto opts = base_options("no_degrade");
  opts.degrade_watermark = 0;
  Server server(std::move(opts));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  auto spec = quick_spec();
  spec.degrade_ok = false;
  ASSERT_TRUE(client.submit("f1", spec));
  const auto frames = drain_until_terminal(client, "f1");
  const auto& done = frames.back();
  EXPECT_EQ(done.get_string("op").value_or(""), "done");
  EXPECT_FALSE(done.get_bool("degraded").value_or(true));
  EXPECT_EQ(done.get_string("backend").value_or(""), "cycle");
  server.stop();
}

TEST_F(ServerTest, ExpiredDeadlineIsTypedTimeout) {
  auto opts = base_options("deadline");
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  // Park the single worker on a long job, then queue a job whose deadline
  // lapses while it waits.
  auto slow = quick_spec();
  slow.length = 500'000;
  ASSERT_TRUE(client.submit("slow", slow));
  auto doomed = quick_spec();
  doomed.deadline_ms = 1;
  ASSERT_TRUE(client.submit("doomed", doomed));
  const auto frames = drain_until_terminal(client, "doomed");
  const auto& err = frames.back();
  EXPECT_EQ(err.get_string("op").value_or(""), "error");
  EXPECT_EQ(err.get_string("code").value_or(""), "timeout");
  server.stop();
}

TEST_F(ServerTest, RestartRerunsPendingAndServesDoneFromJournal) {
  auto opts = base_options("restart");
  const std::string socket = opts.endpoint;
  const std::string journal = opts.journal_path;

  // Incarnation 1: complete one job normally.
  {
    Server server(opts);
    server.start();
    Client client(socket, "t1");
    client.connect();
    ASSERT_TRUE(client.submit("finished", quick_spec()));
    ASSERT_EQ(drain_until_terminal(client, "finished")
                  .back()
                  .get_string("op")
                  .value_or(""),
              "done");
    server.stop();
  }
  // Simulate a crash mid-job: append the accept record a dying daemon
  // would have left (accepted, journaled, never finished).
  {
    auto crashed = JobJournal::open(journal);
    JsonWriter spec_json;
    quick_spec().encode(spec_json);
    crashed->record_accept("t1/pending", false, spec_json.finish());
  }

  // Incarnation 2 on the same journal: the pending job reruns to
  // completion; the finished job replays from its recorded frames.
  Server server(opts);
  server.start();
  EXPECT_EQ(server.recovered_pending(), 1u);
  Client client(socket, "t1");
  client.connect();
  EXPECT_EQ(client.server_recovered(), 1u);
  ASSERT_TRUE(client.attach("pending"));
  EXPECT_EQ(drain_until_terminal(client, "pending")
                .back()
                .get_string("op")
                .value_or(""),
            "done");
  ASSERT_TRUE(client.attach("finished"));
  EXPECT_EQ(drain_until_terminal(client, "finished")
                .back()
                .get_string("op")
                .value_or(""),
            "done");
  server.stop();
}

TEST_F(ServerTest, HelloRejectsBadNames) {
  Server server(base_options("badname"));
  server.start();
  EXPECT_THROW(Client(server.options().endpoint, "bad name!"),
               util::LpmError);
  server.stop();
}

TEST_F(ServerTest, PingAndStatsRoundTrip) {
  Server server(base_options("ping"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  ASSERT_TRUE(client.ping());
  auto pong = client.poll(3'000);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->get_string("op").value_or(""), "pong");
  ASSERT_TRUE(client.request_stats());
  auto stats = client.poll(3'000);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->get_string("op").value_or(""), "stats");
  server.stop();
}

TEST_F(ServerTest, StopIsPromptAndIdempotent) {
  Server server(base_options("stop"));
  server.start();
  Client client(server.options().endpoint, "t1");
  client.connect();
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

}  // namespace
}  // namespace lpm::srv
