// Shard router: fingerprint placement, resubmit idempotency through the
// router, attach fan-out after a router restart (route table lost), a
// single synthesized unknown_job when no shard owns a key, and recovery
// after a shard restart.
#include "srv/router.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_path.hpp"
#include "srv/client.hpp"
#include "srv/job_spec.hpp"
#include "srv/server.hpp"
#include "util/error.hpp"

namespace lpm::srv {
namespace {

using Clock = std::chrono::steady_clock;

/// Two in-process shards on unix sockets (stable across restarts, unlike
/// ephemeral TCP ports) fronted by one router on ephemeral TCP.
struct Topology {
  Server::Options shard_opts(const std::string& tag, int index) {
    Server::Options opts;
    opts.endpoint = test::temp_path(tag + std::to_string(index) + ".sock");
    opts.journal_path =
        test::temp_path(tag + std::to_string(index) + ".journal");
    std::remove(opts.endpoint.c_str());
    std::remove(opts.journal_path.c_str());
    opts.workers = 1;
    return opts;
  }

  explicit Topology(const std::string& tag) {
    for (int i = 0; i < 2; ++i) {
      shards.push_back(std::make_unique<Server>(shard_opts(tag, i)));
      shards.back()->start();
    }
    Router::Options opts;
    opts.endpoint = "tcp:127.0.0.1:0";
    for (const auto& shard : shards) {
      opts.shards.push_back(shard->options().endpoint);
    }
    router = std::make_unique<Router>(opts);
    router->start();
  }

  std::vector<std::unique_ptr<Server>> shards;
  std::unique_ptr<Router> router;
};

JobSpec quick_spec(std::uint64_t seed) {
  JobSpec spec;
  spec.backend = "rdh";  // analytic: instant
  spec.length = 1000;
  spec.seed = seed;
  return spec;
}

/// Polls until `id`'s terminal frame or the deadline; returns the op.
/// Only for a single outstanding id — frames for other ids are discarded.
std::string wait_terminal(Client& client, const std::string& id,
                          int budget_ms = 20'000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  while (Clock::now() < deadline) {
    const auto frame = client.poll(200);
    if (!frame) continue;
    if (frame->get_string("id").value_or("") != id) continue;
    const std::string op = frame->get_string("op").value_or("");
    if (op == "done" || op == "error") return op;
  }
  return "";
}

/// Polls one stream collecting the terminal op for every id in `ids` —
/// terminals from different shards interleave in any order, so waiting
/// per-id would drop the others' frames.
std::map<std::string, std::string> wait_terminals(
    Client& client, const std::vector<std::string>& ids,
    int budget_ms = 30'000) {
  std::map<std::string, std::string> terminal;
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  while (terminal.size() < ids.size() && Clock::now() < deadline) {
    const auto frame = client.poll(200);
    if (!frame) continue;
    const std::string op = frame->get_string("op").value_or("");
    if (op != "done" && op != "error") continue;
    terminal[frame->get_string("id").value_or("")] = op;
  }
  return terminal;
}

TEST(Router, SpreadsJobsAcrossShardsByFingerprint) {
  Topology topo("spread");
  Client client(topo.router->bound_endpoint(), "t1");
  client.connect(10'000);

  // Pick seeds whose fingerprints land on both shards, so the test really
  // exercises placement (not just one lucky backend).
  bool saw_shard[2] = {false, false};
  std::vector<std::string> ids;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    JobSpec spec = quick_spec(seed);
    saw_shard[spec.shard_fingerprint() % 2] = true;
    const std::string id = "j" + std::to_string(seed);
    ids.push_back(id);
    ASSERT_TRUE(client.submit(id, spec));
  }
  ASSERT_TRUE(saw_shard[0] && saw_shard[1])
      << "seed set degenerate: widen it so both shards receive jobs";

  const auto terminal = wait_terminals(client, ids);
  for (const std::string& id : ids) {
    auto it = terminal.find(id);
    EXPECT_TRUE(it != terminal.end() && it->second == "done") << id;
  }
  // Terminal frames evict learned routes, so after every job is done the
  // table is empty again — the router does not leak one entry per job
  // ever submitted.
  EXPECT_EQ(topo.router->route_count(), 0u);
}

TEST(Router, SecondHelloRejectedWithoutCrash) {
  Topology topo("rehello");

  // Hand-rolled wire session: Client never re-hellos, but a misbehaving
  // peer can — the router must refuse (a redial would move-assign over a
  // live, joinable pump thread: std::terminate) and drop the session.
  Fd fd = connect_endpoint(Endpoint::parse(topo.router->bound_endpoint()));
  JsonWriter hello;
  hello.str("op", "hello").str("client", "t1").num_u64("proto", 1);
  const std::string frame = hello.finish();
  ASSERT_EQ(write_frame(fd, frame, 2'000), IoStatus::kOk);
  std::string reply;
  ASSERT_EQ(read_frame(fd, reply, 10'000), IoStatus::kOk);
  ASSERT_EQ(util::FlatJson::parse(reply).get_string("op").value_or(""),
            "hello_ok");

  ASSERT_EQ(write_frame(fd, frame, 2'000), IoStatus::kOk);
  ASSERT_EQ(read_frame(fd, reply, 10'000), IoStatus::kOk);
  const util::FlatJson refusal = util::FlatJson::parse(reply);
  EXPECT_EQ(refusal.get_string("op").value_or(""), "error");
  EXPECT_EQ(refusal.get_string("code").value_or(""), "config");

  // The router must survive the offender and keep serving fresh sessions.
  Client client(topo.router->bound_endpoint(), "t2");
  client.connect(10'000);
  ASSERT_TRUE(client.submit("j1", quick_spec(1)));
  EXPECT_EQ(wait_terminal(client, "j1"), "done");
}

TEST(Router, ResubmitReplaysRecordedFramesOnce) {
  Topology topo("resub");
  Client client(topo.router->bound_endpoint(), "t1");
  client.connect(10'000);

  ASSERT_TRUE(client.submit("j1", quick_spec(1)));
  ASSERT_EQ(wait_terminal(client, "j1"), "done");

  // Resubmit of a completed key after a reconnect (the loadgen's lost-ack
  // path): the owning shard replays its recorded frames — exactly one more
  // done, never a second execution or a duplicate. On the *same* live
  // connection the replay is suppressed (the client already has the
  // frames); reconnecting is what licenses it.
  client.disconnect();
  client.connect(10'000);
  ASSERT_TRUE(client.submit("j1", quick_spec(1)));
  ASSERT_EQ(wait_terminal(client, "j1"), "done");
  int extra_terminals = 0;
  const auto quiet = Clock::now() + std::chrono::milliseconds(500);
  while (Clock::now() < quiet) {
    const auto frame = client.poll(100);
    if (frame && frame->get_string("op").value_or("") == "done") {
      ++extra_terminals;
    }
  }
  EXPECT_EQ(extra_terminals, 0) << "replay delivered a duplicate terminal";
}

TEST(Router, AttachAfterRouterRestartFansOutToOwner) {
  Topology topo("restart");
  {
    Client client(topo.router->bound_endpoint(), "t1");
    client.connect(10'000);
    ASSERT_TRUE(client.submit("j1", quick_spec(3)));
    ASSERT_EQ(wait_terminal(client, "j1"), "done");
  }

  // New router, same shards: the learned route table is gone, so attach
  // must find the owner by fan-out — and suppress the non-owner's
  // unknown_job, which would otherwise license an unsafe resubmit.
  topo.router->stop();
  Router::Options opts;
  opts.endpoint = "tcp:127.0.0.1:0";
  for (const auto& shard : topo.shards) {
    opts.shards.push_back(shard->options().endpoint);
  }
  Router fresh(opts);
  fresh.start();

  Client again(fresh.bound_endpoint(), "t1");
  again.connect(10'000);
  ASSERT_TRUE(again.attach("j1"));
  bool done = false;
  bool unknown = false;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline && !done) {
    const auto frame = again.poll(200);
    if (!frame) continue;
    const std::string op = frame->get_string("op").value_or("");
    if (op == "done") done = true;
    if (op == "error" &&
        frame->get_string("code").value_or("") == "unknown_job") {
      unknown = true;
    }
  }
  EXPECT_TRUE(done) << "owner shard's replay never arrived through fan-out";
  EXPECT_FALSE(unknown) << "non-owner unknown_job leaked through the router";
  fresh.stop();
}

TEST(Router, UnknownKeyYieldsExactlyOneUnknownJob) {
  Topology topo("unknown");
  Client client(topo.router->bound_endpoint(), "t1");
  client.connect(10'000);

  ASSERT_TRUE(client.attach("never-submitted"));
  int unknowns = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    const auto frame = client.poll(200);
    if (!frame) continue;
    if (frame->get_string("op").value_or("") == "error" &&
        frame->get_string("code").value_or("") == "unknown_job") {
      ++unknowns;
    }
  }
  EXPECT_EQ(unknowns, 1)
      << "fan-out must collapse N shard unknown_jobs into exactly one";
}

TEST(Router, ClientRecoversAfterShardRestart) {
  Topology topo("failover");
  Client client(topo.router->bound_endpoint(), "t1");
  client.connect(10'000);

  ASSERT_TRUE(client.submit("j1", quick_spec(5)));
  ASSERT_EQ(wait_terminal(client, "j1"), "done");

  // Restart one shard on its endpoint + journal. The router kills the
  // session (upstream lost); the client reconnects through the router and
  // attach replays the done job from the surviving journal.
  const Server::Options opts = topo.shards[0]->options();
  topo.shards[0]->stop();
  topo.shards[0] = std::make_unique<Server>(opts);
  topo.shards[0]->start();

  const auto deadline = Clock::now() + std::chrono::seconds(15);
  bool replayed = false;
  while (Clock::now() < deadline && !replayed) {
    if (!client.connected()) {
      try {
        client.connect(10'000);
      } catch (const util::IoError&) {
        break;
      }
      ASSERT_TRUE(client.attach("j1"));
    }
    const auto frame = client.poll(200);
    if (frame && frame->get_string("op").value_or("") == "done") {
      replayed = true;
    }
    if (!frame && client.connected()) {
      // Session may still be the pre-restart one; poke it so the dead
      // upstream surfaces as a disconnect.
      (void)client.attach("j1");
    }
  }
  EXPECT_TRUE(replayed);
}

}  // namespace
}  // namespace lpm::srv
