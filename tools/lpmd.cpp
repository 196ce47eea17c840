// lpmd — the LPM job server daemon, and (with shards=) the shard router.
//
//   $ ./lpmd [endpoint=/tmp/lpmd.sock] [journal=] [workers=2]
//            [queue_max=256] [per_client_max=32] [degrade_watermark=128]
//            [job_timeout_ms=0]
//   $ ./lpmd endpoint=tcp:127.0.0.1:7800 \
//            shards=tcp:127.0.0.1:7801,tcp:127.0.0.1:7802
//
// `endpoint` takes any wire::Endpoint spelling ("unix:<path>",
// "tcp:<host>:<port>", bare unix path).
// With `shards=` the process runs as a srv::Router in front of the listed
// backend lpmd endpoints instead of serving jobs itself (see
// docs/OPERATIONS.md for the full topology recipe).
//
// Configuration layering: defaults < LPMD_* environment < key=value args
// (the env knobs are what CI and the soak harness drive; see
// docs/OPERATIONS.md). Runs in the foreground until SIGINT/SIGTERM or a
// client shutdown frame; exit status 0 = clean stop, 2 = config error,
// 3 = I/O error (socket/journal unusable).
//
// Crash recovery is the point: kill -9 this process mid-load and restart
// it on the same journal — accepted-but-unfinished jobs rerun, finished
// jobs answer attach from the journal, and no job is lost or delivered
// twice (tools/lpm_loadgen.cpp asserts exactly that, now across shards).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "srv/router.hpp"
#include "srv/server.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace {

std::atomic<lpm::srv::Server*> g_server{nullptr};
std::atomic<lpm::srv::Router*> g_router{nullptr};

void handle_signal(int) {
  // async-signal-safe: just flag the serve loop down via stop-requested.
  lpm::srv::Server* server = g_server.load();
  if (server != nullptr) server->request_stop();
  lpm::srv::Router* router = g_router.load();
  if (router != nullptr) router->request_stop();
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > pos) out.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

int run_router(const lpm::util::KvConfig& args, const std::string& endpoint,
               const std::string& shards_csv) {
  using namespace lpm;
  srv::Router::Options opts;
  opts.endpoint = endpoint;
  opts.shards = split_list(shards_csv);
  opts.upstream_connect_budget_ms = args.get_uint_or(
      "upstream_connect_budget_ms", opts.upstream_connect_budget_ms);
  opts.idle_timeout_ms =
      args.get_uint_or("idle_timeout_ms", opts.idle_timeout_ms);

  srv::Router router(opts);
  g_router.store(&router);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  router.start();
  std::printf("lpmd: routing %s across %zu shard(s)\n",
              router.bound_endpoint().c_str(), opts.shards.size());
  std::fflush(stdout);
  router.serve();
  g_router.store(nullptr);
  std::printf("lpmd: router stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lpm;
  try {
    const auto args = util::KvConfig::from_args(argc, argv);
    srv::Server::Options opts = srv::Server::Options::from_env();
    opts.endpoint = args.get_or("endpoint", opts.endpoint);

    const std::string shards = args.get_or("shards", "");
    if (!shards.empty()) return run_router(args, opts.endpoint, shards);

    opts.journal_path = args.get_or("journal", opts.journal_path);
    opts.workers =
        static_cast<unsigned>(args.get_uint_or("workers", opts.workers));
    opts.queue_max = args.get_uint_or("queue_max", opts.queue_max);
    opts.per_client_max =
        args.get_uint_or("per_client_max", opts.per_client_max);
    opts.degrade_watermark =
        args.get_uint_or("degrade_watermark", opts.degrade_watermark);
    opts.degrade_backend = args.get_or("degrade_backend", opts.degrade_backend);
    opts.job_timeout_ms = args.get_uint_or("job_timeout_ms", opts.job_timeout_ms);
    opts.max_retries =
        static_cast<unsigned>(args.get_uint_or("max_retries", opts.max_retries));
    opts.idle_timeout_ms =
        args.get_uint_or("idle_timeout_ms", opts.idle_timeout_ms);

    srv::Server server(opts);
    g_server.store(&server);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    server.start();
    std::printf("lpmd: listening on %s (workers=%u queue_max=%zu journal=%s)\n",
                server.bound_endpoint().c_str(), opts.workers, opts.queue_max,
                opts.journal_path.empty() ? "off" : opts.journal_path.c_str());
    std::fflush(stdout);
    server.serve();
    g_server.store(nullptr);
    std::printf("lpmd: stopped\n");
    return 0;
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "lpmd: io error: %s\n", e.what());
    return 3;
  } catch (const util::LpmError& e) {
    std::fprintf(stderr, "lpmd: %s\n", e.what());
    return 2;
  }
}
