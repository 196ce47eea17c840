// lpmd — the LPM job server daemon.
//
//   $ ./lpmd [endpoint=/tmp/lpmd.sock] [journal=] [workers=2]
//            [queue_max=256] [per_client_max=32] [degrade_watermark=128]
//            [job_timeout_ms=0]
//
// `endpoint` takes any wire::Endpoint spelling ("unix:<path>",
// "tcp:<host>:<port>", bare unix path).
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
// twice (tools/lpm_loadgen.cpp asserts exactly that).
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "srv/server.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace {

std::atomic<lpm::srv::Server*> g_server{nullptr};

/// An unsigned argument that must fit `unsigned`: a plain cast would wrap
/// workers=4294967297 to 1.
unsigned get_unsigned_or(const lpm::util::KvConfig& args, const char* key,
                         unsigned dflt) {
  const std::uint64_t v = args.get_uint_or(key, dflt);
  if (v > UINT_MAX) {
    throw lpm::util::ConfigError(std::string(key) + "=" + std::to_string(v) +
                                 " does not fit in 32 bits");
  }
  return static_cast<unsigned>(v);
}

void handle_signal(int) {
  // async-signal-safe: just flag the serve loop down via stop-requested.
  lpm::srv::Server* server = g_server.load();
  if (server != nullptr) server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lpm;
  try {
    const auto args = util::KvConfig::from_args(argc, argv);
    srv::Server::Options opts = srv::Server::Options::from_env();
    opts.endpoint = args.get_or("endpoint", opts.endpoint);
    opts.journal_path = args.get_or("journal", opts.journal_path);
    opts.workers = get_unsigned_or(args, "workers", opts.workers);
    opts.queue_max = args.get_uint_or("queue_max", opts.queue_max);
    opts.per_client_max =
        args.get_uint_or("per_client_max", opts.per_client_max);
    opts.degrade_watermark =
        args.get_uint_or("degrade_watermark", opts.degrade_watermark);
    opts.degrade_backend = args.get_or("degrade_backend", opts.degrade_backend);
    opts.job_timeout_ms = args.get_uint_or("job_timeout_ms", opts.job_timeout_ms);
    opts.max_retries = get_unsigned_or(args, "max_retries", opts.max_retries);
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
