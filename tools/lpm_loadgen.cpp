// lpm_loadgen — soak/chaos harness for lpmd.
//
//   $ ./lpm_loadgen spawn=./tools/lpmd socket=/tmp/lpmd-soak.sock
//       journal=/tmp/lpmd-soak.journal clients=8 jobs=2000
//       kill_after=600 kills=1 fault_spec="throw@5,io@40"
//       job_timeout_ms=2000 length=4000 [metrics=soak-metrics.json]
//   (one command line; wrapped here for width)
//
// Spawns the server (fault injection via $LPM_FAULT_SPEC in its
// environment), hammers it with `jobs` mixed jobs (simulate at several
// fidelities and machine shapes, sweeps, optionally walks) from `clients`
// concurrent client threads, SIGKILLs the server after `kill_after`
// terminal results and restarts it on the same journal (`kills` times),
// then verifies the exactly-once contract. `socket` takes any
// wire::Endpoint spelling, so the same chaos runs over a unix socket or a
// TCP listener (`socket=tcp:127.0.0.1:17890`):
//
//   * every job reached EXACTLY one terminal frame (done or error) —
//     zero lost;
//   * no job's terminal frame was delivered twice — zero duplicated;
//   * refusals were typed protocol responses (retry_after / overload), all
//     of which were eventually resolved by resubmission.
//
// Clients never give up on a job: a dead connection triggers reconnect +
// attach for submitted-but-unresolved ids and resubmit for unacked ones
// (an `unknown_job` error downgrades an attach to a resubmit — the server
// died before journaling the accept, which the protocol treats as "never
// happened"; the ack is the client's durability receipt).
//
// Exit status: 0 = all invariants held, 1 = invariant violation (lost or
// duplicated results), 2 = usage error, 3 = harness failure (server
// unreachable/unspawnable).
#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "srv/client.hpp"
#include "srv/server.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace {

using namespace lpm;
using Clock = std::chrono::steady_clock;

struct HarnessConfig {
  std::string spawn;  ///< path to the lpmd binary ("" = external server)
  std::string socket = "/tmp/lpmd-soak.sock";
  std::string journal = "/tmp/lpmd-soak.journal";
  std::string fault_spec;
  std::string metrics;  ///< $LPM_METRICS for the server (exit snapshot)
  unsigned clients = 8;
  std::size_t jobs = 2000;
  std::size_t kill_after = 0;  ///< terminal results before the first SIGKILL
  unsigned kills = 1;
  std::uint64_t length = 4000;
  std::uint64_t job_timeout_ms = 2000;
  unsigned workers = 4;
  std::size_t queue_max = 512;
  std::size_t per_client_max = 24;
  std::size_t degrade_watermark = 64;
  std::size_t walk_every = 0;  ///< every Nth job is a walk (0 = none)
  std::uint64_t budget_ms = 600'000;  ///< whole-run wall budget
};

/// Per-job bookkeeping on the client side.
enum class JobState { kUnsubmitted, kSubmitted, kAcked, kTerminal };

struct JobSlot {
  std::string id;
  srv::JobSpec spec;
  JobState state = JobState::kUnsubmitted;
  int terminal_frames = 0;  ///< must end at exactly 1
  bool degraded = false;
  bool failed = false;
  Clock::time_point not_before = Clock::time_point::min();  ///< backoff gate
};

/// The mixed-job catalogue: deterministic per global job index so reruns
/// produce the same load shape.
srv::JobSpec make_spec(const HarnessConfig& cfg, std::size_t index) {
  static const char* kWorkloads[] = {"403.gcc",   "401.bzip2", "429.mcf",
                                     "410.bwaves", "456.hmmer", "462.libquantum",
                                     "444.namd",  "450.soplex"};
  srv::JobSpec spec;
  spec.workload = kWorkloads[index % (sizeof(kWorkloads) / sizeof(char*))];
  spec.length = cfg.length;
  spec.seed = 1 + index % 3;
  spec.calibrate = index % 2 == 0;
  if (cfg.walk_every != 0 && index % cfg.walk_every == cfg.walk_every - 1) {
    spec.kind = "walk";
    spec.length = std::min<std::uint64_t>(cfg.length, 2000);
    return spec;
  }
  if (index % 7 == 3) {
    spec.kind = "sweep";
    spec.sweep_knob = "l1_kb";
    spec.sweep_values = "16,32,64";
  } else {
    spec.kind = "simulate";
    // A few explicit analytic jobs ride along with the cycle majority, so
    // fidelity tagging is exercised from both directions.
    if (index % 11 == 5) spec.backend = "rdh";
    if (index % 13 == 7) spec.backend = "fa";
    spec.l1_kb = (index % 3 == 0) ? 16 : 0;
    spec.mshr = (index % 5 == 0) ? 8 : 0;
  }
  return spec;
}

/// Owns the spawned lpmd process: start, SIGKILL, restart, clean stop.
class ServerProcess {
 public:
  explicit ServerProcess(const HarnessConfig& cfg) : cfg_(cfg) {}

  void start() {
    if (cfg_.spawn.empty()) return;
    pid_ = ::fork();
    if (pid_ < 0) throw util::IoError("loadgen: fork failed");
    if (pid_ == 0) {
      ::setenv("LPMD_ENDPOINT", cfg_.socket.c_str(), 1);
      ::setenv("LPMD_JOURNAL", cfg_.journal.c_str(), 1);
      ::setenv("LPMD_WORKERS", std::to_string(cfg_.workers).c_str(), 1);
      ::setenv("LPMD_QUEUE_MAX", std::to_string(cfg_.queue_max).c_str(), 1);
      ::setenv("LPMD_PER_CLIENT_MAX",
               std::to_string(cfg_.per_client_max).c_str(), 1);
      ::setenv("LPMD_DEGRADE_WATERMARK",
               std::to_string(cfg_.degrade_watermark).c_str(), 1);
      ::setenv("LPMD_JOB_TIMEOUT_MS",
               std::to_string(cfg_.job_timeout_ms).c_str(), 1);
      if (!cfg_.fault_spec.empty()) {
        ::setenv("LPM_FAULT_SPEC", cfg_.fault_spec.c_str(), 1);
      }
      if (!cfg_.metrics.empty()) {
        ::setenv("LPM_METRICS", cfg_.metrics.c_str(), 1);
      }
      ::execl(cfg_.spawn.c_str(), cfg_.spawn.c_str(),
              static_cast<char*>(nullptr));
      std::fprintf(stderr, "loadgen: execl(%s): %s\n", cfg_.spawn.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
  }

  /// SIGKILL — no warning, no cleanup; exactly the crash the journal must
  /// survive.
  void kill_hard() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  /// Asks this incarnation to stop via the protocol (so its atexit metrics
  /// snapshot is written) and reaps it.
  void shutdown_clean() {
    if (pid_ <= 0) return;
    try {
      srv::Client control(cfg_.socket, "loadgen-control");
      control.connect(3'000);
      control.request_shutdown();
      (void)control.poll(2'000);
    } catch (const util::LpmError&) {
      ::kill(pid_, SIGTERM);
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] bool managed() const { return !cfg_.spawn.empty(); }

 private:
  const HarnessConfig& cfg_;
  pid_t pid_ = -1;
};

struct ClientStats {
  std::size_t retry_after = 0;
  std::size_t overload = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  std::size_t reconnects = 0;
  std::size_t duplicates = 0;
};

std::atomic<std::size_t> g_terminal_total{0};
std::atomic<bool> g_abort{false};

/// One client thread: owns jobs [first, first+count), drives them all to
/// terminal state through every fault the harness throws at the server.
void client_main(const HarnessConfig& cfg, unsigned client_index, std::size_t first, std::size_t count,
                 ClientStats* stats) {
  std::string name = "c";
  name += std::to_string(client_index);
  std::vector<JobSlot> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    slots[i].id = "j";
    slots[i].id += std::to_string(first + i);
    slots[i].spec = make_spec(cfg, first + i);
  }

  srv::Client client(cfg.socket, name);
  const auto deadline = Clock::now() + std::chrono::milliseconds(cfg.budget_ms);
  // In-flight window below the server's per-client cap so steady-state
  // traffic flows; retry_after still fires during restarts when the
  // recovered backlog eats the budget.
  const std::size_t window = cfg.per_client_max > 4 ? cfg.per_client_max - 4
                                                    : cfg.per_client_max;

  auto find_slot = [&](const std::string& id) -> JobSlot* {
    for (JobSlot& s : slots) {
      if (s.id == id) return &s;
    }
    return nullptr;
  };

  std::size_t terminal = 0;
  bool just_connected = false;
  while (terminal < count && Clock::now() < deadline &&
         !g_abort.load(std::memory_order_relaxed)) {
    if (!client.connected()) {
      try {
        client.connect(30'000);
      } catch (const util::IoError&) {
        g_abort.store(true);
        return;
      }
      ++stats->reconnects;
      just_connected = true;
    }
    if (just_connected) {
      // Reconcile: ask about everything in flight. Unacked submissions are
      // resubmitted outright (no ack = no durability receipt); acked ones
      // are attached (the server owes us their frames).
      just_connected = false;
      for (JobSlot& s : slots) {
        if (s.state == JobState::kAcked) {
          if (!client.attach(s.id)) break;
        } else if (s.state == JobState::kSubmitted) {
          s.state = JobState::kUnsubmitted;
          s.not_before = Clock::time_point::min();
        }
      }
      if (!client.connected()) continue;
    }

    // Top up the submission window.
    std::size_t in_flight = 0;
    for (const JobSlot& s : slots) {
      if (s.state == JobState::kSubmitted || s.state == JobState::kAcked) {
        ++in_flight;
      }
    }
    const Clock::time_point now = Clock::now();
    for (JobSlot& s : slots) {
      if (in_flight >= window) break;
      if (s.state != JobState::kUnsubmitted || now < s.not_before) continue;
      if (!client.submit(s.id, s.spec)) break;
      s.state = JobState::kSubmitted;
      ++in_flight;
    }
    if (!client.connected()) continue;

    const auto frame = client.poll(200);
    if (!frame) continue;
    const std::string op = frame->get_string("op").value_or("");
    const std::string id = frame->get_string("id").value_or("");
    JobSlot* slot = find_slot(id);
    if (slot == nullptr) continue;

    if (op == "ack") {
      if (slot->state == JobState::kSubmitted) slot->state = JobState::kAcked;
      continue;
    }
    if (op == "retry_after") {
      ++stats->retry_after;
      slot->state = JobState::kUnsubmitted;
      slot->not_before =
          Clock::now() + std::chrono::milliseconds(static_cast<std::int64_t>(
                             frame->get_number("retry_after_ms").value_or(200)));
      continue;
    }
    if (op == "point") {
      if (frame->get_bool("degraded").value_or(false)) slot->degraded = true;
      continue;
    }
    if (op == "error") {
      const std::string code = frame->get_string("code").value_or("");
      if (code == "overload") {
        ++stats->overload;
        slot->state = JobState::kUnsubmitted;
        slot->not_before =
            Clock::now() +
            std::chrono::milliseconds(static_cast<std::int64_t>(
                frame->get_number("retry_after_ms").value_or(200)));
        continue;
      }
      if (code == "unknown_job") {
        // The accept never became durable; resubmit from scratch.
        slot->state = JobState::kUnsubmitted;
        slot->not_before = Clock::time_point::min();
        continue;
      }
      // Typed job failure (sim/io/timeout/...): a valid terminal outcome.
      slot->failed = true;
      ++stats->failed;
    }
    if (op == "done" || op == "error") {
      ++slot->terminal_frames;
      if (slot->terminal_frames > 1) {
        ++stats->duplicates;
        continue;  // counted once already
      }
      if (frame->get_bool("degraded").value_or(false) || slot->degraded) {
        slot->degraded = true;
        ++stats->degraded;
      }
      slot->state = JobState::kTerminal;
      ++terminal;
      g_terminal_total.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (terminal < count) g_abort.store(true);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = util::KvConfig::from_args(argc, argv);
    HarnessConfig cfg;
    cfg.spawn = args.get_or("spawn", cfg.spawn);
    cfg.socket = args.get_or("socket", cfg.socket);
    cfg.journal = args.get_or("journal", cfg.journal);
    cfg.fault_spec = args.get_or("fault_spec", cfg.fault_spec);
    cfg.metrics = args.get_or("metrics", cfg.metrics);
    cfg.clients = static_cast<unsigned>(args.get_uint_or("clients", cfg.clients));
    cfg.jobs = args.get_uint_or("jobs", cfg.jobs);
    cfg.kill_after = args.get_uint_or("kill_after", cfg.kill_after);
    cfg.kills = static_cast<unsigned>(args.get_uint_or("kills", cfg.kills));
    cfg.length = args.get_uint_or("length", cfg.length);
    cfg.job_timeout_ms = args.get_uint_or("job_timeout_ms", cfg.job_timeout_ms);
    cfg.workers = static_cast<unsigned>(args.get_uint_or("workers", cfg.workers));
    cfg.queue_max = args.get_uint_or("queue_max", cfg.queue_max);
    cfg.per_client_max =
        args.get_uint_or("per_client_max", cfg.per_client_max);
    cfg.degrade_watermark =
        args.get_uint_or("degrade_watermark", cfg.degrade_watermark);
    cfg.walk_every = args.get_uint_or("walk_every", cfg.walk_every);
    cfg.budget_ms = args.get_uint_or("budget_ms", cfg.budget_ms);
    util::require(cfg.clients > 0 && cfg.jobs > 0,
                  "loadgen: clients and jobs must be positive");

    if (args.get_bool_or("fresh_journal", true)) ::unlink(cfg.journal.c_str());
    ServerProcess server(cfg);
    server.start();

    std::printf(
        "loadgen: %zu jobs across %u clients -> %s (faults='%s', "
        "kill_after=%zu x%u)\n",
        cfg.jobs, cfg.clients, cfg.socket.c_str(), cfg.fault_spec.c_str(),
        cfg.kill_after, cfg.kills);

    std::vector<ClientStats> stats(cfg.clients);
    std::vector<std::thread> threads;
    const std::size_t per_client = (cfg.jobs + cfg.clients - 1) / cfg.clients;
    for (unsigned c = 0; c < cfg.clients; ++c) {
      const std::size_t first = c * per_client;
      if (first >= cfg.jobs) break;
      const std::size_t count = std::min(per_client, cfg.jobs - first);
      threads.emplace_back(client_main, std::cref(cfg), c, first, count,
                           &stats[c]);
    }

    // Chaos controller: SIGKILL + restart at each kill threshold.
    unsigned kills_done = 0;
    while (server.managed() && cfg.kill_after != 0 && kills_done < cfg.kills) {
      if (g_abort.load(std::memory_order_relaxed)) break;
      const std::size_t done = g_terminal_total.load(std::memory_order_relaxed);
      if (done >= cfg.kill_after * (kills_done + 1)) {
        std::printf("loadgen: SIGKILL %s at %zu terminal results; restarting\n",
                    cfg.socket.c_str(), done);
        std::fflush(stdout);
        server.kill_hard();
        server.start();
        ++kills_done;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }

    for (std::thread& t : threads) t.join();

    // Aggregate + verdicts.
    ClientStats total;
    for (const ClientStats& s : stats) {
      total.retry_after += s.retry_after;
      total.overload += s.overload;
      total.degraded += s.degraded;
      total.failed += s.failed;
      total.reconnects += s.reconnects;
      total.duplicates += s.duplicates;
    }
    const std::size_t terminal =
        g_terminal_total.load(std::memory_order_relaxed);
    const bool lost = terminal != cfg.jobs;
    const bool aborted = g_abort.load(std::memory_order_relaxed);

    std::printf(
        "loadgen: terminal=%zu/%zu duplicates=%zu retry_after=%zu "
        "overload=%zu degraded=%zu failed=%zu reconnects=%zu kills=%u\n",
        terminal, cfg.jobs, total.duplicates, total.retry_after,
        total.overload, total.degraded, total.failed, total.reconnects,
        kills_done);

    // Clean stop so the server writes its metrics snapshot.
    server.shutdown_clean();

    if (aborted || lost || total.duplicates != 0) {
      std::fprintf(stderr,
                   "loadgen: INVARIANT VIOLATION (lost=%s duplicates=%zu "
                   "aborted=%s)\n",
                   lost ? "yes" : "no", total.duplicates,
                   aborted ? "yes" : "no");
      return 1;
    }
    std::printf("loadgen: exactly-once invariants held\n");
    return 0;
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "loadgen: io error: %s\n", e.what());
    return 3;
  } catch (const util::LpmError& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 2;
  }
}
