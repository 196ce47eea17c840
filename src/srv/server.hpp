// lpmd server: a crash-safe LPM job daemon over a Unix-domain or TCP
// socket (one listen endpoint per process; see wire::Endpoint).
//
// Threads:
//   * one listener thread accepts connections and reaps idle/dead ones;
//   * one reader thread per connection parses request frames and answers
//     admission verdicts inline (submit/attach/ping/stats/shutdown);
//   * `workers` executor threads pop admitted jobs round-robin-fairly from
//     the AdmissionQueue and run them on one shared ExperimentEngine.
//
// The engine is configured serial (threads = 1): a serial engine executes
// each job inline on the calling thread, and run_batch_outcomes() is safe
// to call concurrently, so the executor threads *are* the worker pool —
// no double-layered queueing, and the engine watchdog still bounds every
// execution. The engine's own memo cache is disabled (it never evicts);
// the server's util::Memo of rendered result fragments, keyed by job
// fingerprint and bounded by `memo_bytes`, is the only cache.
//
// Exactly-once delivery (with a journal configured):
//   execute → journal result frames → journal done → deliver frames.
// Submit is idempotent per job key ("client/id"): resubmitting a completed
// key replays its recorded frames, resubmitting an in-flight key acks
// `pending`, so a client that lost an ack can always retry safely. On
// restart, jobs journaled accept-but-not-done are re-enqueued and rerun;
// completed jobs answer `attach` from their recorded frames without
// re-executing. See job_journal.hpp for why no interleaving of crash and
// delivery can double-execute or drop a job.
//
// Overload behaviour is the AdmissionQueue's three rings (fairness
// retry_after, fidelity degradation, typed overload shed); see
// admission.hpp. Every response that refuses work carries a machine-
// readable reason, never a dropped connection.
//
// Protocol (flat JSON frames; the authoritative spec with every field is
// docs/PROTOCOL.md, locked to the code by tests/srv/protocol_doc_test):
//   -> {"op":"hello","client":<name>,"proto":1}
//   <- {"op":"hello_ok","proto":1,"recovered":<n>}
//    | {"op":"error","code":"unsupported_proto",...}   (proto too new)
//   -> {"op":"submit","id":<id>, "job_*": ...}      (see job_spec.hpp)
//   <- {"op":"ack","id","status":"queued"|"pending","degraded":b}
//    | {"op":"retry_after","id","retry_after_ms":n}
//    | {"op":"error","id","code":"overload"|...,"message"}
//    | recorded frames (resubmit of a completed key)
//   -> {"op":"attach","id"}
//   <- recorded frames | {"op":"ack","id","status":"pending"}
//    | {"op":"error","id","code":"unknown_job"}
//   -> {"op":"ping"} <- {"op":"pong"}
//   -> {"op":"stats"} <- {"op":"stats",...}
//   -> {"op":"shutdown"} <- {"op":"shutdown_ok"}   (then the server stops)
// Result frames: zero or more {"op":"point","id","seq","of",...} (sweep
// points) followed by exactly one terminal frame per job key:
// {"op":"done","id",...} or {"op":"error","id","code","message"}.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "obs/metrics.hpp"
#include "srv/admission.hpp"
#include "srv/job_journal.hpp"
#include "srv/wire.hpp"
#include "util/memo.hpp"

namespace lpm::srv {

/// Client/job-id charset rule: [A-Za-z0-9._-]+, at most 64 chars. Keeps
/// job keys single-token in journal lines and safe in engine tags.
[[nodiscard]] bool valid_name(const std::string& name);

class Server {
 public:
  struct Options {
    /// Listen address: "unix:<path>", "tcp:<host>:<port>", or a bare unix
    /// path (see wire::Endpoint). "tcp:127.0.0.1:0" binds an ephemeral
    /// port — read it back with bound_endpoint() after start().
    std::string endpoint = "/tmp/lpmd.sock";
    /// Crash-recovery journal; empty disables (jobs die with the process).
    std::string journal_path;
    unsigned workers = 2;
    std::size_t queue_max = 256;
    std::size_t per_client_max = 32;
    std::size_t degrade_watermark = 128;
    std::string degrade_backend = "rdh";
    std::uint64_t retry_after_ms = 200;
    std::uint64_t memo_bytes = 8u << 20;
    /// Engine watchdog budget per job execution (0 = none).
    std::uint64_t job_timeout_ms = 0;
    unsigned max_retries = 1;
    /// A connection with no complete frame for this long is reaped.
    std::uint64_t idle_timeout_ms = 30'000;
    /// Per-frame write budget; a client draining slower than this is
    /// reaped rather than allowed to pin a sender.
    int io_timeout_ms = 5'000;

    /// Reads the LPMD_* environment knobs over these defaults (see
    /// docs/OPERATIONS.md): LPMD_ENDPOINT, LPMD_JOURNAL, LPMD_WORKERS,
    /// LPMD_QUEUE_MAX, LPMD_PER_CLIENT_MAX, LPMD_DEGRADE_WATERMARK,
    /// LPMD_DEGRADE_BACKEND, LPMD_RETRY_AFTER_MS, LPMD_MEMO_BYTES,
    /// LPMD_JOB_TIMEOUT_MS, LPMD_MAX_RETRIES, LPMD_IDLE_TIMEOUT_MS.
    [[nodiscard]] static Options from_env();
  };

  explicit Server(Options opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket, recovers the journal, starts listener + executors.
  void start();
  /// Blocks until stop() (or a client shutdown frame). start() implied.
  void serve();
  /// Idempotent; wakes and joins every thread, closes every connection.
  void stop();
  /// Asks serve() to wind down without blocking; async-signal-safe (one
  /// relaxed store), which is why lpmd's signal handlers use it instead of
  /// stop().
  void request_stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Options& options() const { return opts_; }
  /// The canonical endpoint the listener actually bound — for TCP this
  /// resolves an ephemeral ":0" port request. Valid after start().
  [[nodiscard]] const std::string& bound_endpoint() const {
    return bound_endpoint_;
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  /// Jobs re-enqueued from the journal at start().
  [[nodiscard]] std::size_t recovered_pending() const {
    return recovered_pending_;
  }

 private:
  enum class JobPhase { kQueued, kRunning, kDone };

  struct Connection;

  struct JobState {
    JobPhase phase = JobPhase::kQueued;
    bool degraded = false;
    /// All frames of a done job, in delivery order (points then terminal).
    std::vector<std::string> frames;
    /// The connection the frames were (or are being) delivered on. Guards
    /// the push/attach race: a completion push and a concurrent attach or
    /// resubmit replay on the *same live connection* must not both send the
    /// frames — the client would count a duplicated result. A different
    /// (re)connection always gets a replay, and a failed push clears the
    /// token so the client's next attach replays. Guarded by jobs_mutex_.
    std::weak_ptr<Connection> delivered_conn;
  };

  struct Connection {
    Fd fd;
    std::string client;  ///< empty until hello
    std::mutex write_mutex;
    std::atomic<std::chrono::steady_clock::rep> last_activity{0};
    std::atomic<bool> dead{false};
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void listener_loop();
  void reader_loop(ConnPtr conn);
  void executor_loop();

  /// Dispatches one request frame; returns false to close the connection.
  bool handle_frame(const ConnPtr& conn, const std::string& payload);
  void handle_submit(const ConnPtr& conn, const util::FlatJson& frame);
  void handle_attach(const ConnPtr& conn, const util::FlatJson& frame);

  /// Runs one admitted job to its recorded frames (execution, rendering,
  /// journaling) and delivers them. Never throws.
  void execute_job(QueuedJob job);
  /// Renders one engine outcome into a body fragment and stores it in the
  /// memo (the lookup that missed was counted before execution).
  std::string outcome_fragment(const exp::SimJob& job,
                               const exp::SimJobOutcome& outcome);
  /// Journals frames + done for `key`, stores them, then delivers.
  /// `failed` picks which completion counter the job lands in.
  void finish_job(const std::string& key, const std::string& client,
                  std::vector<std::string> frames, bool failed);

  /// Sends a frame on a connection (write-mutex held inside); marks the
  /// connection dead on timeout/close so the reaper collects it.
  void send_frame(const ConnPtr& conn, const std::string& payload);
  /// send_frame for a caller that already holds conn->write_mutex.
  void send_frame_locked(const ConnPtr& conn, const std::string& payload);
  /// Replays a done job's frames to `conn` unless that very connection is
  /// already receiving them from the completion push. Caller must NOT hold
  /// jobs_mutex_.
  void replay_done_job(const ConnPtr& conn, const std::string& key);

  void reap_idle_connections();

  Options opts_;
  AdmissionQueue queue_;
  /// Rendered result fragments by job fingerprint; 0 bytes disables.
  util::Memo<std::uint64_t, std::string> memo_;
  std::unique_ptr<exp::ExperimentEngine> engine_;
  std::unique_ptr<JobJournal> journal_;
  std::size_t recovered_pending_ = 0;

  Endpoint listen_endpoint_;
  std::string bound_endpoint_;
  Fd listener_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread listener_thread_;
  std::vector<std::thread> executors_;

  std::mutex conns_mutex_;
  /// Reader threads paired with their connections; pruned by the listener.
  std::vector<std::pair<std::thread, ConnPtr>> readers_;
  /// Latest live connection per hello'd client name.
  std::unordered_map<std::string, ConnPtr> clients_;

  /// Lock order: a connection's write_mutex, then the admission queue's
  /// lock, then jobs_mutex_. No frame is written while jobs_mutex_ is held.
  std::mutex jobs_mutex_;
  std::unordered_map<std::string, JobState> jobs_;

  obs::MetricsRegistry::Counter conns_accepted_;
  obs::MetricsRegistry::Counter tcp_conns_accepted_;
  obs::MetricsRegistry::Counter conns_reaped_;
  obs::MetricsRegistry::Counter frames_received_;
  obs::MetricsRegistry::Counter frames_sent_;
  obs::MetricsRegistry::Counter jobs_completed_;
  obs::MetricsRegistry::Counter jobs_failed_;
  obs::MetricsRegistry::Counter jobs_deadline_expired_;
  obs::MetricsRegistry::Counter jobs_recovered_;
  obs::MetricsRegistry::Counter cache_hits_;
  obs::MetricsRegistry::Counter cache_misses_;
  obs::MetricsRegistry::Counter cache_evictions_;
  obs::MetricsRegistry::Gauge cache_bytes_;
  obs::MetricsRegistry::Gauge tcp_port_;
  obs::MetricsRegistry::Histogram queue_wait_ms_;
  obs::MetricsRegistry::Histogram service_ms_;
};

}  // namespace lpm::srv
