// The experiment engine: every simulation in the repo runs through here.
//
// Consumers (the LPM design-space walk, the NUCA scheduler evaluation, the
// paper-artefact benches, the examples) used to hand-roll a serial
// build-System-run-collect loop each. The engine replaces those loops with
// one abstraction:
//
//  * a SimJob describes one experiment point: a MachineConfig, one
//    WorkloadProfile per core, and whether to also run the perfect-cache
//    CPIexe calibration;
//  * a fixed-size worker pool runs independent sim::System instances
//    concurrently (each System is fully self-contained, so the parallelism
//    is embarrassing once construction is job-local);
//  * a byte-budgeted result cache (util::Memo) keyed by a stable job
//    fingerprint serves repeated points while they fit its budget — the
//    LPM threshold loop and the benches get repeated evaluations for free,
//    and an evicted point is simply simulated again;
//  * an optional ResultSink receives one structured (CSV / JSON lines)
//    record per job, replacing ad-hoc printf tables for machine-readable
//    output.
//
// Determinism: simulations are seeded and share no mutable state, results
// are returned in submission order, and cache lookups, inserts (so also
// evictions) and sink records happen on the submitting thread in order —
// so N workers are bit-identical to serial (tests/exp/experiment_engine_test).
//
// Fault tolerance: a job failure is data, not control flow. Every job in a
// batch produces a SimJobOutcome — result or a typed (ErrorCode, message)
// pair — and a FailurePolicy decides whether one failure cancels the rest
// of the batch (fail-fast) or the sweep keeps going (collect-and-continue).
// Failed executions retry up to max_retries times with deterministic,
// seeded jittered backoff; a watchdog thread cancels over-budget jobs
// cooperatively through sim::RunGuard (never by killing a thread). A
// FaultPlan injects failures at chosen executed-point indices so all of
// these paths are testable (tests/exp/fault_injection_test.cpp).
//
// Concurrency core (DESIGN.md "Engine concurrency"): the job queue is one
// mutex + condition variable + deque. A submitter pushes all of a batch's
// groups under one lock acquisition and wakes the pool once; workers block
// on the condition variable while the deque is empty. Outcomes land in
// per-group cache-line-aligned slots (single writer each) and are merged
// back into submission order on the submitting thread — merge-on-read, the
// same shape src/obs uses for metric shards — which is what keeps N
// workers bit-identical to serial. Each calibrating cycle job also gets a
// warm task, queued ahead of the batch's groups, that runs the job's
// CPIexe calibrations on an otherwise idle worker while the job simulates
// (sim::cached_cpi_exe's single flight makes the two meet, never repeat).
//
// Observability: the engine publishes its telemetry (job counts, memo-cache
// hits/misses, retry/timeout/fault tallies, queue-wait and run-time
// histograms, sampled queue depth, per-worker occupancy)
// to obs::MetricsRegistry::global() and emits exp.run_batch / exp.execute
// spans on the global trace session — see OBSERVABILITY.md for the name
// catalogue and the $LPM_METRICS / $LPM_TRACE knobs.
//
// Thread safety: run(), run_batch() and run_batch_outcomes() are blocking
// and may be called from any thread, including concurrently (each batch
// carries its own completion state); they must NOT be called from inside a
// worker task (the pool would deadlock waiting on itself). set_sink(), the
// counters (simulations_executed() etc.), cache_size() and cache_bytes()
// are safe from any thread at any time. Options and the engine itself must
// outlive all in-flight batches; destruction joins the pool.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "sim/machine_config.hpp"
#include "sim/system.hpp"
#include "trace/workload_profile.hpp"
#include "util/error.hpp"
#include "util/memo.hpp"

namespace lpm::exp {

class ResultSink;

/// RAII wall-clock timer feeding a registry histogram (and optionally a
/// trace span); re-exported here because the engine's consumers time their
/// sweep phases with it. See obs/metrics.hpp.
using ScopedTimer = obs::ScopedTimer;

/// Name of the built-in cycle-accurate backend (the sim::System path).
inline constexpr const char* kCycleBackend = "cycle";

/// Ceiling on a single retry backoff (one hour). The exponential schedule
/// saturates here instead of wrapping: both the shift exponent and the
/// shifted base are clamped, so retry_backoff_ms is monotone in the attempt
/// count for every base value, never UB, and never wraps back to a tiny
/// delay under extreme inputs.
inline constexpr std::uint64_t kMaxRetryBackoffMs = 3'600'000;

/// Seed of every engine's jittered retry backoff; fixed so retry schedules
/// are reproducible run to run.
inline constexpr std::uint64_t kRetryBackoffSeed = 0x5eedbacc0ffULL;

/// Ceiling on an engine's worker threads (Options::threads and
/// $LPM_THREADS).
inline constexpr unsigned kMaxThreads = 256;

/// Default result-cache budget: a one-core result costs about 1.1 KB, and
/// no lpmbench repetition (`screen`: ~10 MB) or paper bench evicts.
inline constexpr std::uint64_t kDefaultCacheBytes = 256ull << 20;

/// One experiment point: what to simulate and what to collect.
struct SimJob {
  sim::MachineConfig machine;
  /// One workload per core (workloads.size() must equal machine.num_cores).
  std::vector<trace::WorkloadProfile> workloads;
  /// Also run the perfect-cache CPIexe/fmem calibration for every workload
  /// (sim::cached_cpi_exe: one measure_cpi_exe per core configuration and
  /// workload per process); needed by any consumer computing LPM ratios.
  bool calibrate = false;
  /// Free-form label carried into ResultSink records; NOT part of the
  /// cache key (two jobs differing only in tag share one simulation).
  std::string tag;
  /// Model backend evaluating this point. kCycleBackend runs sim::System;
  /// any other name must have been registered through
  /// ExperimentEngine::register_backend_executor (src/model registers the
  /// analytic "rdh" / "fa" backends). Part of the cache key: the same
  /// (machine, workloads) evaluated at different fidelities are different
  /// points and never alias in the memo cache.
  std::string backend = kCycleBackend;

  /// Single-core convenience constructor used by most consumers.
  [[nodiscard]] static SimJob solo(sim::MachineConfig machine,
                                   trace::WorkloadProfile workload,
                                   bool calibrate = true, std::string tag = "");

  void validate() const;
  /// Stable cache key over machine + workloads + calibrate + backend
  /// (not tag).
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Everything one job produces.
struct SimJobResult {
  std::uint64_t fingerprint = 0;
  /// Backend that produced this result (mirrors SimJob::backend); sink
  /// records carry it so rows of different fidelities stay distinguishable.
  std::string backend = kCycleBackend;
  sim::SystemResult run;
  /// Per-workload calibration, in core order; empty unless job.calibrate.
  std::vector<sim::CpiExeResult> calib;
  /// Wall-clock milliseconds the successful execution took (simulation +
  /// calibration). Milliseconds are the one duration unit across the repo:
  /// sinks (ResultRecord::duration_ms) and the perf harness both record
  /// the same field. Rides the shared result object, so a cache-served
  /// outcome reports the duration of the run that produced it.
  double duration_ms = 0.0;
};

/// Results are shared immutable objects: a cache hit returns the *same*
/// object as the run that produced it.
using SimResultPtr = std::shared_ptr<const SimJobResult>;

/// The result cache's cost: sizeof(SimJobResult) plus each vector's capacity.
[[nodiscard]] std::uint64_t result_bytes(const SimJobResult& result);

/// What a batch does after one of its jobs fails.
enum class FailurePolicy {
  /// Stop launching further jobs; jobs never started come back kCancelled.
  /// The right choice when later work depends on earlier results (the LPM
  /// walk's on-path evaluations, schedule ranking).
  kFailFast,
  /// Run every job regardless; failures are reported per job. The right
  /// choice for sweeps and prefetch batches where each point stands
  /// alone.
  kCollect,
};

/// Result-or-error for one submitted job; batches never silently drop a
/// failure and never lose its message.
struct SimJobOutcome {
  std::uint64_t fingerprint = 0;
  /// Non-null iff the job succeeded (ok()).
  SimResultPtr result;
  util::ErrorCode error = util::ErrorCode::kNone;
  /// First error of the final attempt (tagged with the job on rethrow).
  std::string error_message;
  /// Execution attempts made (0 for cache hits).
  unsigned attempts = 0;
  bool from_cache = false;

  [[nodiscard]] bool ok() const { return result != nullptr; }
  /// Returns the result or rethrows the recorded failure with its
  /// concrete exception type (util::TimeoutError etc.).
  [[nodiscard]] const SimResultPtr& value() const;
};

/// Evaluates one non-cycle job and returns a fully-populated result (run
/// counters, optional calibration; fingerprint/duration are filled by the
/// engine). Must be pure in the job (deterministic, no shared mutable
/// state) — the memo cache assumes it. `guard` is the watchdog cancel flag
/// (may be null); long-running executors should poll it.
using BackendExecutor =
    std::function<SimJobResult(const SimJob&, const sim::RunGuard*)>;

/// Per-batch coordination block (defined in the .cpp); the queue carries
/// (batch, group-index) pairs instead of heap-allocated closures.
struct BatchCtx;

/// One unit of pool work: group `group` of the batch behind `ctx`, or that
/// group's calibration warm-up when `group` carries kWarmTask. POD on
/// purpose — the queue carries 24-byte items, not closures.
struct TaskItem {
  static constexpr std::uint32_t kWarmTask = 1u << 31;
  BatchCtx* ctx = nullptr;
  std::uint32_t group = 0;
  /// Set only on sampled pushes (queue-wait telemetry); the default
  /// epoch value marks unsampled tasks.
  std::chrono::steady_clock::time_point enqueued_at{};
};

class ExperimentEngine {
 public:
  /// Engine construction knobs: a plain value, written with designated
  /// initializers (`Options{.threads = 1, .cache_bytes = 0}`) and checked
  /// by the ExperimentEngine constructor.
  struct Options {
    /// Worker threads, at most kMaxThreads (the constructor throws
    /// util::ConfigError above it). 0 = auto: $LPM_THREADS if set, else
    /// std::thread::hardware_concurrency(). 1 = fully serial (no pool).
    unsigned threads = 0;
    /// Result-cache budget (LRU, see result_bytes()). 0 stores nothing:
    /// every submission simulates (in-batch duplicates still run once).
    std::uint64_t cache_bytes = kDefaultCacheBytes;
    /// Optional structured-record sink (non-owning; may be nullptr).
    ResultSink* sink = nullptr;
    /// Re-executions allowed after a retryable failure (sim/io/timeout;
    /// config errors never retry). 0 = fail on first error.
    unsigned max_retries = 0;
    /// Base backoff before retry k: base << (k-1) plus deterministic
    /// jitter in [0, base] from (kRetryBackoffSeed, fingerprint, attempt) —
    /// see retry_backoff_ms(). 0 = retry immediately.
    std::uint64_t retry_backoff_base_ms = 0;
    /// Wall-clock budget per job execution; 0 = no watchdog. Over-budget
    /// jobs are cancelled cooperatively (sim::RunGuard) and come back as
    /// util::ErrorCode::kTimeout.
    std::uint64_t job_timeout_ms = 0;
    /// Deterministic fault injection (see fault_plan.hpp); empty = none.
    FaultPlan fault_plan{};

    class Builder;
    [[nodiscard]] static Builder builder();
  };

  ExperimentEngine();
  /// Throws util::ConfigError when opts.threads exceeds kMaxThreads.
  explicit ExperimentEngine(Options opts);
  ~ExperimentEngine();
  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  /// Runs one job (cache-served when possible). Blocking. Throws the
  /// job's typed error on failure (after exhausting retries).
  SimResultPtr run(const SimJob& job);

  /// Runs a batch concurrently across the worker pool; identical jobs
  /// within the batch are simulated once. Results are returned in
  /// submission order. Blocking. Fail-fast: the first failed job's typed
  /// error is rethrown, tagged with the job's tag and fingerprint; use
  /// run_batch_outcomes() to observe per-job failures instead.
  std::vector<SimResultPtr> run_batch(const std::vector<SimJob>& jobs);

  /// Like run_batch, but failures become data: one SimJobOutcome per job,
  /// in submission order, never throwing for job-level errors. `policy`
  /// decides whether one failure cancels the jobs not yet started.
  std::vector<SimJobOutcome> run_batch_outcomes(const std::vector<SimJob>& jobs,
                                                FailurePolicy policy);

  /// Deterministic jittered backoff before retry `attempt` (1-based count
  /// of failures so far): base << (attempt-1) plus a [0, base] jitter
  /// drawn from (seed, fingerprint, attempt), with both the exponent and
  /// the result saturated so the delay never exceeds kMaxRetryBackoffMs
  /// (and never wraps for large attempts or bases). Pure function — two
  /// engines with the same seed produce identical retry schedules.
  [[nodiscard]] static std::uint64_t retry_backoff_ms(std::uint64_t seed,
                                                      std::uint64_t fingerprint,
                                                      unsigned attempt,
                                                      std::uint64_t base_ms);

  [[nodiscard]] unsigned threads() const { return threads_; }
  /// Group tasks executed per worker so far (merge-on-read over the
  /// per-worker shards; index = worker id). Calibration warm tasks are not
  /// counted: the counts sum to the job groups the pool executed. Empty for
  /// serial engines.
  [[nodiscard]] std::vector<std::uint64_t> worker_task_counts() const;
  /// Simulations executed: one per distinct point, again after eviction.
  [[nodiscard]] std::uint64_t simulations_executed() const {
    return simulations_executed_.load(std::memory_order_relaxed);
  }
  /// Submissions served from the memo cache.
  [[nodiscard]] std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  /// Re-executions performed after retryable failures.
  [[nodiscard]] std::uint64_t retries_performed() const {
    return retries_performed_.load(std::memory_order_relaxed);
  }
  /// Jobs whose final attempt failed (after retries, all policies).
  [[nodiscard]] std::uint64_t jobs_failed() const {
    return jobs_failed_.load(std::memory_order_relaxed);
  }
  /// Aggregate wall time spent inside simulations, across all workers.
  /// busy_seconds() / elapsed wall time ~= achieved parallel speedup.
  [[nodiscard]] double busy_seconds() const {
    return 1e-9 * static_cast<double>(busy_nanos_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] std::uint64_t cache_bytes() const { return cache_.bytes(); }
  void set_sink(ResultSink* sink);

  /// Process-wide engine shared by all consumers that do not bring their
  /// own: one cache means e.g. a bench and the LPM walk reuse each other's
  /// points. Thread count from $LPM_THREADS; if $LPM_RESULTS
  /// is set, every executed job is appended there (.csv or .jsonl).
  /// Fault-tolerance knobs from $LPM_MAX_RETRIES, $LPM_JOB_TIMEOUT_MS and
  /// $LPM_FAULT_SPEC.
  static ExperimentEngine& shared();

  /// Registers (or replaces) the executor for a non-cycle backend name.
  /// Process-wide and engine-independent — an executor registered once is
  /// visible to every engine, including shared(). Registering the cycle
  /// backend is a config error. Thread-safe; idempotent re-registration is
  /// fine (src/model registers its analytic executors from every backend
  /// constructor).
  static void register_backend_executor(const std::string& name,
                                        BackendExecutor executor);
  /// True for kCycleBackend and every registered executor name.
  [[nodiscard]] static bool has_backend_executor(const std::string& name);

 private:
  /// Per-worker stat shard; cache-line aligned so workers never
  /// false-share. Merged on read (worker_task_counts(), the
  /// exp.worker.tasks histogram at shutdown) — never locked.
  struct alignas(64) WorkerShard {
    std::atomic<std::uint64_t> tasks{0};
  };

  void worker_loop(int worker_id);
  /// Blocks until a task is queued and pops it. False only at shutdown
  /// with the queue drained.
  bool next_task(TaskItem& item);
  /// Runs one queued task end to end (group execution + batch completion).
  void run_task(const TaskItem& item);
  /// Executes group `gi` of `ctx` into its outcome slot (single writer).
  void run_group(BatchCtx& ctx, std::uint32_t gi);
  /// Runs group `gi`'s CPIexe calibrations into the process-wide cache
  /// ahead of the job's own lookups. Errors are swallowed (the job's own
  /// call reports them); does nothing once the batch has aborted.
  static void warm_calibrations(const BatchCtx& ctx, std::uint32_t gi);
  /// Cached per-backend "model.backend.evals.<name>" counter handle (one
  /// name lookup per backend per engine, not per job).
  obs::MetricsRegistry::Counter backend_evals(const std::string& backend);
  /// Simulates one job (no cache interaction); runs on a worker or, for
  /// serial engines, on the submitting thread. `fault` injects a failure
  /// before the simulation starts; `guard` is the watchdog's cancel flag
  /// (null when no timeout is configured).
  SimJobResult execute(const SimJob& job, const sim::RunGuard* guard,
                       std::optional<FaultKind> fault);
  /// One job with retry/backoff + watchdog registration; never throws for
  /// job-level failures. `fault_index` is the deterministic executed-point
  /// index consumed by the fault plan (faults fire on attempt 1 only).
  SimJobOutcome execute_with_retry(const SimJob& job, std::uint64_t fingerprint,
                                   std::uint64_t fault_index);
  std::vector<SimJobOutcome> run_batch_impl(const std::vector<SimJob>& jobs,
                                            FailurePolicy policy);

  // Watchdog bookkeeping: execute_with_retry registers each attempt's
  // guard + deadline; the watchdog thread flips cancel flags once the
  // deadline passes. Guards are shared_ptr so a late watchdog scan can
  // never touch a dead flag.
  std::uint64_t watchdog_register(std::shared_ptr<sim::RunGuard> guard);
  void watchdog_unregister(std::uint64_t ticket);
  void watchdog_loop();

  unsigned threads_ = 1;
  unsigned max_retries_ = 0;
  std::uint64_t retry_backoff_base_ms_ = 0;
  std::uint64_t job_timeout_ms_ = 0;
  FaultPlan fault_plan_;

  /// Used only on submitting threads, in submission order.
  util::Memo<std::uint64_t, SimResultPtr> cache_;

  std::mutex sink_mutex_;
  ResultSink* sink_ = nullptr;

  /// Registry handles mirroring the atomic counters below into the global
  /// metrics registry (stable names; see OBSERVABILITY.md). Resolved once
  /// at construction so the hot paths never do name lookups.
  struct Instruments {
    obs::MetricsRegistry::Counter jobs_submitted;
    obs::MetricsRegistry::Counter jobs_executed;
    obs::MetricsRegistry::Counter cache_hits;
    obs::MetricsRegistry::Counter jobs_failed;
    obs::MetricsRegistry::Counter retries;
    obs::MetricsRegistry::Counter timeouts;
    obs::MetricsRegistry::Counter faults_injected;
    obs::MetricsRegistry::Counter cache_evictions;
    obs::MetricsRegistry::Gauge cache_bytes;
    obs::MetricsRegistry::Histogram queue_wait_ms;
    obs::MetricsRegistry::Histogram run_ms;
    obs::MetricsRegistry::Histogram batch_size;
    obs::MetricsRegistry::Histogram queue_depth;
    obs::MetricsRegistry::Histogram worker_tasks;
  };
  Instruments obs_;

  std::atomic<std::uint64_t> simulations_executed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> busy_nanos_{0};
  std::atomic<std::uint64_t> retries_performed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  /// Executed-point cursor for the fault plan; advanced on the submitting
  /// thread in submission order so injection sites are pool-independent.
  std::atomic<std::uint64_t> fault_cursor_{0};

  // The job queue. Workers exit only once shutting_down_ is set and the
  // deque is empty, so a task pushed before shutdown still runs.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<TaskItem> queue_;
  bool shutting_down_ = false;
  std::unique_ptr<WorkerShard[]> worker_shards_;
  std::vector<std::thread> workers_;

  /// Per-backend eval-counter handles, resolved once per backend name so
  /// the merge path never does a registry name lookup per job.
  std::mutex backend_evals_mutex_;
  std::unordered_map<std::string, obs::MetricsRegistry::Counter>
      backend_evals_;

  struct WatchdogEntry {
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<sim::RunGuard> guard;
  };
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::unordered_map<std::uint64_t, WatchdogEntry> watchdog_entries_;
  std::uint64_t watchdog_next_ticket_ = 0;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

/// Fluent Options for lpmbench's engine sessions (threads and sink); every
/// other caller writes an Options value directly.
class ExperimentEngine::Options::Builder {
 public:
  Builder& threads(unsigned n) {
    opts_.threads = n;
    return *this;
  }
  Builder& sink(ResultSink* sink) {
    opts_.sink = sink;
    return *this;
  }
  [[nodiscard]] Options build() const { return opts_; }

 private:
  Options opts_;
};

inline ExperimentEngine::Options::Builder ExperimentEngine::Options::builder() {
  return Builder{};
}

}  // namespace lpm::exp
