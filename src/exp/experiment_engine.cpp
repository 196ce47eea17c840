#include "exp/experiment_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "exp/journal.hpp"
#include "exp/result_sink.hpp"
#include "obs/trace.hpp"
#include "sim/calibration.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/fingerprint.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lpm::exp {

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return std::min(requested, 256u);
  if (const char* env = std::getenv("LPM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(std::min<long>(v, 256));
    util::log_warn() << "ignoring invalid LPM_THREADS='" << env << "'";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint64_t env_u64_or(const char* name, std::uint64_t dflt) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return dflt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == nullptr || *end != '\0') {
    util::log_warn() << "ignoring invalid " << name << "='" << env << "'";
    return dflt;
  }
  return v;
}

/// Error classification for arbitrary exceptions escaping a job.
util::ErrorCode code_of(const std::exception& e) {
  if (const auto* lpm = dynamic_cast<const util::LpmError*>(&e)) {
    return lpm->code() == util::ErrorCode::kNone ? util::ErrorCode::kGeneric
                                                 : lpm->code();
  }
  return util::ErrorCode::kSim;
}

bool retryable(util::ErrorCode code) {
  // Config errors are deterministic rejections of the inputs: the retry
  // would fail identically, so don't burn attempts on it.
  return code != util::ErrorCode::kConfig;
}

/// Process-wide backend-executor registry. Executors are identified by
/// name only, so a job's fingerprint stays stable across processes while
/// the dispatch stays pluggable (src/model registers "rdh" / "fa").
///
/// Reads are lock-free: the executor map is an immutable snapshot behind
/// one atomic pointer, and registration (rare — a handful of calls at
/// startup, idempotent re-registrations after) copies the map, inserts,
/// and publishes the copy. Old snapshots are retired, never freed, so an
/// executor pointer handed to a reader stays valid for the process
/// lifetime even if a test re-registers the name mid-flight.
struct BackendRegistry {
  using Map = std::unordered_map<std::string, BackendExecutor>;

  std::mutex write_mutex;
  std::vector<std::unique_ptr<const Map>> snapshots;  ///< newest last; all kept alive
  std::atomic<const Map*> current{nullptr};

  static BackendRegistry& instance() {
    static BackendRegistry& registry = *new BackendRegistry;  // leaked: outlives workers
    return registry;
  }

  const BackendExecutor* find(const std::string& name) const {
    const Map* map = current.load(std::memory_order_acquire);
    if (map == nullptr) return nullptr;
    const auto it = map->find(name);
    return it == map->end() ? nullptr : &it->second;
  }

  void put(const std::string& name, BackendExecutor executor) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    const Map* old = current.load(std::memory_order_relaxed);
    auto next = std::make_unique<Map>(old != nullptr ? *old : Map{});
    (*next)[name] = std::move(executor);
    current.store(next.get(), std::memory_order_release);
    snapshots.push_back(std::move(next));
  }
};

}  // namespace

void ExperimentEngine::register_backend_executor(const std::string& name,
                                                 BackendExecutor executor) {
  util::require(!name.empty(), "register_backend_executor: empty name");
  util::require(name != kCycleBackend,
                "register_backend_executor: the cycle backend is built in");
  util::require(executor != nullptr,
                "register_backend_executor: null executor for '" + name + "'");
  BackendRegistry::instance().put(name, std::move(executor));
}

bool ExperimentEngine::has_backend_executor(const std::string& name) {
  if (name == kCycleBackend) return true;
  return BackendRegistry::instance().find(name) != nullptr;
}

const SimResultPtr& SimJobOutcome::value() const {
  if (result != nullptr) return result;
  if (skipped) {
    util::throw_error(util::ErrorCode::kGeneric,
                      "SimJobOutcome: point " + util::fingerprint_hex(fingerprint) +
                          " was journal-skipped (no in-process result)");
  }
  util::throw_error(error == util::ErrorCode::kNone ? util::ErrorCode::kGeneric
                                                    : error,
                    error_message);
}

SimJob SimJob::solo(sim::MachineConfig machine, trace::WorkloadProfile workload,
                    bool calibrate, std::string tag) {
  SimJob job;
  job.machine = std::move(machine);
  job.machine.num_cores = 1;
  if (tag.empty()) tag = workload.name;
  job.workloads.push_back(std::move(workload));
  job.calibrate = calibrate;
  job.tag = std::move(tag);
  return job;
}

void SimJob::validate() const {
  machine.validate();
  // Messages with interpolated values are built inside the unlikely branch
  // only: validate() runs once per submitted job, so its success path must
  // stay allocation-free (see util::require's header note).
  if (workloads.size() != machine.num_cores) [[unlikely]] {
    throw util::ConfigError("SimJob: need exactly one workload per core (" +
                            std::to_string(workloads.size()) +
                            " workloads for " +
                            std::to_string(machine.num_cores) + " cores)");
  }
  for (const auto& wl : workloads) wl.validate();
  if (!ExperimentEngine::has_backend_executor(backend)) [[unlikely]] {
    throw util::ConfigError("SimJob: unknown backend '" + backend +
                            "' (no registered executor)");
  }
}

std::uint64_t SimJob::fingerprint() const {
  util::Fingerprint f;
  // v2: the backend joined the key so analytic and cycle evaluations of
  // the same (machine, workloads) never alias in the memo cache.
  f.mix("SimJob/v2");
  f.mix_u64(util::fingerprint(machine));
  f.mix(workloads.size());
  for (const auto& wl : workloads) f.mix_u64(util::fingerprint(wl));
  f.mix(calibrate);
  f.mix(backend);
  return f.value();
}

/// Per-batch coordination: the submit side resolves jobs into execution
/// groups (one per distinct fingerprint), workers fill one cache-line-
/// aligned outcome slot per group (single writer, no lock), and the
/// submitting thread merges slots back into submission order after the
/// completion barrier. The barrier itself is the last-finisher-notifies
/// pattern: workers only touch ctx.mutex when remaining hits zero, and the
/// notify happens under the mutex because the submitter owns BatchCtx on
/// its stack and destroys it the moment its wait returns.
struct BatchCtx {
  struct Group {
    std::uint64_t fp = 0;
    const SimJob* job = nullptr;
    /// First submission index served by this group (the executor slot).
    /// Duplicates are rare, so keeping the common case inline avoids a
    /// heap allocation per group on the submit path.
    std::size_t first = 0;
    /// Further submission indices served by the one execution.
    std::vector<std::size_t> dups;
    /// Executed-point number consumed by the fault plan.
    std::uint64_t fault_index = 0;
  };
  struct alignas(64) Slot {
    SimJobOutcome out;
  };

  std::vector<Group> groups;
  std::vector<Slot> slots;
  FailurePolicy policy = FailurePolicy::kFailFast;
  std::atomic<bool> abort{false};
  std::atomic<std::size_t> remaining{0};
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
};

ExperimentEngine::Options ExperimentEngine::Options::Builder::build() const {
  util::require(opts_.threads <= 256,
                "EngineOptions: threads must be <= 256 (0 = auto)");
  return opts_;
}

ExperimentEngine::ExperimentEngine() : ExperimentEngine(Options{}) {}

ExperimentEngine::ExperimentEngine(Options opts)
    : threads_(resolve_threads(opts.threads)),
      cache_enabled_(opts.cache_enabled),
      max_retries_(opts.max_retries),
      retry_backoff_base_ms_(opts.retry_backoff_base_ms),
      backoff_seed_(opts.backoff_seed),
      job_timeout_ms_(opts.job_timeout_ms),
      default_policy_(opts.policy),
      fault_plan_(std::move(opts.fault_plan)),
      journal_(opts.journal),
      sink_(opts.sink) {
  // Resolve registry handles (and thereby touch the global registry +
  // trace session) before any worker exists: the $LPM_METRICS/$LPM_TRACE
  // exit hooks are then registered ahead of this engine's static-teardown
  // slot, so a shared() engine joins its pool before the final snapshot
  // and the trace-file close.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceSession::global();
  obs_ = Instruments{
      reg.counter("exp.jobs.submitted"),
      reg.counter("exp.jobs.executed"),
      reg.counter("exp.jobs.cache_hits"),
      reg.counter("exp.jobs.failed"),
      reg.counter("exp.jobs.retries"),
      reg.counter("exp.jobs.timeouts"),
      reg.counter("exp.jobs.faults_injected"),
      reg.counter("exp.jobs.journal_skips"),
      reg.histogram("exp.job.queue_wait_ms",
                    obs::MetricsRegistry::latency_ms_bounds()),
      reg.histogram("exp.job.run_ms",
                    obs::MetricsRegistry::latency_ms_bounds()),
      reg.histogram("exp.batch.size",
                    {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
      reg.histogram("exp.queue.depth",
                    {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}),
      reg.histogram("exp.worker.tasks",
                    {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}),
  };
  // threads_ == 1 means strictly serial: jobs run inline on the submitting
  // thread and no pool exists (the reference configuration for the
  // determinism tests).
  if (threads_ > 1) {
    worker_shards_ = std::make_unique<WorkerShard[]>(threads_);
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i) {
      workers_.emplace_back([this, i] { worker_loop(static_cast<int>(i)); });
    }
  }
  if (job_timeout_ms_ > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

ExperimentEngine::~ExperimentEngine() {
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      shutting_down_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }
  if (watchdog_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

std::vector<std::uint64_t> ExperimentEngine::worker_task_counts() const {
  std::vector<std::uint64_t> counts;
  if (worker_shards_ == nullptr) return counts;
  counts.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    counts.push_back(worker_shards_[i].tasks.load(std::memory_order_relaxed));
  }
  return counts;
}

void ExperimentEngine::worker_loop(int worker_id) {
  util::set_thread_worker_id(worker_id);
  WorkerShard& shard = worker_shards_[worker_id];
  TaskItem item;
  while (next_task(item)) {
    if ((item.group & TaskItem::kWarmTask) == 0) {
      shard.tasks.fetch_add(1, std::memory_order_relaxed);
    }
    run_task(item);
  }
  // Observed here, on the worker's own thread, not by the destructor: the
  // shared engine is destroyed during static destruction, after the
  // destroying thread's thread-local metric caches are gone.
  obs_.worker_tasks.observe(
      static_cast<double>(shard.tasks.load(std::memory_order_relaxed)));
}

bool ExperimentEngine::next_task(TaskItem& item) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  // Drain-then-exit: a task pushed just before shutdown must still run
  // (its batch is blocked on it).
  queue_cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
  if (queue_.empty()) return false;
  item = queue_.front();
  queue_.pop_front();
  return true;
}

// --- watchdog -------------------------------------------------------------

std::uint64_t ExperimentEngine::watchdog_register(
    std::shared_ptr<sim::RunGuard> guard) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(job_timeout_ms_);
  std::uint64_t ticket = 0;
  {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    ticket = ++watchdog_next_ticket_;
    watchdog_entries_.emplace(ticket, WatchdogEntry{deadline, std::move(guard)});
  }
  watchdog_cv_.notify_all();  // new, possibly nearer deadline
  return ticket;
}

void ExperimentEngine::watchdog_unregister(std::uint64_t ticket) {
  const std::lock_guard<std::mutex> lock(watchdog_mutex_);
  watchdog_entries_.erase(ticket);
}

void ExperimentEngine::watchdog_loop() {
  util::set_thread_worker_id(-1);
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    auto wake = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    for (const auto& [ticket, entry] : watchdog_entries_) {
      wake = std::min(wake, entry.deadline);
    }
    watchdog_cv_.wait_until(lock, wake);
    if (watchdog_stop_) break;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = watchdog_entries_.begin(); it != watchdog_entries_.end();) {
      if (it->second.deadline <= now) {
        // Mark only: the job notices at its next guard poll and unwinds
        // through TimeoutError on its own stack.
        it->second.guard->cancel.store(true, std::memory_order_relaxed);
        it = watchdog_entries_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// --- execution ------------------------------------------------------------

SimJobResult ExperimentEngine::execute(const SimJob& job,
                                       const sim::RunGuard* guard,
                                       std::optional<FaultKind> fault) {
  const auto start = std::chrono::steady_clock::now();
  // The span is built only when a trace session is live: ScopedSpan's
  // name/category strings are per-execute cost on a path measured in
  // nanoseconds, and with tracing off they would be built just to be
  // thrown away.
  std::optional<obs::ScopedSpan> span;
  if (obs::TraceSession* trace = obs::TraceSession::global()) {
    span.emplace(trace, "exp.execute", "exp");
    span->arg("cores", static_cast<double>(job.machine.num_cores));
  }
  if (fault.has_value()) {
    obs_.faults_injected.inc();
    switch (*fault) {
      case FaultKind::kThrow:
        throw util::SimError("injected fault: throw (job '" + job.tag + "')");
      case FaultKind::kIo:
        throw util::IoError("injected fault: io (job '" + job.tag + "')");
      case FaultKind::kHang:
        // A "hang" blocks exactly like a wedged simulation would, but
        // cooperatively: it waits for the watchdog to flip the cancel
        // flag, then unwinds the way a real over-budget run does.
        if (guard == nullptr) {
          throw util::TimeoutError("injected fault: hang with no watchdog "
                                   "configured (job '" + job.tag + "')");
        }
        while (!guard->cancel.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw util::TimeoutError("injected fault: hang cancelled by watchdog "
                                 "(job '" + job.tag + "')");
    }
  }
  SimJobResult out;
  if (job.backend == kCycleBackend) {
    // A one-workload job overlaps its trace synthesis with the run on a
    // read-ahead helper thread; a co-run keeps generating inline, so a job
    // adds at most one thread whatever its core count.
    std::vector<trace::TraceSourcePtr> traces;
    traces.reserve(job.workloads.size());
    for (const auto& wl : job.workloads) {
      traces.push_back(job.workloads.size() == 1
                           ? trace::make_read_ahead_trace(wl)
                           : trace::make_trace(wl));
    }
    sim::System system(job.machine, std::move(traces));
    out.run = system.run(guard);
    if (job.calibrate) {
      out.calib.reserve(job.workloads.size());
      for (const auto& wl : job.workloads) {
        out.calib.push_back(sim::cached_cpi_exe(job.machine, wl, guard));
      }
    }
  } else {
    // Lock-free snapshot lookup; the returned executor stays valid even if
    // the name is re-registered mid-flight (old snapshots are retired, not
    // freed). validate() already vetted the name; a null here means the
    // registry genuinely never saw it, so keep the typed error.
    const BackendExecutor* executor =
        BackendRegistry::instance().find(job.backend);
    if (executor == nullptr) {
      util::throw_error(util::ErrorCode::kConfig,
                        "no executor registered for backend '" + job.backend +
                            "' (job '" + job.tag + "')");
    }
    out = (*executor)(job, guard);
  }
  out.backend = job.backend;
  simulations_executed_.fetch_add(1, std::memory_order_relaxed);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  busy_nanos_.fetch_add(elapsed_ns, std::memory_order_relaxed);
  out.duration_ms = 1e-6 * static_cast<double>(elapsed_ns);
  obs_.jobs_executed.inc();
  obs_.run_ms.observe(1e-6 * static_cast<double>(elapsed_ns));
  return out;
}

std::uint64_t ExperimentEngine::retry_backoff_ms(std::uint64_t seed,
                                                 std::uint64_t fingerprint,
                                                 unsigned attempt,
                                                 std::uint64_t base_ms) {
  if (base_ms == 0) return 0;
  const unsigned shift = std::min(attempt >= 1 ? attempt - 1 : 0u, 16u);
  // Saturate instead of shifting blindly: a large base (or, before the
  // exponent clamp existed, a large attempt count) would wrap the shift and
  // come back as a near-zero delay — turning backoff into a retry storm.
  // Anything that would exceed the ceiling pins to kMaxRetryBackoffMs.
  std::uint64_t scaled = kMaxRetryBackoffMs;
  if (base_ms <= (kMaxRetryBackoffMs >> shift)) scaled = base_ms << shift;
  util::Rng rng(seed ^ fingerprint ^ (0x9e37u + attempt));
  const std::uint64_t jitter =
      rng.next_below(std::min(base_ms, kMaxRetryBackoffMs) + 1);
  return std::min(kMaxRetryBackoffMs, scaled + jitter);
}

SimJobOutcome ExperimentEngine::execute_with_retry(const SimJob& job,
                                                   std::uint64_t fingerprint,
                                                   std::uint64_t fault_index) {
  SimJobOutcome out;
  out.fingerprint = fingerprint;
  for (unsigned attempt = 1;; ++attempt) {
    out.attempts = attempt;
    std::shared_ptr<sim::RunGuard> guard;
    std::uint64_t ticket = 0;
    if (job_timeout_ms_ > 0) {
      guard = std::make_shared<sim::RunGuard>();
      ticket = watchdog_register(guard);
    }
    try {
      // Faults fire on the first attempt only: a retried job re-executes
      // clean, which is exactly the transient-failure scenario retries
      // exist for (persistent failures are modelled by max_retries = 0).
      const std::optional<FaultKind> fault =
          attempt == 1 ? fault_plan_.at(fault_index) : std::nullopt;
      auto result = std::make_shared<SimJobResult>(execute(job, guard.get(), fault));
      result->fingerprint = fingerprint;
      if (guard != nullptr) watchdog_unregister(ticket);
      out.result = std::move(result);
      out.error = util::ErrorCode::kNone;
      out.error_message.clear();
      return out;
    } catch (const std::exception& e) {
      if (guard != nullptr) watchdog_unregister(ticket);
      out.error = code_of(e);
      out.error_message = e.what();
      if (out.error == util::ErrorCode::kTimeout) obs_.timeouts.inc();
    } catch (...) {
      // Deliberately the only catch-all left in the engine: it converts an
      // unknown thrown type into a typed outcome instead of losing it.
      if (guard != nullptr) watchdog_unregister(ticket);
      out.error = util::ErrorCode::kSim;
      out.error_message = "unknown exception type escaped the job";
    }
    if (!retryable(out.error) || attempt > max_retries_) {
      jobs_failed_.fetch_add(1, std::memory_order_relaxed);
      obs_.jobs_failed.inc();
      return out;
    }
    retries_performed_.fetch_add(1, std::memory_order_relaxed);
    obs_.retries.inc();
    if (obs::TraceSession* session = obs::TraceSession::global()) {
      session->instant_event("exp.retry", "exp", session->now_us(),
                             {{"attempt", static_cast<double>(attempt)}});
    }
    const std::uint64_t delay =
        retry_backoff_ms(backoff_seed_, fingerprint, attempt, retry_backoff_base_ms_);
    util::log_warn() << "job '" << job.tag << "' attempt " << attempt
                     << " failed (" << util::error_code_name(out.error)
                     << "): " << out.error_message << " — retrying in " << delay
                     << "ms";
    if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

// --- batch orchestration --------------------------------------------------

SimResultPtr ExperimentEngine::run(const SimJob& job) {
  return run_batch({job}).front();
}

std::vector<SimResultPtr> ExperimentEngine::run_batch(
    const std::vector<SimJob>& jobs) {
  // The journal is never consulted here: this API promises a result object
  // per job, which a journal skip cannot provide.
  auto outcomes = run_batch_impl(jobs, FailurePolicy::kFailFast,
                                 /*consult_journal=*/false);
  std::vector<SimResultPtr> results;
  results.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok() &&
        outcomes[i].error != util::ErrorCode::kCancelled) {
      util::throw_error(outcomes[i].error,
                        "job '" + jobs[i].tag + "' (fingerprint " +
                            util::fingerprint_hex(outcomes[i].fingerprint) +
                            ", attempts " + std::to_string(outcomes[i].attempts) +
                            "): " + outcomes[i].error_message);
    }
  }
  for (auto& outcome : outcomes) results.push_back(std::move(outcome.result));
  return results;
}

std::vector<SimJobOutcome> ExperimentEngine::run_batch_outcomes(
    const std::vector<SimJob>& jobs) {
  return run_batch_impl(jobs, default_policy_, journal_ != nullptr);
}

std::vector<SimJobOutcome> ExperimentEngine::run_batch_outcomes(
    const std::vector<SimJob>& jobs, BatchOptions batch) {
  return run_batch_impl(jobs, batch.policy, batch.consult_journal);
}

void ExperimentEngine::run_group(BatchCtx& ctx, std::uint32_t gi) {
  const BatchCtx::Group& g = ctx.groups[gi];
  SimJobOutcome& out = ctx.slots[gi].out;  // single writer: this call
  // Fail-fast: jobs not yet started when an earlier one failed are
  // reported as cancelled, never silently dropped.
  if (ctx.policy == FailurePolicy::kFailFast &&
      ctx.abort.load(std::memory_order_acquire)) {
    out.fingerprint = g.fp;
    out.error = util::ErrorCode::kCancelled;
    out.error_message =
        "not started: an earlier job in the fail-fast batch failed";
    return;
  }
  out = execute_with_retry(*g.job, g.fp, g.fault_index);
  if (!out.ok() && ctx.policy == FailurePolicy::kFailFast &&
      out.error != util::ErrorCode::kCancelled) {
    ctx.abort.store(true, std::memory_order_release);
  }
}

void ExperimentEngine::warm_calibrations(const BatchCtx& ctx,
                                         std::uint32_t gi) {
  const SimJob& job = *ctx.groups[gi].job;
  for (const auto& wl : job.workloads) {
    if (ctx.abort.load(std::memory_order_acquire)) return;
    try {
      (void)sim::cached_cpi_exe(job.machine, wl, nullptr);
    } catch (const std::exception&) {
      // Nothing is cached on failure: the job's own cached_cpi_exe call
      // runs the calibration again and reports its typed error.
    }
  }
}

void ExperimentEngine::run_task(const TaskItem& item) {
  // Only sampled tasks carry an enqueue timestamp (see run_batch_impl); the
  // default-constructed time_point marks the unsampled ones.
  if (item.enqueued_at != std::chrono::steady_clock::time_point{}) {
    obs_.queue_wait_ms.observe(
        1e-6 * static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - item.enqueued_at)
                       .count()));
  }
  BatchCtx& ctx = *item.ctx;
  if ((item.group & TaskItem::kWarmTask) != 0) {
    warm_calibrations(ctx, item.group & ~TaskItem::kWarmTask);
  } else {
    run_group(ctx, item.group);
  }
  // Only the batch's last finisher takes the mutex; everyone else just
  // decrements. Notify while holding the lock: the submitting thread owns
  // BatchCtx on its stack and destroys it as soon as its wait returns, so
  // an unlocked notify could signal a dead cv.
  if (ctx.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::lock_guard<std::mutex> lock(ctx.mutex);
    ctx.done = true;
    ctx.cv.notify_one();
  }
}

obs::MetricsRegistry::Counter ExperimentEngine::backend_evals(
    const std::string& backend) {
  const std::lock_guard<std::mutex> lock(backend_evals_mutex_);
  auto it = backend_evals_.find(backend);
  if (it == backend_evals_.end()) {
    it = backend_evals_
             .emplace(backend, obs::MetricsRegistry::global().counter(
                                   "model.backend.evals." + backend))
             .first;
  }
  return it->second;
}

std::vector<SimJobOutcome> ExperimentEngine::run_batch_impl(
    const std::vector<SimJob>& jobs, FailurePolicy policy,
    bool consult_journal) {
  std::vector<SimJobOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;
  obs::ScopedSpan batch_span(obs::TraceSession::global(), "exp.run_batch",
                             "exp");
  batch_span.arg("jobs", static_cast<double>(jobs.size()));
  obs_.jobs_submitted.add(jobs.size());
  obs_.batch_size.observe(static_cast<double>(jobs.size()));

  // Resolve fingerprints, validation failures, cache hits and journal
  // skips on the submitting thread; group the remainder so each distinct
  // point simulates exactly once. Groups keep submission order, which also
  // fixes the fault plan's executed-point numbering independently of the
  // worker pool.
  BatchCtx ctx;
  ctx.policy = policy;
  // Fingerprint dedup uses a flat linear-probe table (power-of-two sized,
  // at most half full) instead of an unordered_map: fingerprints are
  // already well-mixed 64-bit hashes, and a probe into a flat array costs
  // no per-node allocation on the submit hot path. The slot found by the
  // probe stays valid for the insert below — this thread is the table's
  // only writer.
  constexpr std::uint32_t kEmptySlot = 0xffffffffu;
  std::size_t table_cap = 16;
  while (table_cap < jobs.size() * 2) table_cap <<= 1;
  std::vector<std::uint64_t> dedup_fp(table_cap);
  std::vector<std::uint32_t> dedup_group(table_cap, kEmptySlot);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    try {
      jobs[i].validate();
    } catch (const util::LpmError& e) {
      outcomes[i].error = util::ErrorCode::kConfig;
      outcomes[i].error_message = e.what();
      continue;
    }
    const std::uint64_t fp = jobs[i].fingerprint();
    outcomes[i].fingerprint = fp;
    std::size_t slot = fp & (table_cap - 1);
    while (dedup_group[slot] != kEmptySlot && dedup_fp[slot] != fp) {
      slot = (slot + 1) & (table_cap - 1);
    }
    if (dedup_group[slot] != kEmptySlot) {
      ctx.groups[dedup_group[slot]].dups.push_back(i);
      continue;
    }
    if (cache_enabled_) {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      if (const auto it = cache_.find(fp); it != cache_.end()) {
        outcomes[i].result = it->second;
        outcomes[i].from_cache = true;
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        obs_.cache_hits.inc();
        continue;
      }
    }
    if (consult_journal && journal_ != nullptr && journal_->completed(fp)) {
      outcomes[i].skipped = true;
      journal_skips_.fetch_add(1, std::memory_order_relaxed);
      obs_.journal_skips.inc();
      continue;
    }
    dedup_fp[slot] = fp;
    dedup_group[slot] = static_cast<std::uint32_t>(ctx.groups.size());
    ctx.groups.push_back(BatchCtx::Group{fp, &jobs[i], i, {}, 0});
  }
  for (BatchCtx::Group& g : ctx.groups) {
    g.fault_index = fault_cursor_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  if (!ctx.groups.empty()) {
    ctx.slots = std::vector<BatchCtx::Slot>(ctx.groups.size());
    const auto n_groups = static_cast<std::uint32_t>(ctx.groups.size());
    if (threads_ == 1) {
      // Serial reference path: groups run inline, in submission order.
      for (std::uint32_t gi = 0; gi < n_groups; ++gi) run_group(ctx, gi);
    } else {
      // Warm tasks go first, so a job's calibration starts no later than
      // its simulation and overlaps it on another worker. They cannot
      // deadlock the pool: a warm task waits only on a calibration another
      // thread is already running, never on a queued task.
      std::size_t tasks = n_groups;
      // Queue telemetry is sampled (every 16th group) so a large batch does
      // not pay a histogram observation per push under the lock; one clock
      // read stamps every sampled task.
      const auto now = std::chrono::steady_clock::now();
      {
        // One lock acquisition and one wake-up per batch, not per group: a
        // lock and notify_one per group cut perf_simulator's null-job
        // sweep from 441-494k to 248-341k jobs/s on a 4-core host.
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        for (std::uint32_t gi = 0; gi < n_groups; ++gi) {
          const SimJob& job = *ctx.groups[gi].job;
          if (job.calibrate && job.backend == kCycleBackend) {
            queue_.push_back(TaskItem{&ctx, gi | TaskItem::kWarmTask});
            ++tasks;
          }
        }
        // Set under the queue lock, before any worker can pop a task.
        ctx.remaining.store(tasks, std::memory_order_relaxed);
        for (std::uint32_t gi = 0; gi < n_groups; ++gi) {
          queue_.push_back(TaskItem{&ctx, gi});
          if ((gi & 15u) == 0) {
            queue_.back().enqueued_at = now;
            obs_.queue_depth.observe(static_cast<double>(queue_.size()));
          }
        }
      }
      if (tasks == 1) {
        queue_cv_.notify_one();
      } else {
        queue_cv_.notify_all();
      }
      std::unique_lock<std::mutex> lock(ctx.mutex);
      ctx.cv.wait(lock, [&ctx] { return ctx.done; });
    }

    // Merge-on-read: workers wrote one slot per group; fan the slots back
    // out to submission indices here, on the submitting thread, so cache
    // inserts, duplicate accounting, and the sink/journal pass below all
    // happen in submission order no matter how the pool scheduled the
    // groups. This is what keeps N workers bit-identical to serial.
    // Batches overwhelmingly run one backend, so memoize the per-backend
    // evals counter: the steady state is a relaxed add per group instead
    // of a mutex plus a string-keyed map lookup.
    const std::string* evals_backend = nullptr;
    obs::MetricsRegistry::Counter evals;
    for (std::uint32_t gi = 0; gi < n_groups; ++gi) {
      const BatchCtx::Group& g = ctx.groups[gi];
      SimJobOutcome& out = ctx.slots[gi].out;
      if (out.ok()) {
        if (evals_backend == nullptr || *evals_backend != g.job->backend) {
          evals = backend_evals(g.job->backend);
          evals_backend = &g.job->backend;
        }
        evals.inc();
        if (cache_enabled_) {
          const std::lock_guard<std::mutex> lock(cache_mutex_);
          cache_.emplace(g.fp, out.result);
        }
        // Duplicates within the batch were served by the one execution.
        for (const std::size_t k : g.dups) {
          outcomes[k] = out;
          outcomes[k].from_cache = true;
          cache_hits_.fetch_add(1, std::memory_order_relaxed);
          obs_.cache_hits.inc();
        }
      } else {
        for (const std::size_t k : g.dups) {
          outcomes[k] = out;
        }
      }
      outcomes[g.first] = std::move(out);
    }
  }

  // Journal + sink bookkeeping happens on the submitting thread, in
  // submission order, so structured output is deterministic regardless of
  // worker scheduling. The journal line is written after the sink record
  // flushed: a crash between the two re-runs the point (harmless) rather
  // than losing its data row (not).
  {
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SimJobOutcome& out = outcomes[i];
      if (!out.ok()) continue;
      if (sink_ != nullptr) {
        sink_->write(ResultRecord::make(jobs[i], *out.result, out.from_cache));
      }
      if (journal_ != nullptr && !out.skipped) {
        journal_->mark_done(out.fingerprint, jobs[i].tag,
                            out.result->duration_ms);
      }
    }
  }
  return outcomes;
}

std::size_t ExperimentEngine::cache_size() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

void ExperimentEngine::clear_cache() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.clear();
}

void ExperimentEngine::set_sink(ResultSink* sink) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = sink;
}

ExperimentEngine& ExperimentEngine::shared() {
  // Sink and journal are separate statics constructed first so they
  // outlive the engine's destructor (which joins the workers).
  static const std::unique_ptr<ResultSink> sink = []() -> std::unique_ptr<ResultSink> {
    const char* path = std::getenv("LPM_RESULTS");
    if (path == nullptr) return nullptr;
    try {
      return ResultSink::open(path);
    } catch (const std::exception& e) {
      // A bad LPM_RESULTS path shouldn't kill the run — warn and go on.
      util::log_error() << "LPM_RESULTS disabled: " << e.what();
      return nullptr;
    }
  }();
  static const std::unique_ptr<SweepJournal> journal =
      []() -> std::unique_ptr<SweepJournal> {
    const char* path = std::getenv("LPM_JOURNAL");
    if (path == nullptr) return nullptr;
    try {
      return SweepJournal::open(path);
    } catch (const std::exception& e) {
      util::log_error() << "LPM_JOURNAL disabled: " << e.what();
      return nullptr;
    }
  }();
  static ExperimentEngine engine{[] {
    return Options::builder()
        .sink(sink.get())
        .journal(journal.get())
        .max_retries(static_cast<unsigned>(env_u64_or("LPM_MAX_RETRIES", 0)))
        .retry_backoff_base_ms(env_u64_or("LPM_RETRY_BACKOFF_MS", 10))
        .job_timeout_ms(env_u64_or("LPM_JOB_TIMEOUT_MS", 0))
        .fault_plan(FaultPlan::from_env())
        .build();
  }()};
  return engine;
}

}  // namespace lpm::exp
