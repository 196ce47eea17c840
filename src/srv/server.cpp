#include "srv/server.hpp"

#include <cstdlib>
#include <unistd.h>

#include "core/design_space.hpp"
#include "exp/result_sink.hpp"
#include "lpm.hpp"
#include "model/backend.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/log.hpp"

namespace lpm::srv {

namespace {

using Clock = std::chrono::steady_clock;

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') {
    throw util::ConfigError(std::string("$") + name + ": bad number '" + v +
                            "'");
  }
  return static_cast<std::uint64_t>(parsed);
}

Clock::rep now_rep() { return Clock::now().time_since_epoch().count(); }

double ms_since(Clock::time_point start) {
  return 1e-6 *
         static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                  start)
                 .count());
}

/// A terminal error frame for `id`.
std::string error_frame(const std::string& id, const std::string& code,
                        const std::string& message) {
  JsonWriter out;
  out.str("op", "error").str("id", id).str("code", code).str("message",
                                                             message);
  return out.finish();
}

/// The spec JSON line journaled with an accept record.
std::string spec_json_line(const JobSpec& spec) {
  JsonWriter out;
  spec.encode(out);
  return out.finish();
}

}  // namespace

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Server::Options Server::Options::from_env() {
  Options opts;
  opts.endpoint = env_str("LPMD_ENDPOINT", opts.endpoint);
  opts.journal_path = env_str("LPMD_JOURNAL", opts.journal_path);
  opts.workers =
      static_cast<unsigned>(env_u64("LPMD_WORKERS", opts.workers));
  opts.queue_max =
      static_cast<std::size_t>(env_u64("LPMD_QUEUE_MAX", opts.queue_max));
  opts.per_client_max = static_cast<std::size_t>(
      env_u64("LPMD_PER_CLIENT_MAX", opts.per_client_max));
  opts.degrade_watermark = static_cast<std::size_t>(
      env_u64("LPMD_DEGRADE_WATERMARK", opts.degrade_watermark));
  opts.degrade_backend = env_str("LPMD_DEGRADE_BACKEND", opts.degrade_backend);
  opts.retry_after_ms = env_u64("LPMD_RETRY_AFTER_MS", opts.retry_after_ms);
  opts.memo_bytes = env_u64("LPMD_MEMO_BYTES", opts.memo_bytes);
  opts.job_timeout_ms = env_u64("LPMD_JOB_TIMEOUT_MS", opts.job_timeout_ms);
  opts.max_retries =
      static_cast<unsigned>(env_u64("LPMD_MAX_RETRIES", opts.max_retries));
  opts.idle_timeout_ms =
      env_u64("LPMD_IDLE_TIMEOUT_MS", opts.idle_timeout_ms);
  return opts;
}

Server::Server(Options opts)
    : opts_(std::move(opts)),
      queue_(AdmissionQueue::Options{opts_.queue_max, opts_.per_client_max,
                                     opts_.degrade_watermark,
                                     opts_.degrade_backend,
                                     opts_.retry_after_ms}),
      memo_(opts_.memo_bytes,
            [](const std::string& body) -> std::uint64_t {
              return body.size();
            }),
      conns_accepted_(obs::MetricsRegistry::global().counter(
          "srv.connections.accepted")),
      tcp_conns_accepted_(obs::MetricsRegistry::global().counter(
          "srv.tcp.connections.accepted")),
      conns_reaped_(
          obs::MetricsRegistry::global().counter("srv.connections.reaped")),
      frames_received_(
          obs::MetricsRegistry::global().counter("srv.frames.received")),
      frames_sent_(obs::MetricsRegistry::global().counter("srv.frames.sent")),
      jobs_completed_(
          obs::MetricsRegistry::global().counter("srv.jobs.completed")),
      jobs_failed_(obs::MetricsRegistry::global().counter("srv.jobs.failed")),
      jobs_deadline_expired_(obs::MetricsRegistry::global().counter(
          "srv.jobs.deadline_expired")),
      jobs_recovered_(
          obs::MetricsRegistry::global().counter("srv.jobs.recovered")),
      cache_hits_(obs::MetricsRegistry::global().counter("srv.cache.hits")),
      cache_misses_(
          obs::MetricsRegistry::global().counter("srv.cache.misses")),
      cache_evictions_(
          obs::MetricsRegistry::global().counter("srv.cache.evictions")),
      cache_bytes_(obs::MetricsRegistry::global().gauge("srv.cache.bytes")),
      tcp_port_(obs::MetricsRegistry::global().gauge("srv.tcp.port")),
      queue_wait_ms_(obs::MetricsRegistry::global().histogram(
          "srv.job.queue_wait_ms", obs::MetricsRegistry::latency_ms_bounds())),
      service_ms_(obs::MetricsRegistry::global().histogram(
          "srv.job.service_ms", obs::MetricsRegistry::latency_ms_bounds())) {
  util::require(opts_.workers > 0, "Server: workers must be > 0");
  cache_bytes_.set(0.0);
  // Analytic backends must exist before any degraded or rdh/fa job runs.
  model::register_analytic_executors();
  util::require(
      exp::ExperimentEngine::has_backend_executor(opts_.degrade_backend),
      "Server: degrade_backend is not a registered backend");

  engine_ = std::make_unique<exp::ExperimentEngine>(
      exp::ExperimentEngine::Options::builder()
          // Serial engine = executor threads are the pool; see server.hpp.
          .threads(1)
          .cache(false)  // memo_ is the one server cache
          .max_retries(opts_.max_retries)
          .retry_backoff_base_ms(5)
          .job_timeout_ms(opts_.job_timeout_ms)
          .policy(exp::FailurePolicy::kCollect)
          .fault_plan(exp::FaultPlan::from_env())
          .build());
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);

  if (!opts_.journal_path.empty()) {
    journal_ = JobJournal::open(opts_.journal_path);
    for (const RecoveredJob& rec : journal_->recovered()) {
      const std::size_t slash = rec.key.find('/');
      if (slash == std::string::npos) continue;
      if (rec.done) {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        JobState state;
        state.phase = JobPhase::kDone;
        state.degraded = rec.degraded;
        state.frames = rec.frames;
        jobs_[rec.key] = std::move(state);
        continue;
      }
      try {
        QueuedJob job;
        job.client = rec.key.substr(0, slash);
        job.id = rec.key.substr(slash + 1);
        job.key = rec.key;
        job.spec = JobSpec::decode(util::FlatJson::parse(rec.spec_json));
        job.spec.validate();
        job.degraded = rec.degraded;
        job.deadline = Clock::time_point::max();  // survived a crash; run it
        job.accepted_at = Clock::now();
        {
          std::lock_guard<std::mutex> lock(jobs_mutex_);
          JobState state;
          state.degraded = rec.degraded;
          jobs_[rec.key] = std::move(state);
        }
        queue_.requeue(std::move(job));
        ++recovered_pending_;
        jobs_recovered_.inc();
      } catch (const util::LpmError& e) {
        util::log_warn() << "lpmd: dropping unrecoverable journal entry '"
                         << rec.key << "': " << e.what();
      }
    }
    if (recovered_pending_ > 0) {
      util::log_info() << "lpmd: re-enqueued " << recovered_pending_
                       << " in-flight job(s) from " << opts_.journal_path;
    }
  }

  listen_endpoint_ = Endpoint::parse(opts_.endpoint);
  listener_ = listen_endpoint(listen_endpoint_);
  if (listen_endpoint_.kind == Endpoint::Kind::kTcp) {
    // Resolve an ephemeral ":0" request to the port the kernel picked.
    listen_endpoint_.port = bound_tcp_port(listener_);
    tcp_port_.set(listen_endpoint_.port);
  }
  bound_endpoint_ = listen_endpoint_.to_string();
  listener_thread_ = std::thread([this] { listener_loop(); });
  for (unsigned i = 0; i < opts_.workers; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

void Server::serve() {
  start();
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop();
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  stop_requested_.store(true);
  queue_.close();
  listener_.shutdown_both();
  if (listener_thread_.joinable()) listener_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [thread, conn] : readers_) conn->fd.shutdown_both();
  }
  // Reader threads observe the shutdown (poll wakes with kClosed) and exit.
  std::vector<std::pair<std::thread, ConnPtr>> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    readers.swap(readers_);
    clients_.clear();
  }
  for (auto& [thread, conn] : readers) {
    if (thread.joinable()) thread.join();
  }
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  if (listen_endpoint_.kind == Endpoint::Kind::kUnix &&
      !listen_endpoint_.path.empty()) {
    ::unlink(listen_endpoint_.path.c_str());
  }
}

void Server::listener_loop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    std::optional<Fd> accepted;
    try {
      accepted = accept_socket(listener_, 100);
    } catch (const util::IoError&) {
      break;  // listener shut down under us (stop())
    }
    if (accepted) {
      auto conn = std::make_shared<Connection>();
      conn->fd = std::move(*accepted);
      conn->last_activity.store(now_rep(), std::memory_order_relaxed);
      conns_accepted_.inc();
      if (listen_endpoint_.kind == Endpoint::Kind::kTcp) {
        tcp_conns_accepted_.inc();
      }
      std::lock_guard<std::mutex> lock(conns_mutex_);
      readers_.emplace_back(std::thread([this, conn] { reader_loop(conn); }),
                            conn);
    }
    reap_idle_connections();
  }
}

void Server::reader_loop(ConnPtr conn) {
  std::string payload;
  while (!stop_requested_.load(std::memory_order_relaxed) &&
         !conn->dead.load(std::memory_order_relaxed)) {
    const IoStatus status = read_frame(conn->fd, payload, 500);
    if (status == IoStatus::kClosed) break;
    if (status == IoStatus::kTimeout) continue;  // idle check is the reaper's
    conn->last_activity.store(now_rep(), std::memory_order_relaxed);
    frames_received_.inc();
    bool keep = false;
    try {
      keep = handle_frame(conn, payload);
    } catch (const std::exception& e) {
      // A handler bug must never take the server down with the connection.
      util::log_warn() << "lpmd: dropping connection after handler error: "
                       << e.what();
    }
    if (!keep) break;
  }
  conn->dead.store(true, std::memory_order_relaxed);
  conn->fd.shutdown_both();
  std::lock_guard<std::mutex> lock(conns_mutex_);
  const auto it = clients_.find(conn->client);
  if (it != clients_.end() && it->second == conn) clients_.erase(it);
}

void Server::reap_idle_connections() {
  const auto idle_budget = std::chrono::milliseconds(opts_.idle_timeout_ms);
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [thread, conn] : readers_) {
      if (conn->dead.load(std::memory_order_relaxed)) continue;
      const auto last = Clock::time_point(
          Clock::duration(conn->last_activity.load(std::memory_order_relaxed)));
      if (Clock::now() - last > idle_budget) {
        conn->dead.store(true, std::memory_order_relaxed);
        conn->fd.shutdown_both();  // reader wakes and exits
        conns_reaped_.inc();
      }
    }
    // Collect reader threads whose connections have wound down.
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (it->second->dead.load(std::memory_order_relaxed) &&
          it->first.joinable()) {
        finished.push_back(std::move(it->first));
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : finished) t.join();
}

bool Server::handle_frame(const ConnPtr& conn, const std::string& payload) {
  util::FlatJson frame;
  try {
    frame = util::FlatJson::parse(payload);
  } catch (const util::LpmError& e) {
    send_frame(conn, error_frame("", "config",
                                 std::string("bad frame: ") + e.what()));
    return true;
  }
  const std::string op = frame.get_string("op").value_or("");

  if (op == "hello") {
    if (!conn->client.empty()) {
      // One hello per connection: a second one would rebind the session
      // to another client name mid-stream.
      send_frame(conn, error_frame("", "config",
                                   "hello: connection already established"));
      return false;
    }
    // An absent proto field means 1 (the pre-negotiation wire). Older is
    // fine — the protocol only grows — but a *newer* proto means the peer
    // may send fields we would silently drop, so refuse it typed.
    const double proto = frame.get_number("proto").value_or(1);
    if (proto > kProtocolVersion) {
      send_frame(conn,
                 error_frame("", "unsupported_proto",
                             "server speaks proto " +
                                 std::to_string(kProtocolVersion) +
                                 "; client announced a newer one"));
      return false;
    }
    const std::string client = frame.get_string("client").value_or("");
    if (!valid_name(client)) {
      send_frame(conn, error_frame("", "config",
                                   "hello: client name must be "
                                   "[A-Za-z0-9._-]{1,64}"));
      return false;
    }
    conn->client = client;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      const auto it = clients_.find(client);
      if (it != clients_.end() && it->second != conn) {
        // A reconnect supersedes the old link (likely half-dead).
        it->second->dead.store(true, std::memory_order_relaxed);
        it->second->fd.shutdown_both();
      }
      clients_[client] = conn;
    }
    JsonWriter out;
    out.str("op", "hello_ok")
        .num_u64("proto", kProtocolVersion)
        .num_u64("recovered", recovered_pending_);
    send_frame(conn, out.finish());
    return true;
  }

  if (conn->client.empty()) {
    send_frame(conn, error_frame("", "config", "hello required first"));
    return false;
  }

  if (op == "submit") {
    handle_submit(conn, frame);
    return true;
  }
  if (op == "attach") {
    handle_attach(conn, frame);
    return true;
  }
  if (op == "ping") {
    JsonWriter out;
    out.str("op", "pong");
    send_frame(conn, out.finish());
    return true;
  }
  if (op == "stats") {
    JsonWriter out;
    out.str("op", "stats")
        .num_u64("queue_depth", queue_.depth())
        .num_u64("memo_entries", memo_.size())
        .num_u64("memo_bytes", memo_.bytes())
        .num_u64("simulations_executed", engine_->simulations_executed())
        .num_u64("jobs_failed_engine", engine_->jobs_failed());
    send_frame(conn, out.finish());
    return true;
  }
  if (op == "shutdown") {
    JsonWriter out;
    out.str("op", "shutdown_ok");
    send_frame(conn, out.finish());
    stop_requested_.store(true, std::memory_order_relaxed);
    return false;
  }
  send_frame(conn, error_frame("", "config", "unknown op '" + op + "'"));
  return true;
}

void Server::handle_submit(const ConnPtr& conn, const util::FlatJson& frame) {
  const std::string id = frame.get_string("id").value_or("");
  if (!valid_name(id)) {
    send_frame(conn, error_frame(id, "config",
                                 "submit: id must be [A-Za-z0-9._-]{1,64}"));
    return;
  }
  const std::string key = conn->client + "/" + id;

  // Idempotent resubmit: a client that lost our ack (or our results) can
  // safely send the same id again.
  {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(key);
    if (it != jobs_.end()) {
      const bool done = it->second.phase == JobPhase::kDone;
      const bool degraded = it->second.degraded;
      // Frames go out without jobs_mutex_: admission below takes it under
      // the connection's write lock, and the opposite order could deadlock.
      lock.unlock();
      if (done) {
        replay_done_job(conn, key);
      } else {
        JsonWriter out;
        out.str("op", "ack")
            .str("id", id)
            .str("status", "pending")
            .boolean("degraded", degraded);
        send_frame(conn, out.finish());
      }
      return;
    }
  }

  QueuedJob job;
  job.client = conn->client;
  job.id = id;
  job.key = key;
  try {
    job.spec = JobSpec::decode(frame);
    job.spec.validate();
  } catch (const util::LpmError& e) {
    send_frame(conn, error_frame(id, error_code_name(e.code()), e.what()));
    return;
  }
  job.accepted_at = Clock::now();
  job.deadline = job.spec.deadline_ms == 0
                     ? Clock::time_point::max()
                     : job.accepted_at +
                           std::chrono::milliseconds(job.spec.deadline_ms);

  // The on-admit hook runs under the queue lock: the accept record and the
  // job-state entry are durable before the job is poppable, so an executor
  // (or a crash) can never outrun the journal. The connection's write lock
  // is held from before admission until the ack is written: an executor
  // can pop and finish the job at once, and its result frames must not
  // reach the client ahead of the ack (journal accept → ack → execute).
  const std::lock_guard<std::mutex> ack_first(conn->write_mutex);
  const AdmissionVerdict verdict = queue_.offer(
      std::move(job), [this](const QueuedJob& admitted, AdmissionVerdict v) {
        {
          std::lock_guard<std::mutex> lock(jobs_mutex_);
          JobState state;
          state.degraded = admitted.degraded;
          jobs_[admitted.key] = std::move(state);
        }
        if (journal_) {
          journal_->record_accept(admitted.key, admitted.degraded,
                                  spec_json_line(admitted.spec));
        }
        (void)v;
      });

  switch (verdict) {
    case AdmissionVerdict::kAccept:
    case AdmissionVerdict::kDegrade: {
      JsonWriter out;
      out.str("op", "ack")
          .str("id", id)
          .str("status", "queued")
          .boolean("degraded", verdict == AdmissionVerdict::kDegrade);
      send_frame_locked(conn, out.finish());
      return;
    }
    case AdmissionVerdict::kRetryAfter: {
      JsonWriter out;
      out.str("op", "retry_after")
          .str("id", id)
          .num_u64("retry_after_ms", queue_.retry_after_hint_ms());
      send_frame_locked(conn, out.finish());
      return;
    }
    case AdmissionVerdict::kShed: {
      JsonWriter out;
      out.str("op", "error")
          .str("id", id)
          .str("code", "overload")
          .str("message", "queue full; resubmit after the hint")
          .num_u64("retry_after_ms", queue_.retry_after_hint_ms());
      send_frame_locked(conn, out.finish());
      return;
    }
  }
}

void Server::handle_attach(const ConnPtr& conn, const util::FlatJson& frame) {
  const std::string id = frame.get_string("id").value_or("");
  const std::string key = conn->client + "/" + id;
  // The reply is sent after jobs_mutex_ is released (see handle_submit).
  std::string reply;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(key);
    if (it == jobs_.end()) {
      reply = error_frame(id, "unknown_job", "no such job for this client");
    } else if (it->second.phase != JobPhase::kDone) {
      JsonWriter out;
      out.str("op", "ack")
          .str("id", id)
          .str("status", "pending")
          .boolean("degraded", it->second.degraded);
      reply = out.finish();
    }
  }
  if (!reply.empty()) {
    send_frame(conn, reply);
    return;
  }
  replay_done_job(conn, key);
}

void Server::replay_done_job(const ConnPtr& conn, const std::string& key) {
  std::vector<std::string> frames;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(key);
    if (it == jobs_.end() || it->second.phase != JobPhase::kDone) return;
    if (it->second.delivered_conn.lock() == conn) {
      // The completion push to this very connection is already in flight
      // (or arrived); replaying now would hand the client a duplicate.
      return;
    }
    it->second.delivered_conn = conn;
    frames = it->second.frames;
  }
  for (const std::string& f : frames) {
    if (conn->dead.load(std::memory_order_relaxed)) break;
    send_frame(conn, f);
  }
  if (conn->dead.load(std::memory_order_relaxed)) {
    // Delivery died mid-replay: clear the token so the client's next
    // attach (on a fresh connection) replays from the start.
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(key);
    if (it != jobs_.end() && it->second.delivered_conn.lock() == conn) {
      it->second.delivered_conn.reset();
    }
  }
}

void Server::executor_loop() {
  while (true) {
    std::optional<QueuedJob> job = queue_.pop(std::chrono::milliseconds(200));
    if (!job) {
      if (stop_requested_.load(std::memory_order_relaxed)) return;
      continue;
    }
    queue_wait_ms_.observe(ms_since(job->accepted_at));
    if (Clock::now() > job->deadline) {
      jobs_deadline_expired_.inc();
      finish_job(job->key, job->client,
                 {error_frame(job->id, "timeout",
                              "deadline expired before execution")},
                 /*failed=*/true);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_[job->key].phase = JobPhase::kRunning;
    }
    execute_job(std::move(*job));
  }
}

std::string Server::outcome_fragment(const exp::SimJob& job,
                                     const exp::SimJobOutcome& outcome) {
  const exp::ResultRecord rec =
      exp::ResultRecord::make(job, *outcome.result, outcome.from_cache);
  JsonWriter out;
  out.boolean("ok", true)
      .str("fingerprint", rec.fingerprint)
      .str("backend", rec.backend)
      .num_u64("cycles", rec.cycles)
      .num_u64("cores", rec.cores)
      .num_u64("instructions", rec.instructions)
      .num("ipc", rec.ipc)
      .num("mr1", rec.mr1)
      .num("mr2", rec.mr2)
      .num("camat1", rec.camat1)
      .num("camat2", rec.camat2)
      .num("cpi_exe", rec.cpi_exe)
      .num("duration_ms", rec.duration_ms);
  cache_evictions_.add(memo_.put(job.fingerprint(), out.body()));
  cache_bytes_.set(static_cast<double>(memo_.bytes()));
  return out.body();
}

void Server::execute_job(QueuedJob job) {
  const Clock::time_point started = Clock::now();
  std::vector<std::string> frames;
  bool failed = false;
  try {
    if (job.spec.kind == "walk") {
      const model::TraceSpec trace =
          model::TraceSpec::spec(job.spec.workload, job.spec.length,
                                 job.spec.seed);
      core::LpmAlgorithmConfig cfg;
      cfg.max_iterations = 24;
      const ScreenedWalkReport report = run_lpm_walk_screened(
          job.spec.machine_config(), trace.workloads.at(0),
          core::KnobLevels::standard(), core::ArchKnobs::config_a(), cfg,
          opts_.degrade_backend == "fa" ? model::kFaBackend
                                        : model::kRdhBackend,
          engine_.get());
      JsonWriter out;
      out.str("op", "done")
          .str("id", job.id)
          .boolean("degraded", false)
          .str("final_config", report.final_config.label())
          .boolean("converged", report.confirm.converged)
          .boolean("exhausted", report.confirm.exhausted)
          .num_u64("confirm_steps", report.confirm.steps.size())
          .num_u64("screen_configs", report.screen_configs)
          .num_u64("confirm_configs", report.confirm_configs);
      frames.push_back(out.finish());
    } else {
      const std::vector<exp::SimJob> points = job.spec.expand(job.key);
      // Memo pass first: only misses reach the engine, as one kCollect
      // batch so a failed point never cancels its siblings.
      std::vector<std::optional<std::string>> fragments(points.size());
      std::vector<exp::SimJob> missing;
      std::vector<std::size_t> missing_index;
      for (std::size_t i = 0; i < points.size(); ++i) {
        fragments[i] = memo_.get(points[i].fingerprint());
        (fragments[i] ? cache_hits_ : cache_misses_).inc();
        if (!fragments[i]) {
          missing.push_back(points[i]);
          missing_index.push_back(i);
        }
      }
      std::vector<exp::SimJobOutcome> outcomes;
      if (!missing.empty()) {
        outcomes = engine_->run_batch_outcomes(
            missing, {exp::FailurePolicy::kCollect, false});
      }
      std::vector<std::string> errors(points.size());
      for (std::size_t m = 0; m < outcomes.size(); ++m) {
        const std::size_t i = missing_index[m];
        if (outcomes[m].ok()) {
          fragments[i] = outcome_fragment(missing[m], outcomes[m]);
        } else {
          errors[i] = std::string(error_code_name(outcomes[m].error)) + ": " +
                      outcomes[m].error_message;
        }
      }

      if (job.spec.kind == "simulate") {
        if (fragments[0]) {
          JsonWriter out;
          out.str("op", "done")
              .str("id", job.id)
              .boolean("degraded", job.degraded)
              .raw_body(*fragments[0]);
          frames.push_back(out.finish());
        } else {
          const std::string& msg = errors[0];
          const std::size_t colon = msg.find(':');
          frames.push_back(error_frame(
              job.id, colon == std::string::npos ? "sim" : msg.substr(0, colon),
              colon == std::string::npos ? msg : msg.substr(colon + 2)));
          failed = true;
        }
      } else {  // sweep: one point frame per value, then one done frame
        std::size_t ok_points = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
          JsonWriter out;
          out.str("op", "point")
              .str("id", job.id)
              .num_u64("seq", i)
              .num_u64("of", points.size())
              .boolean("degraded", job.degraded);
          if (fragments[i]) {
            out.raw_body(*fragments[i]);
            ++ok_points;
          } else {
            out.boolean("ok", false).str("error", errors[i]);
          }
          frames.push_back(out.finish());
        }
        JsonWriter out;
        out.str("op", "done")
            .str("id", job.id)
            .boolean("degraded", job.degraded)
            .num_u64("points", points.size())
            .num_u64("points_ok", ok_points);
        frames.push_back(out.finish());
        failed = ok_points == 0;
      }
    }
  } catch (const util::LpmError& e) {
    frames.assign(1, error_frame(job.id, error_code_name(e.code()), e.what()));
    failed = true;
  } catch (const std::exception& e) {
    frames.assign(1, error_frame(job.id, "error", e.what()));
    failed = true;
  }
  service_ms_.observe(ms_since(started));
  finish_job(job.key, job.client, std::move(frames), failed);
}

void Server::finish_job(const std::string& key, const std::string& client,
                        std::vector<std::string> frames, bool failed) {
  // Exactly-once ordering: frames → done marker → state flip → delivery.
  if (journal_) {
    for (const std::string& f : frames) journal_->record_result(key, f);
    journal_->record_done(key);
  }
  // Claim the delivery token for the client's current connection in the
  // same critical section that flips the job done, so a racing attach on
  // that connection cannot trigger a second replay (see JobState).
  ConnPtr conn;
  {
    std::lock_guard<std::mutex> conns_lock(conns_mutex_);
    const auto it = clients_.find(client);
    if (it != clients_.end()) conn = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    JobState& state = jobs_[key];
    state.phase = JobPhase::kDone;
    state.frames = frames;
    state.delivered_conn = conn;  // empty when the client is away
  }
  (failed ? jobs_failed_ : jobs_completed_).inc();
  if (!conn) return;  // away; results wait for attach
  for (const std::string& f : frames) {
    if (conn->dead.load(std::memory_order_relaxed)) break;
    send_frame(conn, f);
  }
  if (conn->dead.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(key);
    if (it != jobs_.end() && it->second.delivered_conn.lock() == conn) {
      it->second.delivered_conn.reset();
    }
  }
}

void Server::send_frame(const ConnPtr& conn, const std::string& payload) {
  const std::lock_guard<std::mutex> lock(conn->write_mutex);
  send_frame_locked(conn, payload);
}

void Server::send_frame_locked(const ConnPtr& conn,
                               const std::string& payload) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  const IoStatus status = write_frame(conn->fd, payload, opts_.io_timeout_ms);
  if (status == IoStatus::kOk) {
    frames_sent_.inc();
    return;
  }
  // A peer that cannot drain a frame within the budget forfeits the
  // connection; its results stay recorded for attach after it reconnects.
  conn->dead.store(true, std::memory_order_relaxed);
  conn->fd.shutdown_both();
  if (status == IoStatus::kTimeout) conns_reaped_.inc();
}

}  // namespace lpm::srv
