#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace lpm::obs {

namespace {

std::atomic<std::uint64_t> g_registry_serial{0};

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Lock-free add for atomic<double> (fetch_add on floating atomics is
/// C++20 but not universally lock-free; the CAS loop is portable).
void atomic_add_double(std::atomic<double>& slot, double delta) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- shards ---------------------------------------------------------------

struct MetricsRegistry::HistogramShard {
  explicit HistogramShard(std::vector<double> bucket_bounds)
      : bounds(std::move(bucket_bounds)), counts(bounds.size() + 1) {}
  /// Private copy of the upper edges so the hot observe() path never
  /// touches registry storage (which may reallocate under the mutex).
  std::vector<double> bounds;
  std::vector<std::atomic<std::uint64_t>> counts;  // bounds.size() + 1
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
};

/// One thread's private block of slots. Slot vectors only grow (never
/// shrink or move existing unique_ptr targets while readers hold the
/// registry mutex), and all growth happens under the registry mutex.
struct MetricsRegistry::Shard {
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> counters;
  std::vector<std::unique_ptr<HistogramShard>> histograms;
};

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// Thread-local cache: raw slot pointers per (registry serial, metric id).
/// Keyed by the registry's unique serial — never its address — so a
/// destroyed registry can't be written through a stale cache even if a new
/// one reuses its memory.
struct TlsCache {
  std::size_t shard_index = kNoShard;  ///< this thread's shard in the registry
  std::vector<std::atomic<std::uint64_t>*> counter_slots;
  std::vector<MetricsRegistry::HistogramShard*> histogram_slots;
};

/// One-entry fast path: instrumentation overwhelmingly hits a single
/// registry (the global one) per thread. `t_last` points into the thread's
/// TlsCacheMap, whose destructor clears it. These three have no destructor
/// themselves, so they stay readable while later destructors run.
thread_local std::uint64_t t_last_serial = 0;
thread_local TlsCache* t_last = nullptr;
thread_local bool t_caches_gone = false;

struct TlsCacheMap {
  std::unordered_map<std::uint64_t, TlsCache> caches;
  ~TlsCacheMap() {
    t_last = nullptr;
    t_caches_gone = true;
    // Later writes on this thread take the teardown shard, so nothing
    // writes through these shards again until a new thread takes them.
    for (const auto& [serial, cache] : caches) {
      if (cache.shard_index != kNoShard) {
        MetricsRegistry::release_shard(serial, cache.shard_index);
      }
    }
  }
};

/// The calling thread's cache for registry `serial`, or nullptr once the
/// thread's thread_locals are destroyed: a static or thread-exit destructor
/// that writes a metric then takes the uncached slot path.
TlsCache* tls_for(std::uint64_t serial) {
  if (serial == t_last_serial && t_last != nullptr) return t_last;
  if (t_caches_gone) return nullptr;
  thread_local TlsCacheMap map;
  TlsCache& c = map.caches[serial];
  t_last_serial = serial;
  t_last = &c;
  return &c;
}

/// The registries alive now, by serial: an exiting thread hands a shard
/// back only to a registry it finds here. Leaked, like global(), because
/// threads still exit while static destructors run. Lock order: this
/// mutex, then a registry's.
struct LiveRegistries {
  std::mutex mutex;
  std::unordered_map<std::uint64_t, MetricsRegistry*> by_serial;
};

LiveRegistries& live_registries() {
  static auto* live = new LiveRegistries;
  return *live;
}

}  // namespace

// --- registry -------------------------------------------------------------

MetricsRegistry::MetricsRegistry()
    : serial_(g_registry_serial.fetch_add(1, std::memory_order_relaxed) + 1) {
  LiveRegistries& live = live_registries();
  const std::lock_guard<std::mutex> lock(live.mutex);
  live.by_serial.emplace(serial_, this);
}

MetricsRegistry::~MetricsRegistry() {
  LiveRegistries& live = live_registries();
  const std::lock_guard<std::mutex> lock(live.mutex);
  live.by_serial.erase(serial_);
}

void MetricsRegistry::release_shard(std::uint64_t serial, std::size_t index) {
  LiveRegistries& live = live_registries();
  const std::lock_guard<std::mutex> live_lock(live.mutex);
  const auto it = live.by_serial.find(serial);
  if (it == live.by_serial.end()) return;
  MetricsRegistry& reg = *it->second;
  const std::lock_guard<std::mutex> lock(reg.mutex_);
  reg.free_shards_.push_back(index);
}

MetricsRegistry::Counter MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = counter_ids_.emplace(name, counter_names_.size());
  if (inserted) counter_names_.push_back(name);
  return Counter(this, it->second);
}

MetricsRegistry::Gauge MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = gauge_ids_.emplace(name, gauge_names_.size());
  if (inserted) {
    gauge_names_.push_back(name);
    gauge_values_.push_back(std::make_unique<std::atomic<double>>(0.0));
    gauge_set_.push_back(false);
  }
  return Gauge(this, it->second);
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    const std::string& name, std::vector<double> bounds) {
  util::require(!bounds.empty(), "histogram '" + name + "': need >= 1 bound");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    util::require(bounds[i - 1] < bounds[i],
                  "histogram '" + name + "': bounds must be strictly increasing");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = histogram_ids_.emplace(name, histogram_meta_.size());
  if (inserted) histogram_meta_.push_back(HistogramMeta{name, std::move(bounds)});
  return Histogram(this, it->second);
}

std::vector<double> MetricsRegistry::latency_ms_bounds() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
          1000, 2500, 5000, 10000, 30000, 60000};
}

std::vector<double> MetricsRegistry::concurrency_bounds() {
  return {0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
}

MetricsRegistry::Shard& MetricsRegistry::shard_locked(std::size_t& index) {
  if (index == kNoShard && !free_shards_.empty()) {
    index = free_shards_.back();
    free_shards_.pop_back();
  } else if (index == kNoShard) {
    index = shards_.size();
    shards_.push_back(std::make_unique<Shard>());
  }
  return *shards_[index];
}

std::atomic<std::uint64_t>* MetricsRegistry::counter_slot(std::size_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TlsCache* tls = tls_for(serial_);
  Shard& shard =
      shard_locked(tls != nullptr ? tls->shard_index : teardown_shard_);
  if (shard.counters.size() <= id) shard.counters.resize(id + 1);
  if (shard.counters[id] == nullptr) {
    shard.counters[id] = std::make_unique<std::atomic<std::uint64_t>>(0);
  }
  if (tls != nullptr) {
    if (tls->counter_slots.size() <= id) {
      tls->counter_slots.resize(id + 1, nullptr);
    }
    tls->counter_slots[id] = shard.counters[id].get();
  }
  return shard.counters[id].get();
}

MetricsRegistry::HistogramShard* MetricsRegistry::histogram_shard(
    std::size_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TlsCache* tls = tls_for(serial_);
  Shard& shard =
      shard_locked(tls != nullptr ? tls->shard_index : teardown_shard_);
  if (shard.histograms.size() <= id) shard.histograms.resize(id + 1);
  if (shard.histograms[id] == nullptr) {
    shard.histograms[id] =
        std::make_unique<HistogramShard>(histogram_meta_[id].bounds);
  }
  if (tls != nullptr) {
    if (tls->histogram_slots.size() <= id) {
      tls->histogram_slots.resize(id + 1, nullptr);
    }
    tls->histogram_slots[id] = shard.histograms[id].get();
  }
  return shard.histograms[id].get();
}

void MetricsRegistry::Counter::add(std::uint64_t delta) {
  if (reg_ == nullptr) return;
  const TlsCache* tls = tls_for(reg_->serial_);
  std::atomic<std::uint64_t>* slot =
      tls != nullptr && id_ < tls->counter_slots.size()
          ? tls->counter_slots[id_]
          : nullptr;
  if (slot == nullptr) slot = reg_->counter_slot(id_);
  slot->fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Histogram::observe(double value) {
  if (reg_ == nullptr) return;
  const TlsCache* tls = tls_for(reg_->serial_);
  HistogramShard* hs = tls != nullptr && id_ < tls->histogram_slots.size()
                           ? tls->histogram_slots[id_]
                           : nullptr;
  if (hs == nullptr) hs = reg_->histogram_shard(id_);
  // Upper-inclusive buckets: v lands in the first bucket with v <= bound;
  // values above the last edge go to the overflow bucket.
  const auto it = std::lower_bound(hs->bounds.begin(), hs->bounds.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - hs->bounds.begin());
  hs->counts[bucket].fetch_add(1, std::memory_order_relaxed);
  hs->count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(hs->sum, value);
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counter_ids_.size() + gauge_ids_.size() + histogram_ids_.size();
}

std::size_t MetricsRegistry::shard_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shards_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, id] : counter_ids_) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      if (id < shard->counters.size() && shard->counters[id] != nullptr) {
        total += shard->counters[id]->load(std::memory_order_relaxed);
      }
    }
    snap.counters.emplace(name, total);
  }
  for (const auto& [name, id] : gauge_ids_) {
    if (gauge_set_[id]) {
      snap.gauges.emplace(name,
                          gauge_values_[id]->load(std::memory_order_relaxed));
    } else {
      snap.gauges.emplace(name, 0.0);
    }
  }
  for (const auto& [name, id] : histogram_ids_) {
    HistogramSnapshot h;
    h.bounds = histogram_meta_[id].bounds;
    h.counts.assign(h.bounds.size() + 1, 0);
    for (const auto& shard : shards_) {
      if (id >= shard->histograms.size() || shard->histograms[id] == nullptr) {
        continue;
      }
      const HistogramShard& hs = *shard->histograms[id];
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        h.counts[b] += hs.counts[b].load(std::memory_order_relaxed);
      }
      h.count += hs.count.load(std::memory_order_relaxed);
      h.sum += hs.sum.load(std::memory_order_relaxed);
    }
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

void MetricsRegistry::Gauge::set(double value) {
  if (reg_ == nullptr) return;
  const std::lock_guard<std::mutex> lock(reg_->mutex_);
  reg_->gauge_values_[id_]->store(value, std::memory_order_relaxed);
  reg_->gauge_set_[id_] = true;
}

// --- snapshot output ------------------------------------------------------

std::uint64_t MetricsSnapshot::counter_or_zero(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void MetricsSnapshot::write_text(std::ostream& out) const {
  for (const auto& [name, value] : counters) {
    out << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    out << name << ' ' << util::fmt(value, 6) << '\n';
  }
  for (const auto& [name, h] : histograms) {
    out << name << " count=" << h.count << " sum=" << util::fmt(h.sum, 6)
        << " mean=" << util::fmt(h.mean(), 6);
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out << ' ';
      if (b < h.bounds.size()) {
        out << "le" << util::fmt(h.bounds[b], 6);
      } else {
        out << "le+inf";
      }
      out << '=' << h.counts[b];
    }
    out << '\n';
  }
}

void MetricsSnapshot::write_json(std::ostream& out) const {
  util::JsonWriter counter_obj;
  for (const auto& [name, value] : counters) counter_obj.num_u64(name, value);
  util::JsonWriter gauge_obj;
  for (const auto& [name, value] : gauges) gauge_obj.num(name, value);
  util::JsonWriter histogram_obj;
  for (const auto& [name, h] : histograms) {
    histogram_obj.object(name, util::JsonWriter()
                                   .array("bounds", h.bounds)
                                   .array("counts", h.counts)
                                   .num_u64("count", h.count)
                                   .num("sum", h.sum));
  }
  out << util::JsonWriter()
             .object("counters", counter_obj)
             .object("gauges", gauge_obj)
             .object("histograms", histogram_obj)
             .finish()
      << '\n';
}

// --- global registry + exit dump ------------------------------------------

bool dump_metrics(const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    util::log_warn() << "LPM_METRICS: cannot write '" << path << "'";
    return false;
  }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const bool json =
      path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  if (json) {
    snap.write_json(out);
  } else {
    snap.write_text(out);
  }
  return out.good();
}

namespace {

void dump_metrics_at_exit() {
  const char* path = std::getenv("LPM_METRICS");
  if (path == nullptr || *path == '\0') return;
  dump_metrics(path);
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose (see header); the atexit hook runs before static
  // destructors registered later — in particular before the shared
  // experiment engine begins construction-ordered teardown — but the
  // registry itself stays valid for any writer however late.
  static MetricsRegistry* instance = [] {
    auto* reg = new MetricsRegistry();
    std::atexit(dump_metrics_at_exit);
    return reg;
  }();
  return *instance;
}

// --- summary line ---------------------------------------------------------

std::string summary_line() {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const char* metrics_path = std::getenv("LPM_METRICS");
  const char* trace_path = std::getenv("LPM_TRACE");
  std::ostringstream os;
  os << "obs: jobs executed=" << snap.counter_or_zero("exp.jobs.executed")
     << " cached=" << snap.counter_or_zero("exp.jobs.cache_hits")
     << " failed=" << snap.counter_or_zero("exp.jobs.failed")
     << " retries=" << snap.counter_or_zero("exp.jobs.retries")
     << " | sim runs=" << snap.counter_or_zero("sim.runs")
     << " cycles=" << snap.counter_or_zero("sim.cycles")
     << " | metrics→"
     << (metrics_path != nullptr && *metrics_path != '\0' ? metrics_path
                                                          : "off")
     << " trace→"
     << (trace_path != nullptr && *trace_path != '\0' ? trace_path : "off");
  return os.str();
}

// --- scoped timer ---------------------------------------------------------

ScopedTimer::ScopedTimer(MetricsRegistry::Histogram histogram,
                         const char* span_name)
    : histogram_(histogram), span_name_(span_name),
      start_us_(steady_now_us()) {}

double ScopedTimer::elapsed_ms() const {
  return 1e-3 * static_cast<double>(steady_now_us() - start_us_);
}

ScopedTimer::~ScopedTimer() {
  const double ms = elapsed_ms();
  histogram_.observe(ms);
  if (span_name_ != nullptr) {
    if (TraceSession* session = TraceSession::global(); session != nullptr) {
      const std::uint64_t now = session->now_us();
      const auto dur =
          static_cast<std::uint64_t>(ms * 1000.0);
      session->complete_event(span_name_, "exp",
                              now >= dur ? now - dur : 0, dur);
    }
  }
}

}  // namespace lpm::obs
