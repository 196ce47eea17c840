// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms, designed so the hot layers (experiment engine, sim
// run loop epilogues, the LPM walk) can record telemetry without a shared
// lock on the write path.
//
// Write path: each (thread, registry) pair owns a *shard* — a private block
// of relaxed atomics, one slot per metric. An increment is a thread-local
// cache lookup plus one relaxed fetch_add; no mutex is touched after the
// first time a thread uses a metric. Read path (snapshot()) takes the
// registry mutex, walks every shard, and sums the slots — merge-on-read,
// so writers are never blocked by a reader and vice versa.
//
// Snapshots taken while writers are active are well-defined (every slot is
// an atomic; TSan-clean by construction) but not an instantaneous cut: a
// snapshot racing an increment may or may not include it. Totals observed
// after writers quiesce (join) are exact.
//
// Thread safety: every public method on MetricsRegistry, Counter, Gauge and
// Histogram is safe to call from any thread, including experiment-engine
// workers, concurrently with snapshot(). The only lifetime rule is that the
// registry must outlive all threads still holding handles into it; the
// process-wide global() registry is never destroyed, so the rule only
// matters for privately constructed registries (join your threads first).
// Writes from static or thread-exit destructors that run after the
// writing thread's thread_locals are gone are still counted: they skip the
// destroyed cache and take the registry mutex each time.
//
// The exit snapshot: the first touch of MetricsRegistry::global() installs
// an atexit hook that, when $LPM_METRICS=<path> is set, writes a final
// snapshot there — JSON when the path ends in .json, aligned text
// otherwise. See OBSERVABILITY.md for the metric name catalogue.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace lpm::obs {

/// Merged view of one histogram: `bounds` are the registered upper bucket
/// edges (a value v lands in the first bucket with v <= bounds[i]; values
/// above the last edge land in the implicit overflow bucket, so
/// counts.size() == bounds.size() + 1).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;  ///< total observations
  double sum = 0.0;         ///< sum of observed values

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Point-in-time merged view of a whole registry (maps are sorted by name
/// so text/JSON output is stable run-to-run).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Aligned `name value` text, one metric per line.
  void write_text(std::ostream& out) const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& out) const;
  /// Counter value or 0 when absent (snapshot convenience for summaries).
  [[nodiscard]] std::uint64_t counter_or_zero(const std::string& name) const;
};

class MetricsRegistry {
 public:
  /// Implementation detail of the shard-per-thread write path; public only
  /// so the thread-local cache (an internal free struct) can point at it.
  struct Shard;
  struct HistogramShard;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Cheap copyable handle to one named counter. add()/inc() are wait-free
  /// after a thread's first use (relaxed atomic on a thread-private slot).
  class Counter {
   public:
    Counter() = default;
    void inc() { add(1); }
    void add(std::uint64_t delta);

   private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry* reg, std::size_t id) : reg_(reg), id_(id) {}
    MetricsRegistry* reg_ = nullptr;
    std::size_t id_ = 0;
  };

  /// Last-write-wins double value (single shared slot, not sharded: gauges
  /// record states, which do not sum across threads).
  class Gauge {
   public:
    Gauge() = default;
    void set(double value);

   private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry* reg, std::size_t id) : reg_(reg), id_(id) {}
    MetricsRegistry* reg_ = nullptr;
    std::size_t id_ = 0;
  };

  /// Fixed-bucket histogram handle; observe() is lock-free on the caller's
  /// shard like Counter::add.
  class Histogram {
   public:
    Histogram() = default;
    void observe(double value);

   private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry* reg, std::size_t id) : reg_(reg), id_(id) {}
    MetricsRegistry* reg_ = nullptr;
    std::size_t id_ = 0;
  };

  /// Registers (or finds) the named metric. Re-registering an existing name
  /// returns a handle to the same metric; for histograms the original
  /// bucket bounds stay authoritative. Names are free-form but the repo's
  /// convention is dotted lowercase: layer.noun[.qualifier] — see
  /// OBSERVABILITY.md.
  [[nodiscard]] Counter counter(const std::string& name);
  [[nodiscard]] Gauge gauge(const std::string& name);
  /// `bounds` must be strictly increasing and non-empty; they are upper
  /// bucket edges (v <= bound). Throws util::ConfigError otherwise.
  [[nodiscard]] Histogram histogram(const std::string& name,
                                    std::vector<double> bounds);

  /// Default latency edges for *_ms histograms (sub-ms to minutes).
  [[nodiscard]] static std::vector<double> latency_ms_bounds();
  /// Default edges for small concurrency-style quantities (0.25 .. 64).
  [[nodiscard]] static std::vector<double> concurrency_bounds();

  /// Merge-on-read view of everything registered so far.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Number of distinct metrics registered (counters + gauges + histograms).
  [[nodiscard]] std::size_t size() const;

  /// The process-wide registry used by all built-in instrumentation. Never
  /// destroyed (leaked on purpose so worker threads and static destructors
  /// can never observe a dead registry). First use arms the $LPM_METRICS
  /// exit snapshot.
  static MetricsRegistry& global();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  /// Slow path: resolve (and cache) the calling thread's slot for metric
  /// `id`, creating the thread's shard on first touch.
  std::atomic<std::uint64_t>* counter_slot(std::size_t id);
  HistogramShard* histogram_shard(std::size_t id);
  /// The shard at `index`, appended first if `index` is unset. Caller
  /// holds mutex_.
  Shard& shard_locked(std::size_t& index);

  /// Serial number distinguishing registry instances so a thread-local
  /// cache can never alias a dead registry reincarnated at the same
  /// address.
  const std::uint64_t serial_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Shared by every thread whose slot cache is already destroyed (writes
  /// from static and thread-exit destructors); its slots are atomics, so
  /// sharing costs only contention.
  std::size_t teardown_shard_ = static_cast<std::size_t>(-1);
  std::map<std::string, std::size_t> counter_ids_;
  std::map<std::string, std::size_t> gauge_ids_;
  std::map<std::string, std::size_t> histogram_ids_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::unique_ptr<std::atomic<double>>> gauge_values_;
  std::vector<bool> gauge_set_;
  struct HistogramMeta {
    std::string name;
    std::vector<double> bounds;
  };
  std::vector<HistogramMeta> histogram_meta_;
};

/// One line summarizing the global registry for bench/example footers:
/// engine job counts, simulated cycles, and where the full snapshot/trace
/// went (or "off" when the env knobs are unset).
[[nodiscard]] std::string summary_line();

/// Writes the global registry's snapshot to `path` (JSON when the path
/// ends in .json, text otherwise). Returns false (after logging a warning)
/// instead of throwing when the file cannot be written. Called
/// automatically at exit when $LPM_METRICS is set.
bool dump_metrics(const std::string& path);

/// RAII wall-clock timer: observes the elapsed milliseconds into
/// `histogram` on destruction and optionally adds the same interval as a
/// `span_name` span on the global trace session (when tracing is on).
/// Also re-exported as lpm::exp::ScopedTimer for engine consumers.
class ScopedTimer {
 public:
  explicit ScopedTimer(MetricsRegistry::Histogram histogram,
                       const char* span_name = nullptr);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Milliseconds elapsed so far.
  [[nodiscard]] double elapsed_ms() const;

 private:
  MetricsRegistry::Histogram histogram_;
  const char* span_name_;
  std::uint64_t start_us_;
};

}  // namespace lpm::obs
