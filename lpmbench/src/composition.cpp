#include "composition.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "camat/analyzer.hpp"
#include "cpu/ooo_core.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "spans.hpp"
#include "trace/spec_like.hpp"

namespace lpmbench {

namespace {

using namespace lpm;

enum Component : std::size_t { kDram, kL2, kL1, kCore, kLoop, kComponents };

/// What the decorators need to know about the cycle being ticked.
struct Meter {
  bool sampling = false;
  Component current = kLoop;
  std::array<std::int64_t, kComponents> tick_ns{};   ///< sampled cycles
  std::array<std::int64_t, kComponents> probe_ns{};  ///< nested, sampled
  std::array<std::int64_t, kComponents> fill_ns{};   ///< nested, sampled
  std::array<std::uint64_t, kComponents> probe_calls{};  ///< nested, sampled
  std::array<std::uint64_t, kComponents> fill_calls{};   ///< nested, sampled
  std::int64_t sampled_ns = 0;
  std::uint64_t sampled_cycles = 0;
  std::int64_t fill_total_ns = 0;
  std::uint64_t fills = 0;
  std::uint64_t ops = 0;
  std::uint64_t probe_events = 0;
};

/// Cost of one now_ns() call. Every timed interval holds about one call's
/// cost, so the split below subtracts it per interval.
double clock_cost_ns() {
  static const double cost = [] {
    constexpr int kCalls = 20000;
    std::vector<double> batches;
    for (int b = 0; b < 7; ++b) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kCalls; ++i) (void)now_ns();
      batches.push_back(static_cast<double>(now_ns() - t0) / kCalls);
    }
    std::sort(batches.begin(), batches.end());
    return batches[batches.size() / 2];
  }();
  return cost;
}

class TimedTrace final : public trace::TraceSource {
 public:
  TimedTrace(trace::TraceSourcePtr inner, Meter& meter)
      : inner_(std::move(inner)), meter_(meter) {}

  bool next(trace::MicroOp& op) override { return fill(&op, 1) == 1; }
  std::size_t fill(trace::MicroOp* dst, std::size_t n) override {
    const std::int64_t t0 = now_ns();
    const std::size_t got = inner_->fill(dst, n);
    const std::int64_t dt = now_ns() - t0;
    meter_.fill_total_ns += dt;
    ++meter_.fills;
    meter_.ops += got;
    if (meter_.sampling) {
      meter_.fill_ns[meter_.current] += dt;
      ++meter_.fill_calls[meter_.current];
    }
    return got;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  trace::TraceSourcePtr inner_;
  Meter& meter_;
};

/// Forwards every probe callback to a camat::Analyzer; times the callbacks
/// made during sampled cycles.
class TimedProbe final : public mem::AccessProbe {
 public:
  TimedProbe(camat::Analyzer& inner, Meter& meter)
      : inner_(inner), meter_(meter) {}

  void on_cycle_activity(Cycle cycle, std::uint32_t hit_active) override {
    timed([&] { inner_.on_cycle_activity(cycle, hit_active); });
  }
  void on_access(RequestId id, Cycle start, bool is_write) override {
    timed([&] { inner_.on_access(id, start, is_write); });
  }
  void on_hit(RequestId id, Cycle done) override {
    timed([&] { inner_.on_hit(id, done); });
  }
  void on_miss(RequestId id, Cycle start) override {
    timed([&] { inner_.on_miss(id, start); });
  }
  void on_miss_done(RequestId id, Cycle done) override {
    timed([&] { inner_.on_miss_done(id, done); });
  }

 private:
  template <typename F>
  void timed(F&& call) {
    ++meter_.probe_events;
    if (!meter_.sampling) {
      call();
      return;
    }
    const std::int64_t t0 = now_ns();
    call();
    meter_.probe_ns[meter_.current] += now_ns() - t0;
    ++meter_.probe_calls[meter_.current];
  }

  camat::Analyzer& inner_;
  Meter& meter_;
};

/// One analyzer and the probe decorator in front of it.
struct ProbedAnalyzer {
  ProbedAnalyzer(std::string name, Meter& meter)
      : analyzer(std::move(name)), probe(analyzer, meter) {}
  camat::Analyzer analyzer;
  TimedProbe probe;
};

/// sim::System's object graph, built and ticked the same way.
class Composition {
 public:
  Composition(const sim::MachineConfig& cfg,
              const std::vector<trace::WorkloadProfile>& workloads,
              Meter& meter)
      : cfg_(cfg) {
    for (const auto& wl : workloads) {
      traces_.push_back(
          std::make_unique<TimedTrace>(trace::make_trace(wl), meter));
    }
    dram_ = std::make_unique<mem::Dram>(cfg_.dram);
    dram_analyzer_ = std::make_unique<ProbedAnalyzer>("DRAM", meter);
    dram_->set_probe(&dram_analyzer_->probe);

    mem::CacheConfig l2cfg = cfg_.l2;
    l2cfg.num_cores = cfg_.num_cores;
    l2_ = std::make_unique<mem::Cache>(l2cfg, dram_.get(), /*id_space=*/1000);
    l2_analyzer_ = std::make_unique<ProbedAnalyzer>("L2", meter);
    l2_->set_probe(&l2_analyzer_->probe);

    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
      mem::MemoryLevel* below_l1 = l2_.get();
      if (cfg_.use_private_l2) {
        mem::CacheConfig l2pcfg = cfg_.private_l2;
        l2pcfg.name = "L2p." + std::to_string(c);
        l2pcfg.num_cores = cfg_.num_cores;
        l2pcfg.seed = cfg_.private_l2.seed + 17 * c;
        auto l2p = std::make_unique<mem::Cache>(l2pcfg, l2_.get(),
                                                /*id_space=*/500 + c);
        auto analyzer = std::make_unique<ProbedAnalyzer>(l2pcfg.name, meter);
        l2p->set_probe(&analyzer->probe);
        below_l1 = l2p.get();
        private_l2s_.push_back(std::move(l2p));
        private_l2_analyzers_.push_back(std::move(analyzer));
      }

      mem::CacheConfig l1cfg = cfg_.l1;
      l1cfg.name = "L1." + std::to_string(c);
      if (!cfg_.l1_size_per_core.empty()) {
        l1cfg.size_bytes = cfg_.l1_size_per_core[c];
      }
      l1cfg.num_cores = cfg_.num_cores;
      l1cfg.seed = cfg_.l1.seed + c;
      auto l1 = std::make_unique<mem::Cache>(l1cfg, below_l1,
                                             /*id_space=*/100 + c);
      auto analyzer = std::make_unique<ProbedAnalyzer>(l1cfg.name, meter);
      l1->set_probe(&analyzer->probe);

      cpu::CoreConfig core_cfg = cfg_.core;
      core_cfg.id = c;
      core_cfg.name = "core" + std::to_string(c);
      cores_.push_back(std::make_unique<cpu::OooCore>(
          core_cfg, traces_[c].get(), l1.get(), /*id_space=*/1 + c));
      l1s_.push_back(std::move(l1));
      l1_analyzers_.push_back(std::move(analyzer));
    }
  }

  [[nodiscard]] bool finished() const {
    for (const auto& core : cores_) {
      if (!core->finished()) return false;
    }
    for (const auto& l2p : private_l2s_) {
      if (l2p->busy()) return false;
    }
    return !dram_->busy() && !l2_->busy();
  }

  /// sim::System::run's loop, with the component split timed on sampled
  /// cycles.
  sim::SystemResult run(Meter& m) {
    while (now_ < cfg_.max_cycles) {
      if (now_ % kSampleEvery != 0) {
        if (finished()) break;
        tick_all();
        ++now_;
        continue;
      }
      m.sampling = true;
      const std::int64_t t0 = now_ns();
      if (finished()) {
        m.sampling = false;
        break;
      }
      const std::int64_t t1 = now_ns();
      m.current = kDram;
      dram_->tick(now_);
      const std::int64_t t2 = now_ns();
      m.current = kL2;
      l2_->tick(now_);
      for (auto& l2p : private_l2s_) l2p->tick(now_);
      const std::int64_t t3 = now_ns();
      m.current = kL1;
      for (auto& l1 : l1s_) l1->tick(now_);
      const std::int64_t t4 = now_ns();
      m.current = kCore;
      for (auto& core : cores_) core->tick(now_);
      const std::int64_t t5 = now_ns();
      m.current = kLoop;
      ++now_;
      const std::int64_t t6 = now_ns();
      m.sampling = false;
      m.tick_ns[kDram] += t2 - t1;
      m.tick_ns[kL2] += t3 - t2;
      m.tick_ns[kL1] += t4 - t3;
      m.tick_ns[kCore] += t5 - t4;
      m.tick_ns[kLoop] += (t1 - t0) + (t6 - t5);
      m.sampled_ns += t6 - t0;
      ++m.sampled_cycles;
    }
    if (now_ > 0) {
      const Cycle last = now_ - 1;
      dram_->finalize(last);
      l2_->finalize(last);
      for (auto& l2p : private_l2s_) l2p->finalize(last);
      for (auto& l1 : l1s_) l1->finalize(last);
    }
    sim::SystemResult r = collect();
    r.completed = finished();
    return r;
  }

  [[nodiscard]] Cycle now() const { return now_; }

 private:
  void tick_all() {
    dram_->tick(now_);
    l2_->tick(now_);
    for (auto& l2p : private_l2s_) l2p->tick(now_);
    for (auto& l1 : l1s_) l1->tick(now_);
    for (auto& core : cores_) core->tick(now_);
  }

  [[nodiscard]] sim::SystemResult collect() const {
    sim::SystemResult r;
    r.completed = finished();
    r.cycles = now_;
    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
      r.cores.push_back(cores_[c]->stats());
      r.l1.push_back(l1_analyzers_[c]->analyzer.metrics());
      r.l1_cache.push_back(l1s_[c]->stats());
      if (cfg_.use_private_l2) {
        r.l2_private.push_back(private_l2_analyzers_[c]->analyzer.metrics());
        r.l2_private_cache.push_back(private_l2s_[c]->stats());
      }
    }
    r.l2 = l2_analyzer_->analyzer.metrics();
    r.dram = dram_analyzer_->analyzer.metrics();
    r.l2_cache = l2_->stats();
    r.dram_stats = dram_->stats();
    return r;
  }

  sim::MachineConfig cfg_;
  std::vector<std::unique_ptr<TimedTrace>> traces_;
  std::unique_ptr<mem::Dram> dram_;
  std::unique_ptr<ProbedAnalyzer> dram_analyzer_;
  std::unique_ptr<mem::Cache> l2_;
  std::unique_ptr<ProbedAnalyzer> l2_analyzer_;
  std::vector<std::unique_ptr<mem::Cache>> private_l2s_;
  std::vector<std::unique_ptr<ProbedAnalyzer>> private_l2_analyzers_;
  std::vector<std::unique_ptr<mem::Cache>> l1s_;
  std::vector<std::unique_ptr<ProbedAnalyzer>> l1_analyzers_;
  std::vector<std::unique_ptr<cpu::OooCore>> cores_;
  Cycle now_ = 0;
};

}  // namespace

sim::SystemResult replay(const exp::SimJob& job, LayerTimes& times) {
  Meter m;
  Composition comp(job.machine, job.workloads, m);
  const std::int64_t t0 = now_ns();
  sim::SystemResult r = comp.run(m);
  const std::int64_t loop_ns = now_ns() - t0;

  // Every timed interval holds about one clock read's cost c, and each
  // nested timed call adds two reads to the interval around it. Take those
  // out, then scale the sampled split to the whole loop.
  const double c = clock_cost_ns();
  double probe_ns = 0.0;
  double nested = 0.0;
  for (std::size_t k = 0; k < kComponents; ++k) {
    probe_ns += static_cast<double>(m.probe_ns[k]) - c * static_cast<double>(m.probe_calls[k]);
    nested += static_cast<double>(m.probe_calls[k] + m.fill_calls[k]);
  }
  const auto sampled_cycles = static_cast<double>(m.sampled_cycles);
  const double sampled_true =
      static_cast<double>(m.sampled_ns) - c * (6.0 * sampled_cycles + 2.0 * nested);
  const double fills_sampled = static_cast<double>(m.fill_calls[kCore]);
  const double loop_true =
      static_cast<double>(loop_ns) -
      c * (7.0 * sampled_cycles + 2.0 * nested +
           2.0 * (static_cast<double>(m.fills) - fills_sampled));
  const double scale = sampled_true > 0.0 ? 1e-9 * loop_true / sampled_true : 0.0;
  const auto self = [&](Component k) {
    const double intervals = k == kLoop ? 2.0 : 1.0;
    const auto calls = static_cast<double>(m.probe_calls[k] + m.fill_calls[k]);
    return scale * (static_cast<double>(m.tick_ns[k] - m.probe_ns[k] - m.fill_ns[k]) -
                    c * (intervals + calls));
  };

  times.runs += 1;
  times.cycles += comp.now();
  for (const auto& core : r.cores) {
    times.instructions += core.instructions;
    times.data_stall_cycles += core.data_stall_cycles;
    times.l1_rejections += core.l1_rejections;
  }
  for (const auto& l1 : r.l1_cache) {
    times.l1_accesses += l1.accesses;
    times.l1_misses += l1.misses;
    times.l1_mshr_full_waits += l1.mshr_full_waits;
  }
  times.l2_accesses += r.l2_cache.accesses;
  times.l2_misses += r.l2_cache.misses;
  times.dram_reads += r.dram_stats.reads;
  times.dram_row_conflicts += r.dram_stats.row_conflicts;
  times.loop_s += 1e-9 * loop_true;
  times.fill_s += 1e-9 * (static_cast<double>(m.fill_total_ns) -
                          c * static_cast<double>(m.fills));
  times.trace_ops += m.ops;
  times.camat_events += m.probe_events;
  times.cpu_s += self(kCore);
  times.l1_s += self(kL1);
  times.l2_s += self(kL2);
  times.dram_s += self(kDram);
  times.sim_loop_s += self(kLoop);
  times.camat_s += scale * probe_ns;
  return r;
}

}  // namespace lpmbench
