#include "sim/system.hpp"

#include "mem/perfect_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace lpm::sim {

System::System(MachineConfig cfg, std::vector<trace::TraceSourcePtr> traces)
    : cfg_(std::move(cfg)), traces_(std::move(traces)) {
  cfg_.validate();
  util::require(traces_.size() == cfg_.num_cores,
                "System: need exactly one trace per core");
  for (const auto& t : traces_) {
    util::require(t != nullptr, "System: null trace");
  }

  dram_ = std::make_unique<mem::Dram>(cfg_.dram);
  dram_analyzer_ = std::make_unique<camat::Analyzer>("DRAM");
  dram_->set_probe(dram_analyzer_.get());

  mem::CacheConfig l2cfg = cfg_.l2;
  l2cfg.num_cores = cfg_.num_cores;
  l2_ = std::make_unique<mem::Cache>(l2cfg, dram_.get(), /*id_space=*/1000);
  l2_analyzer_ = std::make_unique<camat::Analyzer>("L2");
  l2_->set_probe(l2_analyzer_.get());

  l1s_.reserve(cfg_.num_cores);
  l1_analyzers_.reserve(cfg_.num_cores);
  cores_.reserve(cfg_.num_cores);
  for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
    // Optional middle level: a private L2 between this core's L1 and the
    // shared cache (which then serves as the LLC).
    mem::MemoryLevel* below_l1 = l2_.get();
    if (cfg_.use_private_l2) {
      mem::CacheConfig l2pcfg = cfg_.private_l2;
      l2pcfg.name = "L2p." + std::to_string(c);
      l2pcfg.num_cores = cfg_.num_cores;
      l2pcfg.seed = cfg_.private_l2.seed + 17 * c;
      auto l2p =
          std::make_unique<mem::Cache>(l2pcfg, l2_.get(), /*id_space=*/500 + c);
      auto l2p_analyzer = std::make_unique<camat::Analyzer>(l2pcfg.name);
      l2p->set_probe(l2p_analyzer.get());
      below_l1 = l2p.get();
      private_l2s_.push_back(std::move(l2p));
      private_l2_analyzers_.push_back(std::move(l2p_analyzer));
    }

    mem::CacheConfig l1cfg = cfg_.l1;
    l1cfg.name = "L1." + std::to_string(c);
    if (!cfg_.l1_size_per_core.empty()) {
      l1cfg.size_bytes = cfg_.l1_size_per_core[c];
    }
    l1cfg.num_cores = cfg_.num_cores;
    l1cfg.seed = cfg_.l1.seed + c;
    auto l1 = std::make_unique<mem::Cache>(l1cfg, below_l1, /*id_space=*/100 + c);
    auto analyzer = std::make_unique<camat::Analyzer>(l1cfg.name);
    l1->set_probe(analyzer.get());

    cpu::CoreConfig core_cfg = cfg_.core;
    core_cfg.id = c;
    core_cfg.name = "core" + std::to_string(c);
    auto core = std::make_unique<cpu::OooCore>(core_cfg, traces_[c].get(),
                                               l1.get(), /*id_space=*/1 + c);
    l1s_.push_back(std::move(l1));
    l1_analyzers_.push_back(std::move(analyzer));
    cores_.push_back(std::move(core));
    live_.push_back(c);
  }
}

System::~System() = default;

camat::Analyzer& System::l1_analyzer(std::size_t core) {
  return *l1_analyzers_.at(core);
}

bool System::finished() const {
  for (const auto& core : cores_) {
    if (!core->finished()) return false;
  }
  return uncore_idle();
}

bool System::uncore_idle() const {
  for (const auto& l2p : private_l2s_) {
    if (l2p->busy()) return false;
  }
  return !dram_->busy() && !l2_->busy();
}

bool System::retire_finished_cores() {
  // A retired core's components never see traffic again: only the core
  // feeds its L1, only that L1 feeds its private L2, and a dormant cache has
  // no fill outstanding below. Removal keeps the survivors' tick order.
  bool all_finished = true;
  std::erase_if(live_, [&](std::uint32_t c) {
    if (!cores_[c]->finished()) {
      all_finished = false;
      return false;
    }
    return l1s_[c]->dormant() &&
           (private_l2s_.empty() || private_l2s_[c]->dormant());
  });
  return all_finished;
}

bool System::step() {
  if (retire_finished_cores() && uncore_idle()) return false;
  // Bottom-up ticking: responses flow upward within the same cycle, demand
  // requests flow downward and begin service the cycle they are accepted.
  dram_->tick(now_);
  l2_->tick(now_);
  if (!private_l2s_.empty()) {
    for (const std::uint32_t c : live_) private_l2s_[c]->tick(now_);
  }
  for (const std::uint32_t c : live_) l1s_[c]->tick(now_);
  for (const std::uint32_t c : live_) cores_[c]->tick(now_);
  ++now_;
  return true;
}

namespace {

/// Polls the guard every check_interval cycles; throws TimeoutError once a
/// watchdog has flagged the run as over budget.
void check_guard(const RunGuard* guard, Cycle now) {
  if (guard == nullptr) return;
  const Cycle interval = guard->check_interval == 0 ? 1 : guard->check_interval;
  if (now % interval == 0 && guard->cancel.load(std::memory_order_relaxed)) {
    throw util::TimeoutError("simulation cancelled by watchdog at cycle " +
                             std::to_string(now));
  }
}

}  // namespace

namespace {

/// Run-epilogue telemetry: bulk-adds one run's totals to the global
/// registry (per-level cache and C-AMAT counters plus run/cycle tallies).
/// One call per run — the simulation loop itself is never instrumented, so
/// telemetry costs nothing per cycle.
void publish_run(const SystemResult& r, Cycle cycles_simulated) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("sim.runs").inc();
  reg.counter("sim.cycles").add(cycles_simulated);
  std::uint64_t instructions = 0;
  for (const auto& core : r.cores) instructions += core.instructions;
  reg.counter("sim.instructions").add(instructions);

  // Level names are stable regardless of topology: "l2" is always the
  // shared cache (the LLC when private L2s exist — then "l2p" also
  // appears); "dram" is the memory layer.
  for (std::size_t c = 0; c < r.l1_cache.size(); ++c) {
    r.l1_cache[c].publish(reg, "l1");
    r.l1[c].publish(reg, "l1");
  }
  for (std::size_t c = 0; c < r.l2_private_cache.size(); ++c) {
    r.l2_private_cache[c].publish(reg, "l2p");
    r.l2_private[c].publish(reg, "l2p");
  }
  r.l2_cache.publish(reg, "l2");
  r.l2.publish(reg, "l2");
  r.dram.publish(reg, "dram");
}

}  // namespace

SystemResult System::run(const RunGuard* guard) {
  obs::ScopedSpan span(obs::TraceSession::global(), "sim.run", "sim");
  const Cycle start_cycle = now_;
  while (now_ < cfg_.max_cycles) {
    check_guard(guard, now_);
    if (!step()) break;
  }
  if (!finalized_ && now_ > 0) {
    const Cycle last = now_ - 1;
    dram_->finalize(last);
    l2_->finalize(last);
    for (auto& l2p : private_l2s_) l2p->finalize(last);
    for (auto& l1 : l1s_) l1->finalize(last);
    finalized_ = true;
  }
  SystemResult r = collect();
  r.completed = finished();
  span.arg("cores", static_cast<double>(cfg_.num_cores));
  span.arg("cycles", static_cast<double>(now_ - start_cycle));
  publish_run(r, now_ - start_cycle);
  return r;
}

SystemResult System::collect() const {
  SystemResult r;
  r.completed = finished();
  r.cycles = now_;
  for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
    r.cores.push_back(cores_[c]->stats());
    r.l1.push_back(l1_analyzers_[c]->metrics());
    r.l1_cache.push_back(l1s_[c]->stats());
    if (cfg_.use_private_l2) {
      r.l2_private.push_back(private_l2_analyzers_[c]->metrics());
      r.l2_private_cache.push_back(private_l2s_[c]->stats());
    }
  }
  r.l2 = l2_analyzer_->metrics();
  r.dram = dram_analyzer_->metrics();
  r.l2_cache = l2_->stats();
  r.dram_stats = dram_->stats();
  return r;
}

CpiExeResult measure_cpi_exe(const MachineConfig& cfg, trace::TraceSource& trace,
                             const RunGuard* guard) {
  trace.reset();
  // CPIexe is the processor's pure computation capability (Eq. 5): perfect
  // cache with unconstrained ports, so only issue width / window / ROB and
  // the program's dependences bind it. Memory-side limits (ports, MSHRs)
  // show up as data stall, not as CPIexe.
  mem::PerfectMemory perfect(cfg.l1.hit_latency, /*ports=*/0);
  cpu::CoreConfig core_cfg = cfg.core;
  core_cfg.id = 0;
  cpu::OooCore core(core_cfg, &trace, &perfect, /*id_space=*/1);

  Cycle now = 0;
  while (!core.finished() && now < cfg.max_cycles) {
    check_guard(guard, now);
    perfect.tick(now);
    core.tick(now);
    ++now;
  }
  util::require(core.finished(), "measure_cpi_exe: run did not complete");

  obs::MetricsRegistry::global().counter("sim.calibrations").inc();
  CpiExeResult out;
  out.instructions = core.stats().instructions;
  out.cycles = core.stats().cycles;
  out.cpi_exe = core.stats().cpi();
  out.fmem = core.stats().fmem();
  trace.reset();
  return out;
}

}  // namespace lpm::sim
