#include "check/ref_system.hpp"

#include <string>

#include "util/error.hpp"

namespace lpm::check {

RefSystem::RefSystem(sim::MachineConfig cfg,
                     std::vector<trace::TraceSourcePtr> traces)
    : cfg_(std::move(cfg)), traces_(std::move(traces)) {
  cfg_.validate();
  util::require(traces_.size() == cfg_.num_cores,
                "RefSystem: need exactly one trace per core");
  for (const auto& t : traces_) {
    util::require(t != nullptr, "RefSystem: null trace");
  }

  // Topology, id spaces and per-instance seeds must mirror sim::System
  // exactly: fill-request ids and random-replacement streams are part of
  // the observable behaviour being compared.
  dram_ = std::make_unique<RefDram>(cfg_.dram);
  dram_analyzer_ = std::make_unique<RefAnalyzer>("DRAM");
  dram_->set_probe(dram_analyzer_.get());

  mem::CacheConfig l2cfg = cfg_.l2;
  l2cfg.num_cores = cfg_.num_cores;
  l2_ = std::make_unique<RefCache>(l2cfg, dram_.get(), /*id_space=*/1000);
  l2_analyzer_ = std::make_unique<RefAnalyzer>("L2");
  l2_->set_probe(l2_analyzer_.get());

  for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
    mem::MemoryLevel* below_l1 = l2_.get();
    if (cfg_.use_private_l2) {
      mem::CacheConfig l2pcfg = cfg_.private_l2;
      l2pcfg.name = "L2p." + std::to_string(c);
      l2pcfg.num_cores = cfg_.num_cores;
      l2pcfg.seed = cfg_.private_l2.seed + 17 * c;
      auto l2p =
          std::make_unique<RefCache>(l2pcfg, l2_.get(), /*id_space=*/500 + c);
      auto l2p_analyzer = std::make_unique<RefAnalyzer>(l2pcfg.name);
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
    auto l1 = std::make_unique<RefCache>(l1cfg, below_l1, /*id_space=*/100 + c);
    auto analyzer = std::make_unique<RefAnalyzer>(l1cfg.name);
    l1->set_probe(analyzer.get());

    cpu::CoreConfig core_cfg = cfg_.core;
    core_cfg.id = c;
    core_cfg.name = "core" + std::to_string(c);
    auto core = std::make_unique<RefCore>(core_cfg, traces_[c].get(), l1.get(),
                                          /*id_space=*/1 + c);
    l1s_.push_back(std::move(l1));
    l1_analyzers_.push_back(std::move(analyzer));
    cores_.push_back(std::move(core));
  }
}

bool RefSystem::finished() const {
  for (const auto& core : cores_) {
    if (!core->finished()) return false;
  }
  for (const auto& l2p : private_l2s_) {
    if (l2p->busy()) return false;
  }
  return !dram_->busy() && !l2_->busy();
}

bool RefSystem::step() {
  if (finished()) return false;
  dram_->tick(now_);
  l2_->tick(now_);
  for (auto& l2p : private_l2s_) l2p->tick(now_);
  for (auto& l1 : l1s_) l1->tick(now_);
  for (auto& core : cores_) core->tick(now_);
  ++now_;
  return true;
}

sim::SystemResult RefSystem::run() {
  while (now_ < cfg_.max_cycles) {
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
  return collect();
}

sim::SystemResult RefSystem::collect() const {
  sim::SystemResult r;
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

}  // namespace lpm::check
