#include "check/fuzz.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "core/lpm_algorithm.hpp"
#include "model/analytic.hpp"
#include "trace/lpm2.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lpm::check {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  util::require(end != raw && *end == '\0',
                std::string(name) + ": expected an unsigned integer, got \"" +
                    raw + "\"");
  return v;
}

// --- random machine synthesis ----------------------------------------------

mem::CacheConfig random_l1(util::Rng& rng, std::uint32_t block) {
  mem::CacheConfig c;
  c.name = "L1";
  c.block_bytes = block;
  c.interleave_bytes = block;
  c.associativity = static_cast<std::uint32_t>(1u << rng.next_below(3));  // 1/2/4
  const std::uint64_t sets = 1ull << rng.next_in(2, 5);                   // 4..32
  c.size_bytes = sets * c.associativity * block;
  c.hit_latency = static_cast<std::uint32_t>(rng.next_in(1, 3));
  c.ports = static_cast<std::uint32_t>(rng.next_in(1, 2));
  c.banks = static_cast<std::uint32_t>(1u << rng.next_below(2));  // 1/2
  c.mshr_entries = static_cast<std::uint32_t>(rng.next_in(2, 8));
  c.mshr_targets = static_cast<std::uint32_t>(rng.next_in(2, 8));
  c.writeback_capacity = static_cast<std::uint32_t>(rng.next_in(1, 8));
  c.prefetch_degree =
      rng.next_bool(0.6) ? 0 : static_cast<std::uint32_t>(rng.next_in(1, 2));
  c.prefetch_accuracy_window = static_cast<std::uint32_t>(rng.next_in(16, 64));
  c.mshr_quota_per_core =
      rng.next_bool(0.8) ? 0 : static_cast<std::uint32_t>(rng.next_in(1, 2));
  c.replacement = static_cast<mem::ReplacementPolicy>(rng.next_below(5));
  c.seed = rng.next_below(1ull << 30);
  return c;
}

mem::CacheConfig random_l2(util::Rng& rng, std::uint32_t block,
                           const char* name) {
  mem::CacheConfig c = random_l1(rng, block);
  c.name = name;
  const std::uint64_t sets = 1ull << rng.next_in(4, 7);  // 16..128
  c.size_bytes = sets * c.associativity * block;
  c.hit_latency = static_cast<std::uint32_t>(rng.next_in(4, 10));
  c.mshr_entries = static_cast<std::uint32_t>(rng.next_in(4, 16));
  return c;
}

mem::DramConfig random_dram(util::Rng& rng) {
  mem::DramConfig d;
  d.banks = static_cast<std::uint32_t>(1u << rng.next_in(1, 3));  // 2/4/8
  d.row_bytes = 1ull << rng.next_in(9, 11);                       // 512..2048
  d.interleave_bytes = 64;
  d.t_rcd = static_cast<std::uint32_t>(rng.next_in(4, 15));
  d.t_cl = static_cast<std::uint32_t>(rng.next_in(4, 15));
  d.t_rp = static_cast<std::uint32_t>(rng.next_in(4, 15));
  d.t_burst = static_cast<std::uint32_t>(rng.next_in(2, 6));
  d.frontend_latency = static_cast<std::uint32_t>(rng.next_in(5, 20));
  d.queue_capacity = static_cast<std::uint32_t>(rng.next_in(8, 32));
  d.max_issue_per_cycle = static_cast<std::uint32_t>(rng.next_in(1, 2));
  d.starvation_threshold = static_cast<std::uint32_t>(rng.next_in(50, 200));
  return d;
}

cpu::CoreConfig random_core(util::Rng& rng) {
  cpu::CoreConfig c;
  c.issue_width = static_cast<std::uint32_t>(rng.next_in(1, 4));
  c.dispatch_width = static_cast<std::uint32_t>(rng.next_in(1, 4));
  c.commit_width = static_cast<std::uint32_t>(rng.next_in(1, 4));
  c.iw_size = static_cast<std::uint32_t>(rng.next_in(8, 32));
  c.rob_size = std::max(c.iw_size, static_cast<std::uint32_t>(rng.next_in(16, 64)));
  c.lsq_size = static_cast<std::uint32_t>(rng.next_in(4, 16));
  return c;
}

/// A random parametric workload for the analytic-backend property checks
/// (the ops-vector cases above bypass the profile-based analytic path).
trace::WorkloadProfile random_workload(std::uint64_t seed, std::uint64_t len) {
  util::Rng rng(seed * 0xc2b2ae3d27d4eb4fULL + 17);
  trace::WorkloadProfile wl;
  wl.name = "analytic-fuzz-" + std::to_string(seed);
  wl.length = len;
  wl.seed = rng.next_below(1u << 30);
  wl.fmem = 0.2 + 0.5 * rng.next_double();
  wl.store_fraction = 0.1 + 0.3 * rng.next_double();
  wl.working_set_bytes = 1ull << rng.next_in(12, 20);
  wl.zipf_skew = rng.next_double();
  wl.seq_fraction = rng.next_double() * 0.9;
  wl.num_streams = static_cast<std::uint32_t>(rng.next_in(1, 8));
  wl.stride_bytes = 1ull << rng.next_in(2, 6);
  wl.pointer_chase_fraction =
      rng.next_bool(0.5) ? 0.0 : 0.3 * rng.next_double();
  wl.alu_dep_fraction = rng.next_double();
  wl.validate();
  return wl;
}

std::vector<trace::MicroOp> random_ops(util::Rng& rng, std::uint64_t len,
                                       std::uint32_t block) {
  // Working set small enough (relative to the tiny fuzzed caches) that hits,
  // misses, coalescing and evictions all occur; a sequential-run component
  // gives the next-line prefetcher something to latch onto.
  const std::uint64_t ws_blocks = 1ull << rng.next_in(3, 10);  // 8..1024
  const double fmem = 0.2 + 0.5 * rng.next_double();
  const double seq = rng.next_double() * 0.8;
  const double store_frac = 0.1 + 0.3 * rng.next_double();

  std::vector<trace::MicroOp> ops;
  ops.reserve(len);
  Addr prev_block = 0;
  for (std::uint64_t i = 0; i < len; ++i) {
    trace::MicroOp op;
    if (rng.next_bool(fmem)) {
      op.type = rng.next_bool(store_frac) ? trace::OpType::kStore
                                          : trace::OpType::kLoad;
      const Addr blk = rng.next_bool(seq) ? prev_block + 1
                                          : rng.next_below(ws_blocks);
      prev_block = blk;
      op.addr = blk * block + rng.next_below(block);
    } else {
      op.type = trace::OpType::kAlu;
      op.exec_latency = static_cast<std::uint8_t>(rng.next_in(1, 4));
    }
    if (rng.next_bool(0.3)) {
      op.dep_dist = static_cast<std::uint32_t>(rng.next_in(1, 8));
    }
    if (rng.next_bool(0.1)) {
      op.dep_dist2 = static_cast<std::uint32_t>(rng.next_in(1, 8));
    }
    ops.push_back(op);
  }
  return ops;
}

/// Records each core's ops to a temp LPM2 file and replays them through
/// the file reader. Returns the first mismatch / typed error as a message,
/// empty when every core round-trips bit-identically.
std::string check_trace_roundtrip_case(const ReplayCase& c,
                                       std::uint64_t case_seed) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      ("lpm-fuzz-roundtrip-" + std::to_string(::getpid()) + "-" +
       std::to_string(case_seed) + ".lpm2");
  std::string verdict;
  for (std::size_t core = 0; core < c.ops.size() && verdict.empty(); ++core) {
    const std::string where = "core " + std::to_string(core) + ": ";
    try {
      trace::VectorTrace source("roundtrip", c.ops[core]);
      const std::uint64_t recorded =
          trace::record_trace_v2(source, path.string());
      trace::Lpm2Trace replay(path.string(), "roundtrip");
      if (replay.info().checksum != recorded) {
        verdict = where + "header checksum differs from the recorded stream";
        break;
      }
      const std::vector<trace::MicroOp> ops =
          trace::materialize(replay, c.ops[core].size() + 1);
      if (ops != c.ops[core]) {
        verdict = where + "replayed stream differs from the recorded ops (" +
                  std::to_string(ops.size()) + " vs " +
                  std::to_string(c.ops[core].size()) + ")";
      }
    } catch (const util::LpmError& e) {
      verdict = where + e.what();
    }
  }
  std::error_code ec;
  fs::remove(path, ec);
  return verdict;
}

// --- property helpers -------------------------------------------------------

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

std::string fail(const std::string& what, double lhs, double rhs) {
  std::ostringstream out;
  out << what << " (lhs=" << lhs << " rhs=" << rhs << ")";
  return out.str();
}

/// Eq. 3 + Eq. 2 + the counter partitions on one layer's metrics.
std::string check_layer(const std::string& layer,
                        const camat::CamatMetrics& m, bool completed) {
  // Accesses are counted at acceptance, hits/misses when the lookup
  // resolves: the partition is an inequality while lookups are in flight
  // and only closes to equality on a drained (completed) run.
  if (completed ? (m.hits + m.misses != m.accesses)
                : (m.hits + m.misses > m.accesses)) {
    return layer + ": hits + misses != accesses";
  }
  if (m.active_cycles != m.hit_cycles + m.pure_miss_cycles) {
    return layer + ": active_cycles != hit_cycles + pure_miss_cycles";
  }
  if (m.pure_misses > m.misses) return layer + ": pure_misses > misses";
  if (m.pure_miss_cycles > m.miss_cycles) {
    return layer + ": pure_miss_cycles > miss_cycles";
  }
  if (completed && m.hit_access_cycles != m.hit_phase_access_cycles) {
    // Both count access x hit-phase-cycle pairs, one summed per cycle and
    // one per access; they only disagree while lookups are still in flight.
    return layer + ": hit_access_cycles != hit_phase_access_cycles";
  }
  if (m.accesses > 0 && m.active_cycles > 0) {
    const double prod = m.camat() * m.apc();
    if (!near(prod, 1.0, 1e-12)) {
      return fail(layer + ": Eq.3 violated, camat * apc != 1", prod, 1.0);
    }
    if (completed && !near(m.camat_eq2(), m.camat(), 1e-9 * m.camat())) {
      return fail(layer + ": Eq.2 decomposition != measured C-AMAT",
                  m.camat_eq2(), m.camat());
    }
  }
  return {};
}

std::string check_cache_stats(const std::string& layer,
                              const mem::CacheStats& s, bool completed) {
  if (completed ? (s.hits + s.misses != s.accesses)
                : (s.hits + s.misses > s.accesses)) {
    return layer + ": cache hits + misses != accesses";
  }
  std::uint64_t core_acc = 0;
  std::uint64_t core_miss = 0;
  for (const auto v : s.core_accesses) core_acc += v;
  for (const auto v : s.core_misses) core_miss += v;
  if (core_acc != s.accesses) {
    return layer + ": per-core accesses don't sum to total";
  }
  if (completed ? (core_miss != s.misses) : (core_miss > s.misses)) {
    return layer + ": per-core misses don't sum to total";
  }
  return {};
}

}  // namespace

FuzzConfig FuzzConfig::from_env() {
  FuzzConfig cfg;
  cfg.seed = env_u64("LPM_CHECK_SEED", cfg.seed);
  cfg.cases = env_u64("LPM_CHECK_CASES", cfg.cases);
  cfg.check_trace_roundtrip =
      env_u64("LPM_CHECK_ROUNDTRIP", cfg.check_trace_roundtrip ? 1 : 0) != 0;
  if (const char* dir = std::getenv("LPM_CHECK_ARTIFACTS");
      dir != nullptr && *dir != '\0') {
    cfg.artifact_dir = dir;
  }
  return cfg;
}

std::string check_metric_identities(const sim::SystemResult& r) {
  for (std::size_t i = 0; i < r.l1.size(); ++i) {
    const std::string layer = "l1[" + std::to_string(i) + "]";
    if (auto v = check_layer(layer, r.l1[i], r.completed); !v.empty()) return v;
    if (auto v = check_cache_stats(layer, r.l1_cache[i], r.completed); !v.empty()) return v;
  }
  for (std::size_t i = 0; i < r.l2_private.size(); ++i) {
    const std::string layer = "l2_private[" + std::to_string(i) + "]";
    if (auto v = check_layer(layer, r.l2_private[i], r.completed); !v.empty()) {
      return v;
    }
    if (auto v = check_cache_stats(layer, r.l2_private_cache[i], r.completed); !v.empty()) {
      return v;
    }
  }
  if (auto v = check_layer("l2", r.l2, r.completed); !v.empty()) return v;
  if (auto v = check_cache_stats("l2", r.l2_cache, r.completed); !v.empty()) return v;
  if (auto v = check_layer("dram", r.dram, r.completed); !v.empty()) return v;
  return {};
}

std::string check_model_properties(const core::AppMeasurement& m) {
  if (m.instructions == 0 || m.l1.accesses == 0) return {};

  // Eq. 12 is Eq. 7 rewritten through LPMR1: algebraically identical.
  const double e7 = core::stall_eq7(m);
  const double e12 = core::stall_eq12(m);
  if (!near(e12, e7, 1e-9 + 1e-9 * e7)) {
    return fail("Eq.12 != Eq.7", e12, e7);
  }

  // Eq. 7 vs the core's measured stall. Looser than the curated-workload
  // invariants test (0.2%): fuzzed machines include single-entry LSQs and
  // saturated write buffers, where store retirement decouples the core's
  // mem-active window from the L1's active window by a few cycles.
  const double measured = m.measured_stall_per_instr;
  const double tol =
      1e-6 + 0.05 * measured + 16.0 / static_cast<double>(m.instructions);
  if (!near(e7, measured, tol)) {
    return fail("Eq.7 disagrees with measured stall/instr", e7, measured);
  }

  // Eqs. 13 and 4 carry genuine model error (the recursion assumes L2
  // residency equals L1 outstanding time). On the curated workloads the
  // tests hold them to 35%; fuzzed machines are adversarial (single-entry
  // write buffers, 4-set caches at 90% miss rate), so here they get an
  // order-of-magnitude sanity band — enough to catch a broken eta or LPMR2,
  // not an accuracy claim.
  if (m.l1.pure_misses > 0 && m.l1_misses_total >= 50) {
    const double e13 = core::stall_eq13(m);
    if (e13 < 0.0 || (e7 > 1e-9 && (e13 < e7 / 8.0 || e13 > e7 * 8.0))) {
      return fail("Eq.13 outside sanity band of Eq.7", e13, e7);
    }
    // Eq. 4: C-AMAT1 from the L2's per-miss C-AMAT.
    const double rhs = camat::camat_recursion_eq4(
        m.l1.H(), m.l1.CH(), m.l1.pMR(), m.l1.eta1(), m.camat2_per_miss());
    const double lhs = m.l1.camat();
    if (rhs <= 0.0 || rhs < lhs / 8.0 || rhs > lhs * 8.0) {
      return fail("Eq.4 recursion outside sanity band", rhs, lhs);
    }
  }

  // Eq. 14: T1 = (delta/100)/(1-overlap) is linear in delta.
  if (m.overlap_ratio < 1.0) {
    const double t1_fine = core::threshold_t1(core::kFineGrainedDelta,
                                              m.overlap_ratio);
    const double t1_coarse = core::threshold_t1(core::kCoarseGrainedDelta,
                                                m.overlap_ratio);
    if (!near(t1_coarse, 10.0 * t1_fine, 1e-12 * t1_coarse)) {
      return fail("Eq.14 T1 not linear in delta", t1_coarse, 10.0 * t1_fine);
    }

    // Eq. 15: a larger stall budget never tightens the L2 threshold.
    const double t2_fine = core::threshold_t2(core::kFineGrainedDelta, m);
    const double t2_coarse = core::threshold_t2(core::kCoarseGrainedDelta, m);
    if (std::isfinite(t2_fine) && std::isfinite(t2_coarse) &&
        t2_coarse < t2_fine - 1e-9 * std::fabs(t2_fine)) {
      return fail("Eq.15 T2 decreased with delta", t2_coarse, t2_fine);
    }

    // Fig. 3 granularity stability: a machine the fine-grained (1%) walk
    // does not send to Optimize is never sent to Optimize by the coarse
    // (10%) walk, and a run meeting the 1% stall target meets the 10% one.
    const auto lpmr = core::compute_lpmrs(m);
    auto observe = [&](double delta) {
      core::LpmObservation obs;
      obs.lpmr = lpmr;
      obs.t1 = core::threshold_t1(delta, m.overlap_ratio);
      obs.t2 = core::threshold_t2(delta, m);
      obs.stall_per_instr = measured;
      obs.cpi_exe = m.cpi_exe;
      obs.overlap_ratio = m.overlap_ratio;
      return obs;
    };
    auto is_optimize = [](core::LpmAction a) {
      return a == core::LpmAction::kOptimizeBoth ||
             a == core::LpmAction::kOptimizeL1;
    };
    const core::LpmAlgorithm fine(
        core::LpmAlgorithmConfig{.delta_percent = core::kFineGrainedDelta});
    const core::LpmAlgorithm coarse(
        core::LpmAlgorithmConfig{.delta_percent = core::kCoarseGrainedDelta});
    const auto fine_action = fine.classify(observe(core::kFineGrainedDelta));
    const auto coarse_action =
        coarse.classify(observe(core::kCoarseGrainedDelta));
    if (!is_optimize(fine_action) && is_optimize(coarse_action)) {
      return "Fig.3 case selection unstable under granularity: fine=" +
             std::string(core::to_string(fine_action)) +
             " coarse=" + std::string(core::to_string(coarse_action));
    }
  }
  if (core::meets_stall_target(m, core::kFineGrainedDelta) &&
      !core::meets_stall_target(m, core::kCoarseGrainedDelta)) {
    return "stall target met at 1% but not at 10%";
  }
  return {};
}

std::string check_analytic_properties(const sim::MachineConfig& machine,
                                      const trace::WorkloadProfile& wl) {
  // SimJob::solo runs one core; drop any multicore per-core L1 partition
  // the fuzzed machine may carry so the solo machine still validates.
  sim::MachineConfig solo_machine = machine;
  solo_machine.l1_size_per_core.clear();
  // (a) The synthesized counter blocks must satisfy the same Eq. 2/3
  // identities the cycle simulator's counters do — by construction.
  for (const char* backend : {model::kRdhBackend, model::kFaBackend}) {
    exp::SimJob job =
        exp::SimJob::solo(solo_machine, wl, /*calibrate=*/false,
                          std::string("analytic-fuzz-") + backend);
    job.backend = backend;
    const exp::SimJobResult res = model::evaluate_analytic(job);
    if (std::string v = check_metric_identities(res.run); !v.empty()) {
      return std::string(backend) + ": " + v;
    }
  }

  // (b) Monotone miss curves: under LRU stack semantics, growing the cache
  // never adds misses — for the demand count and the downstream fills, in
  // both closed forms, at a fixed coalescing window and no prefetching.
  const auto profile = model::ProfileCache::global().reuse(wl);
  constexpr double kWindow = 16.0;
  const double eps = 1e-9 * static_cast<double>(profile->mem_ops) + 1e-9;
  model::MissEstimate prev_fa{1e300, 1e300};
  model::MissEstimate prev_rdh{1e300, 1e300};
  for (std::uint64_t blocks = 16; blocks <= (1ull << 14); blocks *= 2) {
    const model::MissEstimate fa =
        model::fa_misses(*profile, blocks, 0.0, kWindow);
    const model::MissEstimate rdh =
        model::rdh_misses(*profile, blocks / 8, 8, 0.0, kWindow);
    if (fa.fills > fa.demand + eps) {
      return fail("fa fills exceed demand misses", fa.fills, fa.demand);
    }
    if (rdh.fills > rdh.demand + eps) {
      return fail("rdh fills exceed demand misses", rdh.fills, rdh.demand);
    }
    if (fa.demand > prev_fa.demand + eps || fa.fills > prev_fa.fills + eps) {
      return fail("fa misses increased with capacity " +
                      std::to_string(blocks) + " blocks",
                  fa.demand, prev_fa.demand);
    }
    if (rdh.demand > prev_rdh.demand + eps ||
        rdh.fills > prev_rdh.fills + eps) {
      return fail("rdh misses increased with capacity " +
                      std::to_string(blocks) + " blocks",
                  rdh.demand, prev_rdh.demand);
    }
    prev_fa = fa;
    prev_rdh = rdh;
  }
  return {};
}

ReplayCase Fuzzer::generate(std::uint64_t case_seed) const {
  util::Rng rng(case_seed * 0x9e3779b97f4a7c15ULL + 1);

  // One block size for the whole hierarchy: fill replies travel upward as
  // the *lower* level's block-aligned address, so mixed block sizes would
  // break MSHR matching by design, not by bug.
  const std::uint32_t block = rng.next_bool(0.5) ? 32 : 64;

  sim::MachineConfig m;
  m.num_cores = rng.next_bool(0.55) ? 1
                : rng.next_bool(0.8) ? 2
                                     : 3;
  m.core = random_core(rng);
  m.l1 = random_l1(rng, block);
  m.l2 = random_l2(rng, block, "L2");
  m.dram = random_dram(rng);
  if (rng.next_bool(0.25)) {
    m.use_private_l2 = true;
    m.private_l2 = random_l2(rng, block, "L2p");
  }
  if (m.num_cores > 1 && rng.next_bool(0.15)) {
    for (std::uint32_t c = 0; c < m.num_cores; ++c) {
      const std::uint64_t sets = 1ull << rng.next_in(2, 5);
      m.l1_size_per_core.push_back(sets * m.l1.associativity * block);
    }
  }
  m.max_cycles = 4'000'000;
  m.validate();

  ReplayCase c;
  c.machine = std::move(m);
  for (std::uint32_t core = 0; core < c.machine.num_cores; ++core) {
    c.ops.push_back(random_ops(rng, cfg_.trace_len, block));
  }
  return c;
}

ReplayCase Fuzzer::generate_memory_contention(std::uint64_t case_seed) const {
  util::Rng rng(case_seed * 0xd6e8feb86659fd93ULL + 7);
  const std::uint32_t block = rng.next_bool(0.5) ? 32 : 64;
  const auto pow2_in = [&rng](std::uint64_t lo_log2, std::uint64_t hi_log2) {
    return 1ull << rng.next_in(lo_log2, hi_log2);
  };
  // Interleave units above the block size, with enough banks that the
  // shift-based bank index spans several address bits.
  const auto widen = [&](mem::CacheConfig& c) {
    c.interleave_bytes = block * pow2_in(1, 4);
    c.banks = static_cast<std::uint32_t>(pow2_in(0, 3));
    c.ports = static_cast<std::uint32_t>(rng.next_in(1, 4));
  };

  sim::MachineConfig m;
  m.num_cores = static_cast<std::uint32_t>(rng.next_in(1, 4));
  m.core = random_core(rng);
  m.l1 = random_l1(rng, block);
  widen(m.l1);
  m.l1.mshr_entries = static_cast<std::uint32_t>(rng.next_in(1, 64));
  m.l1.prefetch_degree = static_cast<std::uint32_t>(rng.next_in(0, 8));
  m.l2 = random_l2(rng, block, "L2");
  widen(m.l2);
  m.l2.mshr_entries = static_cast<std::uint32_t>(rng.next_in(4, 64));
  if (rng.next_bool(0.25)) {
    m.use_private_l2 = true;
    m.private_l2 = random_l2(rng, block, "L2p");
    widen(m.private_l2);
  }

  mem::DramConfig& d = m.dram;
  d = random_dram(rng);
  d.banks = static_cast<std::uint32_t>(pow2_in(1, 6));  // 2..64
  d.row_bytes = pow2_in(9, 12);                       // 512..4096
  const std::uint64_t row_log2 =
      static_cast<std::uint64_t>(std::countr_zero(d.row_bytes));
  d.interleave_bytes = pow2_in(6, row_log2);  // 64 B .. one row
  d.queue_capacity = static_cast<std::uint32_t>(rng.next_in(4, 256));
  d.max_issue_per_cycle = static_cast<std::uint32_t>(rng.next_in(1, 8));
  d.starvation_threshold = static_cast<std::uint32_t>(rng.next_in(8, 200));
  m.max_cycles = 4'000'000;
  m.validate();

  // Memory-heavy ops over a working set of up to 16K blocks, so misses
  // overflow the (at most 128-set) L2 and queue up at the DRAM banks.
  ReplayCase c;
  c.machine = std::move(m);
  for (std::uint32_t core = 0; core < c.machine.num_cores; ++core) {
    const std::uint64_t ws_blocks = pow2_in(8, 14);
    const double seq = rng.next_double() * 0.8;
    std::vector<trace::MicroOp> ops = random_ops(rng, cfg_.trace_len, block);
    Addr prev_block = 0;
    for (trace::MicroOp& op : ops) {
      if (op.type == trace::OpType::kAlu && rng.next_bool(0.5)) {
        op.type = trace::OpType::kLoad;
      }
      if (op.type == trace::OpType::kAlu) continue;
      const Addr blk =
          rng.next_bool(seq) ? prev_block + 1 : rng.next_below(ws_blocks);
      prev_block = blk;
      op.addr = blk * block + rng.next_below(block);
    }
    c.ops.push_back(std::move(ops));
  }
  return c;
}

ReplayCase Fuzzer::generate_uneven_finish(std::uint64_t case_seed) const {
  util::Rng rng(case_seed * 0xa0761d6478bd642fULL + 11);
  const std::uint32_t block = rng.next_bool(0.5) ? 32 : 64;

  sim::MachineConfig m;
  m.num_cores = static_cast<std::uint32_t>(rng.next_in(2, 4));
  m.core = random_core(rng);
  m.l1 = random_l1(rng, block);
  m.l2 = random_l2(rng, block, "L2");
  m.dram = random_dram(rng);
  if (rng.next_bool(0.5)) {
    m.use_private_l2 = true;
    m.private_l2 = random_l2(rng, block, "L2p");
  }
  const bool dirty = rng.next_bool(0.5);
  if (dirty) {
    // Every short-core store miss evicts a dirty line into a small buffer
    // that a congested one-port L2 drains slowly.
    m.l1.associativity = 1;
    m.l1.size_bytes = 4ull * block;
    m.l1.writeback_capacity = static_cast<std::uint32_t>(rng.next_in(1, 4));
    m.l2.ports = 1;
    m.l2.banks = 1;
  }
  m.max_cycles = 4'000'000;
  m.validate();

  std::vector<bool> is_short(m.num_cores, false);
  const std::uint64_t shorts =
      std::min<std::uint64_t>(rng.next_in(1, 3), m.num_cores - 1);
  for (std::uint64_t k = 0; k < shorts;) {
    const std::uint64_t c = rng.next_below(m.num_cores);
    if (!is_short[c]) {
      is_short[c] = true;
      ++k;
    }
  }

  ReplayCase c;
  c.machine = std::move(m);
  for (std::uint32_t core = 0; core < c.machine.num_cores; ++core) {
    const std::uint64_t len =
        is_short[core]
            ? std::max<std::uint64_t>(1, cfg_.trace_len * rng.next_in(1, 5) / 100)
            : cfg_.trace_len;
    std::vector<trace::MicroOp> ops = random_ops(rng, len, block);
    if (dirty && is_short[core]) {
      for (trace::MicroOp& op : ops) {
        if (rng.next_bool(0.7)) {
          op.type = trace::OpType::kStore;
          op.addr = rng.next_below(64) * block;
        }
      }
    }
    c.ops.push_back(std::move(ops));
  }
  return c;
}

ReplayCase Fuzzer::generate_replacement_policy(std::uint64_t case_seed) const {
  util::Rng rng(case_seed * 0xe7037ed1a0b428dbULL + 13);
  const std::uint32_t block = rng.next_bool(0.5) ? 32 : 64;
  // Combination k of the 5 policies x 5 associativities.
  const auto shape = [block](mem::CacheConfig& c, std::uint64_t k,
                             std::uint64_t sets) {
    c.replacement = static_cast<mem::ReplacementPolicy>(k % 5);
    c.associativity = 1u << (k / 5);
    c.size_bytes = sets * c.associativity * block;
  };

  sim::MachineConfig m;
  m.num_cores = static_cast<std::uint32_t>(rng.next_in(1, 4));
  m.core = random_core(rng);
  m.l1 = random_l1(rng, block);
  shape(m.l1, case_seed % 25, 1ull << rng.next_in(1, 3));  // 2..8 sets
  m.l2 = random_l2(rng, block, "L2");
  shape(m.l2, (7 * case_seed + 3) % 25, 1ull << rng.next_in(2, 4));  // 4..16
  m.dram = random_dram(rng);
  if (rng.next_bool(0.25)) {
    m.use_private_l2 = true;
    m.private_l2 = random_l2(rng, block, "L2p");
    shape(m.private_l2, rng.next_below(25), 1ull << rng.next_in(2, 4));
  }
  m.max_cycles = 4'000'000;
  m.validate();

  // A hot set about half the L2's lines, re-referenced among one-shot
  // blocks from a working set 2-8x the L2.
  const std::uint64_t l2_lines = m.l2.size_bytes / block;
  const std::uint64_t hot = std::max<std::uint64_t>(1, l2_lines / 2);
  ReplayCase c;
  c.machine = std::move(m);
  for (std::uint32_t core = 0; core < c.machine.num_cores; ++core) {
    const std::uint64_t ws = l2_lines << rng.next_in(1, 3);
    const double reuse = 0.3 + 0.5 * rng.next_double();
    std::vector<trace::MicroOp> ops = random_ops(rng, cfg_.trace_len, block);
    for (trace::MicroOp& op : ops) {
      if (op.type == trace::OpType::kAlu) continue;
      const Addr blk = rng.next_bool(reuse) ? rng.next_below(hot)
                                            : rng.next_below(ws);
      op.addr = blk * block + rng.next_below(block);
    }
    c.ops.push_back(std::move(ops));
  }
  return c;
}

FuzzSummary Fuzzer::run() {
  FuzzSummary summary;
  if (!cfg_.artifact_dir.empty()) {
    std::filesystem::create_directories(cfg_.artifact_dir);
  }
  for (std::uint64_t i = 0; i < cfg_.cases; ++i) {
    const std::uint64_t case_seed = cfg_.seed + i;
    const ReplayCase c = generate(case_seed);
    ++summary.cases_run;

    if (cfg_.check_trace_roundtrip) {
      if (std::string v = check_trace_roundtrip_case(c, case_seed); !v.empty()) {
        ++summary.roundtrip_failures;
        summary.failures.push_back(
            FuzzFailure{case_seed, "trace-roundtrip", std::move(v), ""});
        continue;  // the on-disk path is broken; sim results prove nothing
      }
    }

    const sim::SystemResult opt = run_optimized(c);
    const sim::SystemResult ref = run_reference(c);
    ++summary.simulator_pairs;
    if (const std::string d = describe_divergence(opt, ref); !d.empty()) {
      ++summary.divergences;
      FuzzFailure failure;
      failure.case_seed = case_seed;
      failure.kind = "divergence";
      failure.detail = d;
      if (cfg_.minimize) {
        DiffRunner minimizer(DiffOptions{{}, /*minimize=*/true});
        const DiffReport report = minimizer.run(c);
        summary.simulator_pairs += report.trials;
        if (!cfg_.artifact_dir.empty()) {
          failure.replay_path = cfg_.artifact_dir + "/lpm-repro-" +
                                std::to_string(case_seed) + ".json";
          save_replay(report.minimized, failure.replay_path);
        }
      } else if (!cfg_.artifact_dir.empty()) {
        failure.replay_path = cfg_.artifact_dir + "/lpm-repro-" +
                              std::to_string(case_seed) + ".json";
        save_replay(c, failure.replay_path);
      }
      summary.failures.push_back(std::move(failure));
      continue;  // a divergent case's metrics prove nothing further
    }

    if (!cfg_.check_properties) continue;
    std::string violation = check_metric_identities(opt);
    if (violation.empty() && opt.completed) {
      // Model properties need the perfect-cache calibration of each core.
      for (std::size_t core = 0; core < c.ops.size(); ++core) {
        trace::VectorTrace calib_trace("calib", c.ops[core]);
        const sim::CpiExeResult calib =
            sim::measure_cpi_exe(c.machine, calib_trace);
        const auto m = core::AppMeasurement::from_run(opt, calib, core);
        violation = check_model_properties(m);
        if (!violation.empty()) {
          violation = "core " + std::to_string(core) + ": " + violation;
          break;
        }
      }
    }
    if (violation.empty() && opt.completed) {
      // Analytic-backend properties on a deterministic workload pool:
      // cases share 8 workloads, so model::ProfileCache profiles each once
      // and serves the other cases, rather than replaying a fresh trace
      // per case.
      const trace::WorkloadProfile wl =
          random_workload(cfg_.seed + (i & 7), cfg_.trace_len);
      violation = check_analytic_properties(c.machine, wl);
    }
    if (!violation.empty()) {
      ++summary.property_failures;
      summary.failures.push_back(
          FuzzFailure{case_seed, "property", violation, ""});
    }
  }
  return summary;
}

}  // namespace lpm::check
