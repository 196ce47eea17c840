#include "check/replay.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"

namespace lpm::check {

namespace {

constexpr const char* kFormatTag = "lpm-replay-v1";

// 64-bit values that may exceed 2^53 travel as strings (FlatJson numbers
// are doubles).
void put_u64(util::JsonWriter& out, const std::string& key, std::uint64_t v) {
  out.str(key, std::to_string(v));
}

void put_cache(util::JsonWriter& out, const std::string& p,
               const mem::CacheConfig& c) {
  out.num_u64(p + ".size_bytes", c.size_bytes)
      .num_u64(p + ".block_bytes", c.block_bytes)
      .num_u64(p + ".associativity", c.associativity)
      .num_u64(p + ".hit_latency", c.hit_latency)
      .num_u64(p + ".ports", c.ports)
      .num_u64(p + ".banks", c.banks)
      .num_u64(p + ".interleave_bytes", c.interleave_bytes)
      .num_u64(p + ".mshr_entries", c.mshr_entries)
      .num_u64(p + ".mshr_targets", c.mshr_targets)
      .num_u64(p + ".writeback_capacity", c.writeback_capacity)
      .num_u64(p + ".prefetch_degree", c.prefetch_degree)
      .num_u64(p + ".prefetch_accuracy_window", c.prefetch_accuracy_window)
      .num_u64(p + ".mshr_quota_per_core", c.mshr_quota_per_core)
      .str(p + ".replacement", mem::to_string(c.replacement));
  put_u64(out, p + ".seed", c.seed);
}

std::uint64_t get_num(const util::FlatJson& j, const std::string& key) {
  const auto v = j.get_number(key);
  util::require(v.has_value(), "replay: missing number key " + key);
  return static_cast<std::uint64_t>(*v);
}

std::uint64_t get_u64(const util::FlatJson& j, const std::string& key) {
  const auto v = j.get_string(key);
  util::require(v.has_value(), "replay: missing key " + key);
  try {
    return std::stoull(*v);
  } catch (const std::exception&) {
    throw util::LpmError("replay: bad 64-bit value for " + key);
  }
}

mem::CacheConfig get_cache(const util::FlatJson& j, const std::string& p) {
  mem::CacheConfig c;
  c.size_bytes = get_num(j, p + ".size_bytes");
  c.block_bytes = static_cast<std::uint32_t>(get_num(j, p + ".block_bytes"));
  c.associativity = static_cast<std::uint32_t>(get_num(j, p + ".associativity"));
  c.hit_latency = static_cast<std::uint32_t>(get_num(j, p + ".hit_latency"));
  c.ports = static_cast<std::uint32_t>(get_num(j, p + ".ports"));
  c.banks = static_cast<std::uint32_t>(get_num(j, p + ".banks"));
  c.interleave_bytes = get_num(j, p + ".interleave_bytes");
  c.mshr_entries = static_cast<std::uint32_t>(get_num(j, p + ".mshr_entries"));
  c.mshr_targets = static_cast<std::uint32_t>(get_num(j, p + ".mshr_targets"));
  c.writeback_capacity =
      static_cast<std::uint32_t>(get_num(j, p + ".writeback_capacity"));
  c.prefetch_degree =
      static_cast<std::uint32_t>(get_num(j, p + ".prefetch_degree"));
  c.prefetch_accuracy_window =
      static_cast<std::uint32_t>(get_num(j, p + ".prefetch_accuracy_window"));
  c.mshr_quota_per_core =
      static_cast<std::uint32_t>(get_num(j, p + ".mshr_quota_per_core"));
  const auto repl = j.get_string(p + ".replacement");
  util::require(repl.has_value(), "replay: missing key " + p + ".replacement");
  c.replacement = mem::replacement_from_string(*repl);
  c.seed = get_u64(j, p + ".seed");
  return c;
}

}  // namespace

std::vector<trace::TraceSourcePtr> ReplayCase::make_traces() const {
  std::vector<trace::TraceSourcePtr> traces;
  traces.reserve(ops.size());
  for (std::size_t c = 0; c < ops.size(); ++c) {
    traces.push_back(std::make_unique<trace::VectorTrace>(
        "replay." + std::to_string(c), ops[c]));
  }
  return traces;
}

std::string encode_ops(const std::vector<trace::MicroOp>& ops) {
  std::string out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const trace::MicroOp& op = ops[i];
    if (i != 0) out += ';';
    switch (op.type) {
      case trace::OpType::kAlu: out += 'a'; break;
      case trace::OpType::kLoad: out += 'l'; break;
      case trace::OpType::kStore: out += 's'; break;
    }
    std::ostringstream hex;
    hex << std::hex << op.addr;
    out += hex.str();
    out += ':';
    out += std::to_string(op.dep_dist);
    out += ':';
    out += std::to_string(op.dep_dist2);
    out += ':';
    out += std::to_string(static_cast<unsigned>(op.exec_latency));
  }
  return out;
}

std::vector<trace::MicroOp> decode_ops(const std::string& text) {
  std::vector<trace::MicroOp> ops;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string tok = text.substr(pos, end - pos);
    pos = end + 1;
    util::require(tok.size() >= 2, "replay: truncated op token");
    trace::MicroOp op;
    switch (tok[0]) {
      case 'a': op.type = trace::OpType::kAlu; break;
      case 'l': op.type = trace::OpType::kLoad; break;
      case 's': op.type = trace::OpType::kStore; break;
      default: throw util::LpmError("replay: unknown op type in token " + tok);
    }
    std::uint64_t addr = 0;
    std::uint64_t dep = 0;
    std::uint64_t dep2 = 0;
    std::uint64_t lat = 1;
    const int got = std::sscanf(tok.c_str() + 1, "%lx:%lu:%lu:%lu", &addr,
                                &dep, &dep2, &lat);
    util::require(got == 4, "replay: malformed op token " + tok);
    op.addr = addr;
    op.dep_dist = static_cast<std::uint32_t>(dep);
    op.dep_dist2 = static_cast<std::uint32_t>(dep2);
    op.exec_latency = static_cast<std::uint8_t>(lat);
    ops.push_back(op);
  }
  return ops;
}

std::string replay_to_json(const ReplayCase& c) {
  const sim::MachineConfig& m = c.machine;
  util::JsonWriter out;
  out.str("format", kFormatTag).num_u64("num_cores", m.num_cores);
  put_u64(out, "max_cycles", m.max_cycles);
  out.boolean("use_private_l2", m.use_private_l2);
  if (!m.l1_size_per_core.empty()) {
    std::string sizes;
    for (std::size_t i = 0; i < m.l1_size_per_core.size(); ++i) {
      if (i != 0) sizes += ',';
      sizes += std::to_string(m.l1_size_per_core[i]);
    }
    out.str("l1_size_per_core", sizes);
  }
  out.num_u64("core.issue_width", m.core.issue_width)
      .num_u64("core.dispatch_width", m.core.dispatch_width)
      .num_u64("core.commit_width", m.core.commit_width)
      .num_u64("core.iw_size", m.core.iw_size)
      .num_u64("core.rob_size", m.core.rob_size)
      .num_u64("core.lsq_size", m.core.lsq_size);
  put_cache(out, "l1", m.l1);
  put_cache(out, "l2", m.l2);
  if (m.use_private_l2) put_cache(out, "private_l2", m.private_l2);
  out.num_u64("dram.banks", m.dram.banks)
      .num_u64("dram.row_bytes", m.dram.row_bytes)
      .num_u64("dram.interleave_bytes", m.dram.interleave_bytes)
      .num_u64("dram.t_rcd", m.dram.t_rcd)
      .num_u64("dram.t_cl", m.dram.t_cl)
      .num_u64("dram.t_rp", m.dram.t_rp)
      .num_u64("dram.t_burst", m.dram.t_burst)
      .num_u64("dram.frontend_latency", m.dram.frontend_latency)
      .num_u64("dram.queue_capacity", m.dram.queue_capacity)
      .num_u64("dram.max_issue_per_cycle", m.dram.max_issue_per_cycle)
      .num_u64("dram.starvation_threshold", m.dram.starvation_threshold);
  for (std::size_t cidx = 0; cidx < c.ops.size(); ++cidx) {
    out.str("ops." + std::to_string(cidx), encode_ops(c.ops[cidx]));
  }
  return out.finish() + "\n";
}

ReplayCase replay_from_json(const std::string& text) {
  const util::FlatJson j = util::FlatJson::parse(text);
  const auto format = j.get_string("format");
  util::require(format.has_value() && *format == kFormatTag,
                "replay: not an lpm-replay-v1 file");

  ReplayCase c;
  sim::MachineConfig& m = c.machine;
  m.num_cores = static_cast<std::uint32_t>(get_num(j, "num_cores"));
  m.max_cycles = get_u64(j, "max_cycles");
  const auto priv = j.get_bool("use_private_l2");
  util::require(priv.has_value(), "replay: missing use_private_l2");
  m.use_private_l2 = *priv;
  if (const auto sizes = j.get_string("l1_size_per_core")) {
    std::size_t pos = 0;
    while (pos < sizes->size()) {
      std::size_t end = sizes->find(',', pos);
      if (end == std::string::npos) end = sizes->size();
      m.l1_size_per_core.push_back(
          std::stoull(sizes->substr(pos, end - pos)));
      pos = end + 1;
    }
  }
  m.core.issue_width = static_cast<std::uint32_t>(get_num(j, "core.issue_width"));
  m.core.dispatch_width =
      static_cast<std::uint32_t>(get_num(j, "core.dispatch_width"));
  m.core.commit_width =
      static_cast<std::uint32_t>(get_num(j, "core.commit_width"));
  m.core.iw_size = static_cast<std::uint32_t>(get_num(j, "core.iw_size"));
  m.core.rob_size = static_cast<std::uint32_t>(get_num(j, "core.rob_size"));
  m.core.lsq_size = static_cast<std::uint32_t>(get_num(j, "core.lsq_size"));
  m.l1 = get_cache(j, "l1");
  m.l2 = get_cache(j, "l2");
  if (m.use_private_l2) m.private_l2 = get_cache(j, "private_l2");
  m.dram.banks = static_cast<std::uint32_t>(get_num(j, "dram.banks"));
  m.dram.row_bytes = get_num(j, "dram.row_bytes");
  m.dram.interleave_bytes = get_num(j, "dram.interleave_bytes");
  m.dram.t_rcd = static_cast<std::uint32_t>(get_num(j, "dram.t_rcd"));
  m.dram.t_cl = static_cast<std::uint32_t>(get_num(j, "dram.t_cl"));
  m.dram.t_rp = static_cast<std::uint32_t>(get_num(j, "dram.t_rp"));
  m.dram.t_burst = static_cast<std::uint32_t>(get_num(j, "dram.t_burst"));
  m.dram.frontend_latency =
      static_cast<std::uint32_t>(get_num(j, "dram.frontend_latency"));
  m.dram.queue_capacity =
      static_cast<std::uint32_t>(get_num(j, "dram.queue_capacity"));
  m.dram.max_issue_per_cycle =
      static_cast<std::uint32_t>(get_num(j, "dram.max_issue_per_cycle"));
  m.dram.starvation_threshold =
      static_cast<std::uint32_t>(get_num(j, "dram.starvation_threshold"));

  for (std::uint32_t cidx = 0; cidx < m.num_cores; ++cidx) {
    const auto ops = j.get_string("ops." + std::to_string(cidx));
    util::require(ops.has_value(),
                  "replay: missing ops." + std::to_string(cidx));
    c.ops.push_back(decode_ops(*ops));
  }
  m.validate();
  return c;
}

void save_replay(const ReplayCase& c, const std::string& path) {
  std::ofstream out(path);
  util::require(out.good(), "replay: cannot open " + path + " for writing");
  out << replay_to_json(c);
  util::require(out.good(), "replay: write to " + path + " failed");
}

ReplayCase load_replay(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), "replay: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return replay_from_json(buf.str());
}

}  // namespace lpm::check
