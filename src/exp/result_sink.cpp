#include "exp/result_sink.hpp"

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "exp/experiment_engine.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/flat_json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/torn_line.hpp"

namespace lpm::exp {

std::string csv_field(const std::string& value) {
  const bool needs_quotes =
      value.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quotes) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::vector<std::string> split_csv_record(const std::string& record) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < record.size(); ++i) {
    const char c = record[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < record.size() && record[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

ResultRecord ResultRecord::make(const SimJob& job, const SimJobResult& result,
                                bool from_cache) {
  ResultRecord r;
  r.tag = job.tag;
  r.fingerprint = util::fingerprint_hex(result.fingerprint);
  r.backend = result.backend;
  r.from_cache = from_cache;
  r.completed = result.run.completed;
  r.cycles = result.run.cycles;
  r.cores = job.machine.num_cores;

  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  for (const auto& core : result.run.cores) r.instructions += core.instructions;
  for (const auto& l1 : result.run.l1_cache) {
    l1_accesses += l1.accesses;
    l1_misses += l1.misses;
  }
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  r.mr1 = l1_accesses == 0 ? 0.0
                           : static_cast<double>(l1_misses) /
                                 static_cast<double>(l1_accesses);
  r.mr2 = result.run.mr2();
  if (!result.run.l1.empty()) r.camat1 = result.run.l1.front().camat();
  r.camat2 = result.run.l2.camat();
  if (!result.calib.empty()) r.cpi_exe = result.calib.front().cpi_exe;
  r.duration_ms = result.duration_ms;
  return r;
}

namespace {

/// One CSV *record* may span physical lines when a quoted tag embeds a
/// newline; a record is complete once its double quotes balance.
bool csv_record_complete(const std::string& record) {
  std::size_t quotes = 0;
  for (const char c : record) {
    if (c == '"') ++quotes;
  }
  return quotes % 2 == 0;
}

std::vector<ResultRecord> load_csv_records(std::ifstream& in) {
  std::vector<ResultRecord> out;
  std::string line;
  if (!std::getline(in, line)) return out;
  const std::vector<std::string> header = split_csv_record(line);
  const auto column = [&header](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  const auto c_tag = column("tag");
  const auto c_fp = column("fingerprint");
  const auto c_backend = column("backend");
  const auto c_cache = column("from_cache");
  const auto c_done = column("completed");
  const auto c_cycles = column("cycles");
  const auto c_cores = column("cores");
  const auto c_instr = column("instructions");
  const auto c_ipc = column("ipc");
  const auto c_mr1 = column("mr1");
  const auto c_mr2 = column("mr2");
  const auto c_camat1 = column("camat1");
  const auto c_camat2 = column("camat2");
  const auto c_cpi = column("cpi_exe");
  const auto c_dur_ms = column("duration_ms");

  std::string record;
  while (std::getline(in, record)) {
    std::string extra;
    while (!csv_record_complete(record) && std::getline(in, extra)) {
      record += '\n';
      record += extra;
    }
    if (record.empty()) continue;
    const std::vector<std::string> f = split_csv_record(record);
    const auto field = [&f](std::ptrdiff_t idx) -> std::string {
      if (idx < 0 || static_cast<std::size_t>(idx) >= f.size()) return "";
      return f[static_cast<std::size_t>(idx)];
    };
    const auto num = [&field](std::ptrdiff_t idx) -> double {
      const std::string s = field(idx);
      return s.empty() ? 0.0 : std::strtod(s.c_str(), nullptr);
    };
    ResultRecord r;
    r.tag = field(c_tag);
    r.fingerprint = field(c_fp);
    // Files from before multi-fidelity backends carry no backend column;
    // every row of that era was cycle-accurate.
    const std::string backend = field(c_backend);
    r.backend = backend.empty() ? "cycle" : backend;
    r.from_cache = num(c_cache) != 0.0;
    r.completed = num(c_done) != 0.0;
    r.cycles = static_cast<std::uint64_t>(num(c_cycles));
    r.cores = static_cast<std::uint32_t>(num(c_cores));
    r.instructions = static_cast<std::uint64_t>(num(c_instr));
    r.ipc = num(c_ipc);
    r.mr1 = num(c_mr1);
    r.mr2 = num(c_mr2);
    r.camat1 = num(c_camat1);
    r.camat2 = num(c_camat2);
    r.cpi_exe = num(c_cpi);
    r.duration_ms = num(c_dur_ms);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ResultRecord> load_jsonl_records(std::ifstream& in) {
  std::vector<ResultRecord> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::FlatJson json = util::FlatJson::parse(line);
    ResultRecord r;
    r.tag = json.get_string("tag").value_or("");
    r.fingerprint = json.get_string("fingerprint").value_or("");
    r.backend = json.get_string("backend").value_or("cycle");
    r.from_cache = json.get_bool("from_cache").value_or(false);
    r.completed = json.get_bool("completed").value_or(false);
    r.cycles = static_cast<std::uint64_t>(json.get_number("cycles").value_or(0));
    r.cores = static_cast<std::uint32_t>(json.get_number("cores").value_or(0));
    r.instructions =
        static_cast<std::uint64_t>(json.get_number("instructions").value_or(0));
    r.ipc = json.get_number("ipc").value_or(0.0);
    r.mr1 = json.get_number("mr1").value_or(0.0);
    r.mr2 = json.get_number("mr2").value_or(0.0);
    r.camat1 = json.get_number("camat1").value_or(0.0);
    r.camat2 = json.get_number("camat2").value_or(0.0);
    r.cpi_exe = json.get_number("cpi_exe").value_or(0.0);
    r.duration_ms = json.get_number("duration_ms").value_or(0.0);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

std::vector<ResultRecord> load_result_records(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw util::IoError("load_result_records: cannot open '" + path + "'");
  }
  const bool csv = path.size() >= 4 && path.rfind(".csv") == path.size() - 4;
  return csv ? load_csv_records(in) : load_jsonl_records(in);
}

ResultSink::ResultSink(std::ostream& out, Format format)
    : out_(&out), format_(format) {}

ResultSink::ResultSink(Format format) : out_(&owned_), format_(format) {}

std::unique_ptr<ResultSink> ResultSink::open(const std::string& path) {
  const bool csv = path.size() >= 4 && path.rfind(".csv") == path.size() - 4;
  auto sink = std::unique_ptr<ResultSink>(
      new ResultSink(csv ? Format::kCsv : Format::kJsonLines));

  // Heal a previous crash: a kill mid-append leaves at most one torn line,
  // which carries no complete record — drop it so every surviving line
  // parses. Re-runs then append clean records (header only once).
  if (std::filesystem::exists(path)) {
    const std::uintmax_t trimmed = util::trim_partial_last_line(path);
    if (trimmed > 0) {
      util::log_warn() << "results file '" << path << "': dropped " << trimmed
                       << " byte(s) of torn final line";
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec && size > 0) sink->header_written_ = true;
  }

  sink->owned_.open(path, std::ios::out | std::ios::app);
  if (!sink->owned_.is_open()) {
    throw util::IoError("ResultSink: cannot open '" + path + "' for writing");
  }
  return sink;
}

void ResultSink::write(const ResultRecord& r) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  if (format_ == Format::kCsv) {
    if (!header_written_) {
      os << "tag,fingerprint,backend,from_cache,completed,cycles,cores,"
            "instructions,ipc,mr1,mr2,camat1,camat2,cpi_exe,duration_ms\n";
      header_written_ = true;
    }
    os << csv_field(r.tag) << ',' << r.fingerprint << ','
       << csv_field(r.backend) << ','
       << (r.from_cache ? 1 : 0) << ',' << (r.completed ? 1 : 0) << ','
       << r.cycles << ',' << r.cores << ',' << r.instructions << ','
       << util::fmt(r.ipc, 6) << ',' << util::fmt(r.mr1, 6) << ','
       << util::fmt(r.mr2, 6) << ',' << util::fmt(r.camat1, 6) << ','
       << util::fmt(r.camat2, 6) << ',' << util::fmt(r.cpi_exe, 6) << ','
       << util::fmt(r.duration_ms, 3) << "\n";
  } else {
    os << util::JsonWriter()
              .str("tag", r.tag)
              .str("fingerprint", r.fingerprint)
              .str("backend", r.backend)
              .boolean("from_cache", r.from_cache)
              .boolean("completed", r.completed)
              .num_u64("cycles", r.cycles)
              .num_u64("cores", r.cores)
              .num_u64("instructions", r.instructions)
              .fixed("ipc", r.ipc, 6)
              .fixed("mr1", r.mr1, 6)
              .fixed("mr2", r.mr2, 6)
              .fixed("camat1", r.camat1, 6)
              .fixed("camat2", r.camat2, 6)
              .fixed("cpi_exe", r.cpi_exe, 6)
              .fixed("duration_ms", r.duration_ms, 3)
              .finish()
       << "\n";
  }
  // Append-then-flush: the record reaches the OS as one write, so a crash
  // can only ever tear the final line (which open() heals on resume).
  *out_ << os.str();
  out_->flush();
  ++records_;
}

}  // namespace lpm::exp
