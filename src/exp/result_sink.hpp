// Structured result sink: one flat record per experiment-engine job, as CSV
// or JSON lines. This is the machine-readable counterpart of the benches'
// ASCII tables — sweeps land in a file a notebook can load directly instead
// of an ad-hoc printf format per bench.
//
// Crash safety: records are appended and flushed one line at a time, so a
// killed sweep loses at most its in-flight line. open() heals exactly that
// case — a torn final line is truncated away before appending resumes, and
// the CSV header is only written into an empty file.
//
// Thread safety: write() is safe from any thread (one internal mutex
// serializes formatting and the append). ResultRecord::make and the CSV
// helpers are pure functions. open() must not race another open() of the
// same path.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace lpm::exp {

struct SimJob;
struct SimJobResult;

/// RFC 4180 CSV field encoding: fields containing commas, quotes, CR or LF
/// are wrapped in double quotes with embedded quotes doubled; all other
/// fields pass through unchanged.
[[nodiscard]] std::string csv_field(const std::string& value);

/// Inverse of csv_field over one CSV record (which may span multiple
/// physical lines when a quoted field embeds newlines). Splits into
/// unescaped fields; tolerant of unquoted fields.
[[nodiscard]] std::vector<std::string> split_csv_record(const std::string& record);

/// The flattened per-job record (aggregated over cores where per-core
/// detail exists; the full SystemResult stays available on SimJobResult).
struct ResultRecord {
  std::string tag;
  std::string fingerprint;  ///< hex cache key
  /// Model backend that produced the row ("cycle", "rdh", "fa"); rows of
  /// different fidelities for one (machine, workloads) stay distinguishable.
  std::string backend = "cycle";
  bool from_cache = false;
  bool completed = false;
  std::uint64_t cycles = 0;
  std::uint32_t cores = 0;
  std::uint64_t instructions = 0;  ///< summed over cores
  double ipc = 0.0;                ///< total instructions / cycles
  double mr1 = 0.0;                ///< aggregate L1 demand miss rate
  double mr2 = 0.0;                ///< shared L2/LLC miss rate
  double camat1 = 0.0;             ///< core-0 L1 C-AMAT (1/APC)
  double camat2 = 0.0;             ///< shared L2 C-AMAT
  double cpi_exe = 0.0;            ///< core-0 calibration (0 if not requested)
  double duration_ms = 0.0;        ///< wall-clock execution time of the run
                                   ///< that produced the result (cache-served
                                   ///< rows repeat the producing run's time)

  [[nodiscard]] static ResultRecord make(const SimJob& job,
                                         const SimJobResult& result,
                                         bool from_cache);
};

/// Reads records back from a sink file (CSV vs JSON lines by extension,
/// same rule as ResultSink::open). Columns/keys are matched by name, so
/// files survive reordering and unknown fields. Backward compatible with
/// files written before multi-fidelity backends (a missing `backend`
/// column/key loads as "cycle" — the only fidelity that existed then).
/// Throws util::IoError if the file cannot be read.
[[nodiscard]] std::vector<ResultRecord> load_result_records(
    const std::string& path);

class ResultSink {
 public:
  enum class Format { kCsv, kJsonLines };

  /// Writes to a caller-owned stream.
  ResultSink(std::ostream& out, Format format);

  /// Opens `path` for appending; format from the extension (.csv vs
  /// .jsonl/.ndjson/anything else). A torn final line from a crashed
  /// previous run is truncated away, and an existing non-empty CSV file
  /// keeps its header (no duplicate is emitted). Throws util::IoError if
  /// unwritable.
  [[nodiscard]] static std::unique_ptr<ResultSink> open(const std::string& path);

  /// Appends one record (thread-safe; the CSV header is emitted once).
  void write(const ResultRecord& record);

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  explicit ResultSink(Format format);  // owned-file variant, used by open()

  std::mutex mutex_;
  std::ofstream owned_;
  std::ostream* out_;
  Format format_;
  bool header_written_ = false;
  std::uint64_t records_ = 0;
};

}  // namespace lpm::exp
