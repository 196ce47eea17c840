// LPM2: the on-disk trace format and its one reader.
//
// Layout (all fields little-endian):
//   offset  0: magic "LPM2"
//   offset  4: u32 version        (= 2)
//   offset  8: u64 count          (number of records)
//   offset 16: u64 checksum       (Checksum64 over the raw record bytes)
//   offset 24: u32 record_bytes   (= 18; rejects readers on layout drift)
//   offset 28: u32 reserved       (= 0)
//   offset 32: count * 18-byte records:
//              u8 type | u8 exec_latency | u32 dep_dist | u32 dep_dist2 | u64 addr
//
// Design notes:
//   - The checksum covers record bytes only (not the header), which lets the
//     writer stream records single-pass and patch count+checksum at the end.
//     Count integrity does not depend on the checksum: a valid file's size
//     must be exactly 32 + 18*count, so every truncation and every count
//     bit-flip is caught when the file is opened, before any allocation.
//   - Lpm2Trace is the only file-backed TraceSource. It pread()s fixed
//     chunks of kIoBatchOps records into one buffer, so resident cost is
//     that buffer, independent of trace size. Reading is far faster than
//     the simulator consumes ops, so there is no mmap and no decoder
//     thread: a file truncated or rewritten under a live replay becomes a
//     typed util::IoError (short read, or checksum mismatch at the end of
//     the stream), never a signal.
//   - v1 "LPMT" files (16-byte header: magic, u32 version, u64 count; same
//     record layout) are not replayed. convert_lpmt_trace() — the
//     `lpm_trace convert lpmt=OLD out=NEW` command — copies their records
//     into LPM2; every other entry point rejects them with an IoError that
//     names that command.
//
// All corruption surfaces as typed util::IoError — never UB, OOM, or a
// silently short stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_source.hpp"
#include "trace/workload_profile.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace lpm::trace {

inline constexpr std::size_t kLpm2HeaderBytes = 32;
inline constexpr std::size_t kLpm2RecordBytes = 18;
inline constexpr std::uint32_t kLpm2Version = 2;
/// Records per read/write batch, for the writer and the reader alike.
inline constexpr std::size_t kIoBatchOps = 4096;

/// Parsed + validated header of an LPM2 file on disk.
struct TraceFileInfo {
  std::uint32_t version = 0;
  std::uint64_t count = 0;     ///< records in the file
  std::uint64_t checksum = 0;  ///< content checksum over the record bytes
  std::uint64_t file_bytes = 0;
};

/// Encodes one MicroOp into `dst` (exactly kLpm2RecordBytes bytes).
void encode_record(const MicroOp& op, unsigned char* dst);

/// Decodes one record from `src` (exactly kLpm2RecordBytes bytes).
/// Throws util::IoError if the type byte is out of range.
[[nodiscard]] MicroOp decode_record(const unsigned char* src);

/// Writes every op of `source` (current position to exhaustion) to `path`
/// in LPM2 format, streaming: resident cost is one fixed write buffer, not
/// the trace. Returns the content checksum of the recorded stream. Throws
/// util::IoError on I/O failure.
std::uint64_t record_trace_v2(TraceSource& source, const std::string& path);

/// Copies the records of a v1 "LPMT" file at `lpmt_path` into a new LPM2
/// file at `out_path`, checking the v1 header and every type byte. The
/// record layouts are identical, so the result has the content checksum a
/// direct LPM2 recording of the same stream would have. Returns that
/// checksum. Throws util::IoError on a bad v1 header or I/O failure.
std::uint64_t convert_lpmt_trace(const std::string& lpmt_path,
                                 const std::string& out_path);

/// Validates an LPM2 header from an in-memory byte range (the first
/// kLpm2HeaderBytes of the file). `file_bytes` is the full on-disk size,
/// checked to be exactly header + count * record_bytes — which makes the
/// count self-validating against truncation and bit-flips. Throws
/// util::IoError on any mismatch; `path` only decorates the error message.
[[nodiscard]] TraceFileInfo parse_lpm2_header(const unsigned char* header,
                                              std::uint64_t file_bytes,
                                              const std::string& path);

/// Replays an LPM2 file. The constructor reads and validates the header;
/// fill() reads records in chunks of kIoBatchOps, decodes them, and feeds
/// the content checksum, which is verified when the last record is
/// consumed. A failure (short read, bad type byte, checksum mismatch) is
/// sticky: later calls rethrow the same typed error until reset(), which
/// rewinds to the first record.
class Lpm2Trace final : public TraceSource {
 public:
  /// Opens `path`. Throws util::IoError for a missing file, a v1 "LPMT"
  /// file, or a corrupt header. `name` defaults to `path`.
  explicit Lpm2Trace(const std::string& path, std::string name = "");
  ~Lpm2Trace() override;

  Lpm2Trace(const Lpm2Trace&) = delete;
  Lpm2Trace& operator=(const Lpm2Trace&) = delete;

  bool next(MicroOp& op) override { return fill(&op, 1) == 1; }
  std::size_t fill(MicroOp* dst, std::size_t n) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return name_; }

  /// The header read at open (`checksum` is the header's claim).
  [[nodiscard]] const TraceFileInfo& info() const { return info_; }

 private:
  void read_chunk();

  std::string path_;
  std::string name_;
  int fd_ = -1;
  TraceFileInfo info_;

  std::vector<unsigned char> chunk_;  ///< raw records of the current chunk
  std::size_t chunk_ops_ = 0;         ///< records in chunk_
  std::size_t chunk_pos_ = 0;         ///< next record to decode in chunk_
  std::uint64_t read_ops_ = 0;        ///< records read from the file so far
  util::Checksum64 running_;
  bool verified_ = false;

  util::ErrorCode failure_ = util::ErrorCode::kNone;
  std::string failure_message_;
};

/// Reads and validates the header of the LPM2 file at `path` without
/// touching the record payload. The checksum is the header's (not verified
/// against the records — use verify_trace for that). Throws util::IoError
/// on a missing or v1 file, bad header fields, or a file size that does not
/// match the declared count.
[[nodiscard]] TraceFileInfo inspect_trace(const std::string& path);

/// Full-file validation: drains an Lpm2Trace over `path`, which decodes
/// every record and verifies the content checksum. Returns the header
/// info. Throws util::IoError on any mismatch.
TraceFileInfo verify_trace(const std::string& path);

/// Builds a file-backed WorkloadProfile for a recorded LPM2 trace: probes
/// the header, fills in `length` (record count), `trace_path`, and
/// `trace_checksum`. `name` defaults to the file's basename. Throws
/// util::IoError on a missing/corrupt/v1 file and util::ConfigError for an
/// empty recording (nothing to simulate).
[[nodiscard]] WorkloadProfile trace_file_profile(const std::string& path,
                                                 std::string name = "");

}  // namespace lpm::trace
