#include "trace/lpm2.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace lpm::trace {

namespace {

constexpr std::array<char, 4> kMagicV2 = {'L', 'P', 'M', '2'};
constexpr std::array<char, 4> kMagicV1 = {'L', 'P', 'M', 'T'};
constexpr std::size_t kV1HeaderBytes = 4 + 4 + 8;

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xff;
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xff;
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw util::IoError(what + " in " + path);
}

std::string errno_text() { return std::strerror(errno); }

/// pread()s `size` bytes at `offset`, retrying interrupted and partial
/// reads. Returns the bytes read, which is fewer than `size` only when the
/// file ends first.
std::size_t pread_full(int fd, unsigned char* dst, std::size_t size,
                       std::uint64_t offset, const std::string& path) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t r = ::pread(fd, dst + got, size - got,
                              static_cast<off_t>(offset + got));
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("trace: read failed (" + errno_text() + ")", path);
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

/// Streams LPM2 records to a file: a placeholder header, then record
/// batches hashed as they are written, then count and checksum patched in.
class Lpm2Writer {
 public:
  explicit Lpm2Writer(const std::string& path)
      : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_.good()) fail("trace: cannot open for writing", path_);
    std::copy(kMagicV2.begin(), kMagicV2.end(), header_.begin());
    put_u32(&header_[4], kLpm2Version);
    put_u32(&header_[24], kLpm2RecordBytes);
    out_.write(reinterpret_cast<const char*>(header_.data()), header_.size());
  }

  void write(const unsigned char* records, std::size_t count) {
    const std::size_t bytes = count * kLpm2RecordBytes;
    checksum_.update(records, bytes);
    out_.write(reinterpret_cast<const char*>(records),
               static_cast<std::streamsize>(bytes));
    if (!out_.good()) fail("trace: write failed", path_);
    count_ += count;
  }

  /// Patches the header; returns the content checksum.
  std::uint64_t finish() {
    const std::uint64_t digest = checksum_.digest();
    put_u64(&header_[8], count_);
    put_u64(&header_[16], digest);
    out_.seekp(0);
    out_.write(reinterpret_cast<const char*>(header_.data()), header_.size());
    out_.flush();
    if (!out_.good()) fail("trace: header patch failed", path_);
    return digest;
  }

 private:
  std::string path_;
  std::ofstream out_;
  std::array<unsigned char, kLpm2HeaderBytes> header_{};
  util::Checksum64 checksum_;
  std::uint64_t count_ = 0;
};

}  // namespace

TraceFileInfo parse_lpm2_header(const unsigned char* header,
                                std::uint64_t file_bytes,
                                const std::string& path) {
  if (file_bytes < kLpm2HeaderBytes) fail("trace: file too small for an LPM2 header", path);
  if (std::memcmp(header, kMagicV2.data(), 4) != 0) {
    fail("trace: bad LPM2 magic", path);
  }
  TraceFileInfo info;
  info.file_bytes = file_bytes;
  info.version = get_u32(header + 4);
  info.count = get_u64(header + 8);
  info.checksum = get_u64(header + 16);
  const std::uint32_t record_bytes = get_u32(header + 24);
  const std::uint32_t reserved = get_u32(header + 28);
  if (info.version != kLpm2Version) {
    fail("trace: unsupported LPM2 version " + std::to_string(info.version), path);
  }
  if (record_bytes != kLpm2RecordBytes) {
    fail("trace: unexpected record size " + std::to_string(record_bytes), path);
  }
  if (reserved != 0) fail("trace: nonzero reserved header field", path);
  if (info.checksum == 0) fail("trace: header checksum is unset", path);
  // A valid file's size is exactly header + count records. This makes the
  // count self-validating: every truncation, every appended byte, and every
  // count bit-flip changes the equation and is rejected here, before any
  // allocation or record decode.
  if (info.count > (file_bytes - kLpm2HeaderBytes) / kLpm2RecordBytes ||
      file_bytes != kLpm2HeaderBytes + info.count * kLpm2RecordBytes) {
    fail("trace: file size " + std::to_string(file_bytes) +
             " does not match header count " + std::to_string(info.count),
         path);
  }
  return info;
}

void encode_record(const MicroOp& op, unsigned char* dst) {
  dst[0] = static_cast<unsigned char>(op.type);
  dst[1] = op.exec_latency;
  put_u32(dst + 2, op.dep_dist);
  put_u32(dst + 6, op.dep_dist2);
  put_u64(dst + 10, op.addr);
}

MicroOp decode_record(const unsigned char* src) {
  if (src[0] > static_cast<unsigned char>(OpType::kStore)) {
    throw util::IoError("trace: invalid op type byte " + std::to_string(src[0]) +
                        " (corrupt record)");
  }
  MicroOp op;
  op.type = static_cast<OpType>(src[0]);
  op.exec_latency = src[1];
  op.dep_dist = get_u32(src + 2);
  op.dep_dist2 = get_u32(src + 6);
  op.addr = get_u64(src + 10);
  return op;
}

std::uint64_t record_trace_v2(TraceSource& source, const std::string& path) {
  Lpm2Writer out(path);
  std::vector<MicroOp> ops(kIoBatchOps);
  std::vector<unsigned char> buf(kIoBatchOps * kLpm2RecordBytes);
  for (;;) {
    const std::size_t got = source.fill(ops.data(), ops.size());
    if (got == 0) break;
    if (got > ops.size()) {
      throw util::SimError("record_trace_v2: source '" + source.name() +
                           "' returned more ops than requested");
    }
    for (std::size_t i = 0; i < got; ++i) {
      encode_record(ops[i], buf.data() + i * kLpm2RecordBytes);
    }
    out.write(buf.data(), got);
    if (got < ops.size()) break;  // short fill = source exhausted
  }
  return out.finish();
}

std::uint64_t convert_lpmt_trace(const std::string& lpmt_path,
                                 const std::string& out_path) {
  std::ifstream in(lpmt_path, std::ios::binary | std::ios::ate);
  if (!in.good()) fail("trace: cannot open", lpmt_path);
  const std::streamoff file_bytes = in.tellg();
  in.seekg(0);
  std::array<unsigned char, kV1HeaderBytes> hdr{};
  in.read(reinterpret_cast<char*>(hdr.data()), hdr.size());
  if (!in.good() || std::memcmp(hdr.data(), kMagicV1.data(), 4) != 0) {
    fail("trace: not a v1 LPMT file", lpmt_path);
  }
  const std::uint32_t version = get_u32(&hdr[4]);
  const std::uint64_t count = get_u64(&hdr[8]);
  if (version != 1) {
    fail("trace: unsupported LPMT version " + std::to_string(version), lpmt_path);
  }
  const auto records_present =
      static_cast<std::uint64_t>(file_bytes - static_cast<std::streamoff>(kV1HeaderBytes)) /
      kLpm2RecordBytes;
  if (count > records_present) {
    fail("trace: header count " + std::to_string(count) +
             " exceeds the records present",
         lpmt_path);
  }

  Lpm2Writer out(out_path);
  std::vector<unsigned char> buf(kIoBatchOps * kLpm2RecordBytes);
  for (std::uint64_t done = 0; done < count;) {
    const auto batch =
        static_cast<std::size_t>(std::min<std::uint64_t>(count - done, kIoBatchOps));
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(batch * kLpm2RecordBytes));
    if (!in.good()) fail("trace: truncated LPMT record payload", lpmt_path);
    for (std::size_t i = 0; i < batch; ++i) {
      (void)decode_record(buf.data() + i * kLpm2RecordBytes);  // type check
    }
    out.write(buf.data(), batch);
    done += batch;
  }
  return out.finish();
}

// --- Lpm2Trace ---------------------------------------------------------------

Lpm2Trace::Lpm2Trace(const std::string& path, std::string name)
    : path_(path), name_(name.empty() ? path : std::move(name)) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) fail("trace: cannot open (" + errno_text() + ")", path);
  try {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) fail("trace: fstat failed (" + errno_text() + ")", path);
    const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
    std::array<unsigned char, kLpm2HeaderBytes> header{};
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(header.size(), file_bytes));
    if (pread_full(fd_, header.data(), want, 0, path) != want) {
      fail("trace: short header read", path);
    }
    if (want >= 4 && std::memcmp(header.data(), kMagicV1.data(), 4) == 0) {
      throw util::IoError("trace: " + path +
                          " is a v1 LPMT file; convert it with "
                          "`lpm_trace convert lpmt=" + path + " out=NEW.lpm2`");
    }
    info_ = parse_lpm2_header(header.data(), file_bytes, path);
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

Lpm2Trace::~Lpm2Trace() { ::close(fd_); }

void Lpm2Trace::read_chunk() {
  const auto ops = static_cast<std::size_t>(
      std::min<std::uint64_t>(kIoBatchOps, info_.count - read_ops_));
  const std::size_t bytes = ops * kLpm2RecordBytes;
  if (chunk_.empty()) chunk_.resize(kIoBatchOps * kLpm2RecordBytes);
  const std::uint64_t offset = kLpm2HeaderBytes + read_ops_ * kLpm2RecordBytes;
  if (pread_full(fd_, chunk_.data(), bytes, offset, path_) != bytes) {
    fail("trace: short read at record " + std::to_string(read_ops_) + " of " +
             std::to_string(info_.count) + " (file truncated during replay?)",
         path_);
  }
  running_.update(chunk_.data(), bytes);
  read_ops_ += ops;
  chunk_ops_ = ops;
  chunk_pos_ = 0;
}

std::size_t Lpm2Trace::fill(MicroOp* dst, std::size_t n) {
  if (failure_ != util::ErrorCode::kNone) {
    util::throw_error(failure_, failure_message_);
  }
  if (n == 0) return 0;
  std::size_t produced = 0;
  try {
    while (produced < n) {
      if (chunk_pos_ == chunk_ops_) {
        if (read_ops_ == info_.count) break;
        read_chunk();
      }
      const std::size_t take = std::min(n - produced, chunk_ops_ - chunk_pos_);
      const unsigned char* src = chunk_.data() + chunk_pos_ * kLpm2RecordBytes;
      for (std::size_t i = 0; i < take; ++i) {
        dst[produced + i] = decode_record(src + i * kLpm2RecordBytes);
      }
      chunk_pos_ += take;
      produced += take;
    }
    if (!verified_ && read_ops_ == info_.count && chunk_pos_ == chunk_ops_) {
      verified_ = true;
      const std::uint64_t computed = running_.digest();
      if (computed != info_.checksum) {
        fail("trace: content checksum mismatch (header says " +
                 std::to_string(info_.checksum) + ", records hash to " +
                 std::to_string(computed) + ")",
             path_);
      }
    }
  } catch (const util::LpmError& e) {
    failure_ = e.code();
    failure_message_ = e.what();
    throw;
  }
  return produced;
}

void Lpm2Trace::reset() {
  chunk_ops_ = 0;
  chunk_pos_ = 0;
  read_ops_ = 0;
  running_ = util::Checksum64();
  verified_ = false;
  // A rewind clears the sticky failure: replay is deterministic, so a
  // corrupt file simply fails at the same record again.
  failure_ = util::ErrorCode::kNone;
  failure_message_.clear();
}

// --- whole-file helpers ------------------------------------------------------

TraceFileInfo inspect_trace(const std::string& path) {
  return Lpm2Trace(path).info();
}

TraceFileInfo verify_trace(const std::string& path) {
  Lpm2Trace reader(path);
  std::vector<MicroOp> ops(kIoBatchOps);
  while (reader.fill(ops.data(), ops.size()) == ops.size()) {
  }
  return reader.info();
}

WorkloadProfile trace_file_profile(const std::string& path, std::string name) {
  const TraceFileInfo info = inspect_trace(path);
  util::require(info.count >= 1, path, ": recorded trace is empty");
  WorkloadProfile wl;
  if (name.empty()) {
    const std::size_t slash = path.find_last_of('/');
    wl.name = slash == std::string::npos ? path : path.substr(slash + 1);
  } else {
    wl.name = std::move(name);
  }
  wl.trace_path = path;
  wl.trace_checksum = info.checksum;
  wl.length = info.count;
  return wl;
}

}  // namespace lpm::trace
