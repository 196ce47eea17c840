// The LPM2 on-disk format's safety net: every truncation (at every byte
// offset) and every single-bit flip of the header, the checksum, and the
// record payload must surface as a typed util::IoError — never UB, an OOM,
// or a silently short MicroOp stream — and so must a file truncated or
// rewritten while a replay is reading it. Plus the units underneath: the
// streaming content checksum, the record codec, the Lpm2Trace reader, v1
// "LPMT" conversion and rejection, the file-backed profile/fingerprint
// identity, and the materialize() fill-contract enforcement.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/lpmt_file.hpp"
#include "common/temp_path.hpp"
#include "trace/lpm2.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_source.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace lpm::trace {
namespace {

// --- helpers ----------------------------------------------------------------

using test::temp_path;
using test::write_lpmt;

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const unsigned char* data,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
  ASSERT_TRUE(out.good()) << path;
}

/// A small deterministic op list that exercises every record field,
/// including the extremes the codec must carry losslessly.
std::vector<MicroOp> sample_ops(std::size_t n) {
  std::vector<MicroOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MicroOp op;
    op.type = static_cast<OpType>(i % 3);
    op.addr = (i == 1) ? ~0ull : i * 0x9e3779b9ull;
    op.dep_dist = static_cast<std::uint32_t>(i % 9);
    op.dep_dist2 = (i == 2) ? ~0u : static_cast<std::uint32_t>(i % 4);
    op.exec_latency = static_cast<std::uint8_t>(1 + i % 7);
    ops.push_back(op);
  }
  return ops;
}

/// Drains `src` in pulls of `pull` ops. Throws whatever the source throws.
std::vector<MicroOp> drain(TraceSource& src, std::size_t pull = 5) {
  std::vector<MicroOp> ops;
  std::vector<MicroOp> buf(pull);
  for (;;) {
    const std::size_t got = src.fill(buf.data(), buf.size());
    ops.insert(ops.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < buf.size()) break;
  }
  return ops;
}

/// Full drain of the file at `path` through a fresh reader.
std::vector<MicroOp> drain_file(const std::string& path) {
  Lpm2Trace src(path, "torture");
  return drain(src);
}

/// The ops `profile` generates, in order.
std::vector<MicroOp> generate(const WorkloadProfile& profile) {
  SyntheticTrace gen(profile);
  return materialize(gen, profile.length + 1);
}

/// The torture contract: `fn` must raise util::IoError — any other outcome
/// (no exception = a silently short/garbage stream, or an untyped/wrong
/// exception) is the bug this net exists to catch.
testing::AssertionResult raises_io_error(const std::function<void()>& fn) {
  try {
    fn();
    return testing::AssertionFailure() << "completed without an error";
  } catch (const util::IoError&) {
    return testing::AssertionSuccess();
  } catch (const std::exception& e) {
    return testing::AssertionFailure() << "raised a non-IoError: " << e.what();
  }
}

/// Asserts that a mutated file fails typed everywhere it can be consumed:
/// the offline verifier and a full replay drain.
testing::AssertionResult fails_everywhere_typed(const std::string& path) {
  if (auto r = raises_io_error([&] { (void)verify_trace(path); }); !r) {
    return testing::AssertionFailure() << "verify_trace: " << r.message();
  }
  if (auto r = raises_io_error([&] { (void)drain_file(path); }); !r) {
    return testing::AssertionFailure() << "drain: " << r.message();
  }
  return testing::AssertionSuccess();
}

// --- Checksum64 -------------------------------------------------------------

TEST(Checksum64, IncrementalMatchesOneShot) {
  std::vector<unsigned char> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  util::Checksum64 whole;
  whole.update(data.data(), data.size());

  // Every split point, including ones that land mid-word and force the
  // tail buffer to carry bytes across updates.
  for (const std::size_t cut : {0ul, 1ul, 7ul, 8ul, 9ul, 63ul, 256ul, 257ul}) {
    util::Checksum64 split;
    split.update(data.data(), cut);
    split.update(data.data() + cut, data.size() - cut);
    EXPECT_EQ(split.digest(), whole.digest()) << "cut at " << cut;
  }
}

TEST(Checksum64, DigestIsNonDestructiveAndNeverZero) {
  util::Checksum64 empty;
  EXPECT_NE(empty.digest(), 0u);
  EXPECT_EQ(empty.digest(), empty.digest());

  util::Checksum64 c;
  const unsigned char byte = 0;
  c.update(&byte, 1);
  const std::uint64_t first = c.digest();
  EXPECT_NE(first, 0u);
  // digest() must not consume state: more input still lands on top.
  c.update(&byte, 1);
  EXPECT_NE(c.digest(), first);
}

TEST(Checksum64, DistinguishesContentOrderAndLength) {
  const unsigned char a[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const unsigned char b[] = {1, 2, 3, 4, 5, 6, 7, 9, 8};
  util::Checksum64 ca;
  util::Checksum64 cb;
  util::Checksum64 cshort;
  ca.update(a, sizeof(a));
  cb.update(b, sizeof(b));
  cshort.update(a, sizeof(a) - 1);
  EXPECT_NE(ca.digest(), cb.digest());
  EXPECT_NE(ca.digest(), cshort.digest());
}

// --- record codec -----------------------------------------------------------

TEST(Lpm2Codec, RoundTripsEveryField) {
  for (const MicroOp& op : sample_ops(16)) {
    unsigned char buf[kLpm2RecordBytes];
    encode_record(op, buf);
    EXPECT_EQ(decode_record(buf), op);
  }
}

TEST(Lpm2Codec, RejectsInvalidTypeByte) {
  unsigned char buf[kLpm2RecordBytes] = {};
  encode_record(MicroOp{}, buf);
  buf[0] = static_cast<unsigned char>(OpType::kStore) + 1;
  EXPECT_THROW((void)decode_record(buf), util::IoError);
  buf[0] = 0xff;
  EXPECT_THROW((void)decode_record(buf), util::IoError);
}

// --- format round trip ------------------------------------------------------

TEST(Lpm2Format, RecordInspectVerifyAgree) {
  const std::string path = temp_path("lpm2_roundtrip.lpm2");
  const std::vector<MicroOp> ops = sample_ops(100);
  VectorTrace src("sample", ops);
  const std::uint64_t recorded = record_trace_v2(src, path);
  EXPECT_NE(recorded, 0u);

  const TraceFileInfo inspected = inspect_trace(path);
  EXPECT_EQ(inspected.version, kLpm2Version);
  EXPECT_EQ(inspected.count, ops.size());
  EXPECT_EQ(inspected.checksum, recorded);
  EXPECT_EQ(inspected.file_bytes,
            kLpm2HeaderBytes + ops.size() * kLpm2RecordBytes);

  const TraceFileInfo verified = verify_trace(path);
  EXPECT_EQ(verified.checksum, recorded);

  // And the replayed stream is the recorded stream.
  EXPECT_EQ(drain_file(path), ops);
  std::remove(path.c_str());
}

TEST(Lpm2Format, V1AndV2RecordingsShareTheContentChecksum) {
  // The two formats carry the same record layout, so converting a v1
  // recording must give the bytes, content checksum, and op stream of a
  // direct LPM2 recording of the same stream — that is what lets
  // fingerprints key on content alone. The stream spans several reader
  // chunks and ends mid-chunk.
  const std::string v1 = temp_path("same.lpmt");
  const std::string converted = temp_path("converted.lpm2");
  const std::string direct = temp_path("direct.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kGcc, 2 * kIoBatchOps + 77, 9);
  const std::vector<MicroOp> ops = generate(profile);
  write_lpmt(v1, ops);
  SyntheticTrace gen(profile);
  const std::uint64_t recorded = record_trace_v2(gen, direct);

  EXPECT_EQ(convert_lpmt_trace(v1, converted), recorded);
  EXPECT_EQ(read_file(converted), read_file(direct));
  EXPECT_EQ(verify_trace(converted).checksum, recorded);
  EXPECT_EQ(drain_file(converted), ops);
  std::remove(v1.c_str());
  std::remove(converted.c_str());
  std::remove(direct.c_str());
}

// Pins a recording byte for byte: the header checksum and an FNV-1a 64
// digest of the whole file of a 40,000-op SPEC-like trace (lpmbench's
// nuca length), which spans ten write batches and ends mid-batch.
TEST(Lpm2Format, RecordingBytesArePinned) {
  const std::string path = temp_path("pinned.lpm2");
  SyntheticTrace gen(spec_profile(SpecBenchmark::kMcf, 40000, 2026));
  EXPECT_EQ(record_trace_v2(gen, path), 0xd289a72ce2604e39ULL);
  const std::vector<unsigned char> bytes = read_file(path);
  EXPECT_EQ(bytes.size(), kLpm2HeaderBytes + 40000 * kLpm2RecordBytes);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(h, 0x82e89df06a0411dfULL);
  std::remove(path.c_str());
}

TEST(Lpm2Format, ConvertRejectsABadLpmtHeader) {
  const std::string v1 = temp_path("bad.lpmt");
  const std::string out = temp_path("bad_out.lpm2");
  const std::vector<MicroOp> ops = sample_ops(10);
  write_lpmt(v1, ops);
  std::vector<unsigned char> bytes = read_file(v1);

  // An LPM2 file is not an LPMT file.
  VectorTrace src("v2", ops);
  record_trace_v2(src, out);
  EXPECT_THROW((void)convert_lpmt_trace(out, temp_path("never.lpm2")), util::IoError);
  // Wrong version, and a count beyond the records present.
  bytes[4] = 2;
  write_file(v1, bytes.data(), bytes.size());
  EXPECT_THROW((void)convert_lpmt_trace(v1, out), util::IoError);
  bytes[4] = 1;
  bytes[8] = static_cast<unsigned char>(ops.size() + 1);
  write_file(v1, bytes.data(), bytes.size());
  EXPECT_THROW((void)convert_lpmt_trace(v1, out), util::IoError);
  EXPECT_THROW((void)convert_lpmt_trace(temp_path("missing.lpmt"), out),
               util::IoError);
  std::remove(v1.c_str());
  std::remove(out.c_str());
}

TEST(Lpm2Format, EmptyRecordingVerifiesButProfileRejectsIt) {
  const std::string path = temp_path("lpm2_empty.lpm2");
  const std::vector<MicroOp> none;
  VectorTrace src("empty", none);
  record_trace_v2(src, path);

  EXPECT_EQ(verify_trace(path).count, 0u);
  EXPECT_TRUE(drain_file(path).empty());
  // Nothing to simulate: the profile constructor refuses it loudly.
  EXPECT_THROW((void)trace_file_profile(path), util::ConfigError);
  std::remove(path.c_str());
}

// --- recorder failures ------------------------------------------------------

/// Threads of this process.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

struct SourceFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A synthetic stream that throws SourceFailure from the fill() that would
/// pass op `fail_at`.
class FailingSource final : public TraceSource {
 public:
  explicit FailingSource(std::uint64_t fail_at)
      : gen_(spec_profile(SpecBenchmark::kGcc, 40000, 3)), fail_at_(fail_at) {}
  bool next(MicroOp& op) override { return fill(&op, 1) == 1; }
  std::size_t fill(MicroOp* dst, std::size_t n) override {
    if (gen_.emitted() + n > fail_at_) throw SourceFailure("source failed");
    return gen_.fill(dst, n);
  }
  void reset() override { gen_.reset(); }
  [[nodiscard]] std::string name() const override { return "failing"; }

 private:
  SyntheticTrace gen_;
  std::uint64_t fail_at_;
};

TEST(Lpm2Recorder, SourceFailureLeavesNoFileAndNoHelper) {
  const std::size_t threads = thread_count();
  // On the first fill, and mid-stream with batches queued and written.
  for (const std::uint64_t fail_at :
       {std::uint64_t{0}, std::uint64_t{3 * kIoBatchOps + 100}}) {
    const std::string path = temp_path("failing.lpm2");
    FailingSource src(fail_at);
    EXPECT_THROW(record_trace_v2(src, path), SourceFailure) << fail_at;
    EXPECT_FALSE(std::filesystem::exists(path)) << fail_at;
    EXPECT_EQ(thread_count(), threads) << fail_at;
  }
}

TEST(Lpm2Recorder, UnwritablePathIsIoError) {
  const std::size_t threads = thread_count();
  const std::string path = temp_path("no-such-dir") + "/trace.lpm2";
  SyntheticTrace gen(spec_profile(SpecBenchmark::kGcc, 1000, 3));
  EXPECT_TRUE(raises_io_error([&] { (void)record_trace_v2(gen, path); }));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(thread_count(), threads);
}

// A write that fails on the helper thread (here: the file size limit)
// reaches the caller as util::IoError, and the partial file is removed.
TEST(Lpm2Recorder, WriteFailureMidStreamIsIoError) {
  const std::size_t threads = thread_count();
  const std::string path = temp_path("limited.lpm2");
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit limited = saved;
  limited.rlim_cur = 64 * 1024;  // the recording below is 720 KB
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  SyntheticTrace gen(spec_profile(SpecBenchmark::kMcf, 40000, 2026));
  const testing::AssertionResult raised =
      raises_io_error([&] { (void)record_trace_v2(gen, path); });
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_TRUE(raised);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(thread_count(), threads);
}

// --- corruption torture -----------------------------------------------------

class Lpm2Torture : public testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("torture.lpm2");
    mutant_ = temp_path("mutant.lpm2");
    ops_ = sample_ops(24);
    VectorTrace src("torture", ops_);
    record_trace_v2(src, path_);
    bytes_ = read_file(path_);
    ASSERT_EQ(bytes_.size(), kLpm2HeaderBytes + ops_.size() * kLpm2RecordBytes);
    // Control: the unmutated file is clean everywhere — without this, the
    // EXPECT_THROWs below could pass vacuously against a broken writer.
    ASSERT_EQ(verify_trace(path_).count, ops_.size());
    ASSERT_EQ(drain_file(path_), ops_);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutant_.c_str());
  }

  std::string path_;
  std::string mutant_;
  std::vector<MicroOp> ops_;
  std::vector<unsigned char> bytes_;
};

TEST_F(Lpm2Torture, TruncationAtEveryByteOffsetIsTypedIoError) {
  // A valid file's size is exactly header + count * record_bytes, so every
  // prefix — empty file, partial header, partial record, and even an exact
  // record boundary — must be rejected at open, before any decode.
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    write_file(mutant_, bytes_.data(), len);
    EXPECT_TRUE(raises_io_error([&] { (void)inspect_trace(mutant_); }))
        << "inspect_trace at length " << len;
    EXPECT_TRUE(raises_io_error([&] { (void)verify_trace(mutant_); }))
        << "verify_trace at length " << len;
    EXPECT_TRUE(raises_io_error([&] { Lpm2Trace t(mutant_); }))
        << "Lpm2Trace at length " << len;
  }
  // ...and so must a file with bytes appended past the declared count.
  std::vector<unsigned char> grown = bytes_;
  grown.push_back(0);
  write_file(mutant_, grown.data(), grown.size());
  EXPECT_TRUE(raises_io_error([&] { (void)inspect_trace(mutant_); }));
}

TEST_F(Lpm2Torture, EveryHeaderBitFlipIsTypedIoError) {
  // Magic, version, count, record size, and reserved flips die at parse
  // time; checksum flips survive the open and must instead fail the
  // verifier and the replay drain at end-of-stream.
  for (std::size_t offset = 0; offset < kLpm2HeaderBytes; ++offset) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> mutated = bytes_;
      mutated[offset] ^= static_cast<unsigned char>(1u << bit);
      write_file(mutant_, mutated.data(), mutated.size());
      EXPECT_TRUE(fails_everywhere_typed(mutant_))
          << "header offset " << offset << " bit " << bit;
    }
  }
}

TEST_F(Lpm2Torture, EveryRecordBitFlipIsTypedIoError) {
  // A type-byte flip may produce an out-of-range type (caught at decode) or
  // a different valid op; every other byte silently changes the payload. In
  // all cases the content checksum no longer matches the header, so the
  // verifier and a full drain must raise — a replay that "succeeds"
  // with different ops would poison every consumer downstream.
  for (std::size_t offset = kLpm2HeaderBytes; offset < bytes_.size(); ++offset) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> mutated = bytes_;
      mutated[offset] ^= static_cast<unsigned char>(1u << bit);
      write_file(mutant_, mutated.data(), mutated.size());
      EXPECT_TRUE(fails_everywhere_typed(mutant_))
          << "record offset " << offset << " bit " << bit;
    }
  }
}

TEST_F(Lpm2Torture, CorruptionFailureIsStickyUntilReset) {
  // Flip one checksum byte: the file opens (the header parses) but the
  // drain must fail at end-of-stream, stay failed on further calls, and —
  // because replay is deterministic — fail the same way again after reset().
  std::vector<unsigned char> mutated = bytes_;
  mutated[16] ^= 0x01;
  write_file(mutant_, mutated.data(), mutated.size());

  Lpm2Trace src(mutant_, "sticky");
  std::vector<MicroOp> buf(ops_.size() + 1);
  EXPECT_THROW((void)src.fill(buf.data(), buf.size()), util::IoError);
  MicroOp op;
  EXPECT_THROW((void)src.next(op), util::IoError) << "sticky";
  src.reset();
  EXPECT_THROW((void)src.fill(buf.data(), buf.size()), util::IoError)
      << "after reset";
}

// --- the reader -------------------------------------------------------------

TEST(Lpm2TraceEdges, ZeroFillAndExactExhaustion) {
  const std::string path = temp_path("edges.lpm2");
  const std::vector<MicroOp> ops = sample_ops(10);
  VectorTrace src("edges", ops);
  record_trace_v2(src, path);

  Lpm2Trace t(path, "edges");
  std::vector<MicroOp> buf(ops.size());
  EXPECT_EQ(t.fill(buf.data(), 0), 0u);
  // An exact-size request drains everything; the next call reports EOF.
  ASSERT_EQ(t.fill(buf.data(), buf.size()), ops.size());
  EXPECT_EQ(buf, ops);
  EXPECT_EQ(t.fill(buf.data(), buf.size()), 0u);
  MicroOp op;
  EXPECT_FALSE(t.next(op));
  std::remove(path.c_str());
}

TEST(TraceFile, RoundTripPreservesEveryField) {
  const std::string path = temp_path("roundtrip.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kMcf, 2000, 3);
  SyntheticTrace src(profile);
  record_trace_v2(src, path);

  Lpm2Trace loaded(path);
  EXPECT_EQ(loaded.info().count, 2000u);
  // MicroOp's operator== compares every field.
  EXPECT_EQ(drain(loaded, 333), generate(profile));
  std::remove(path.c_str());
}

TEST(TraceFile, ReplaysAndResets) {
  const std::string path = temp_path("replay.lpm2");
  SyntheticTrace src(spec_profile(SpecBenchmark::kHmmer, 500, 9));
  record_trace_v2(src, path);

  Lpm2Trace ft(path, "hmmer-file");
  EXPECT_EQ(ft.info().count, 500u);
  EXPECT_EQ(ft.name(), "hmmer-file");
  MicroOp op;
  std::uint64_t n = 0;
  while (ft.next(op)) ++n;
  EXPECT_EQ(n, 500u);
  ft.reset();
  EXPECT_TRUE(ft.next(op));
  std::remove(path.c_str());
}

TEST(TraceFile, MissingFileThrows) {
  EXPECT_THROW(Lpm2Trace("/nonexistent/trace.lpm2"), util::IoError);
}

TEST(TraceFile, BadMagicThrows) {
  const std::string path = temp_path("badmagic.lpm2");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE garbage, long enough to hold a whole header";
  }
  EXPECT_THROW(Lpm2Trace{path}, util::IoError);
  std::remove(path.c_str());
}

TEST(TraceFile, TruncatedFileThrows) {
  const std::string path = temp_path("trunc.lpm2");
  SyntheticTrace src(spec_profile(SpecBenchmark::kSjeng, 100, 1));
  record_trace_v2(src, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(Lpm2Trace{path}, util::IoError);
  std::remove(path.c_str());
}

TEST(TraceFile, CorruptCountFailsTypedBeforeAllocation) {
  const std::string path = temp_path("bigcount.lpm2");
  SyntheticTrace src(spec_profile(SpecBenchmark::kGcc, 10, 1));
  record_trace_v2(src, path);
  // Overwrite the u64 count at offset 8 with a ludicrous value. The reader
  // must compare it against the file size and throw a typed IoError — not
  // size anything by it.
  {
    std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(8);
    const unsigned char huge[8] = {0xff, 0xff, 0xff, 0xff,
                                   0xff, 0xff, 0xff, 0x7f};
    out.write(reinterpret_cast<const char*>(huge), sizeof(huge));
  }
  EXPECT_THROW(Lpm2Trace{path}, util::IoError);
  std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceIsValid) {
  const std::string path = temp_path("empty.lpm2");
  VectorTrace empty("none", {});
  record_trace_v2(empty, path);
  Lpm2Trace t(path);
  EXPECT_EQ(t.info().count, 0u);
  MicroOp op;
  EXPECT_FALSE(t.next(op));
  std::remove(path.c_str());
}

TEST(OpenTraceDispatch, SniffsMagicAndRejectsGarbage) {
  // One reader, one format: LPM2 opens, a v1 LPMT file is refused at every
  // entry point with an error naming the convert command, and anything
  // else is a typed IoError.
  const std::string v1 = temp_path("dispatch.lpmt");
  const std::string v2 = temp_path("dispatch.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kMcf, 300, 5);
  write_lpmt(v1, generate(profile));
  SyntheticTrace gen(profile);
  record_trace_v2(gen, v2);
  EXPECT_EQ(Lpm2Trace(v2).info().count, 300u);

  const std::vector<std::function<void()>> entry_points = {
      [&] { Lpm2Trace t(v1); },
      [&] { (void)inspect_trace(v1); },
      [&] { (void)verify_trace(v1); },
      [&] { (void)trace_file_profile(v1); },
  };
  for (const auto& open_v1 : entry_points) {
    try {
      open_v1();
      ADD_FAILURE() << "a v1 LPMT file opened";
    } catch (const util::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("lpm_trace convert lpmt="),
                std::string::npos)
          << e.what();
    }
  }

  EXPECT_THROW(Lpm2Trace{temp_path("missing.lpm2")}, util::IoError);
  const std::string junk = temp_path("junk.bin");
  const unsigned char garbage[] = {'J', 'U', 'N', 'K', 0, 0, 0, 0};
  write_file(junk, garbage, sizeof(garbage));
  EXPECT_THROW(Lpm2Trace{junk}, util::IoError);
  std::remove(junk.c_str());
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

// --- a file that changes under a live replay --------------------------------

/// A recording several reader chunks long; each test opens a reader, pulls
/// a prefix (so the first chunk is read), then changes the file.
class Lpm2LiveMutation : public testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("live.lpm2");
    profile_ = spec_profile(SpecBenchmark::kLibquantum, 3 * kIoBatchOps + 100, 31);
    SyntheticTrace gen(profile_);
    record_trace_v2(gen, path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  WorkloadProfile profile_;
};

TEST_F(Lpm2LiveMutation, TruncationDuringReplayIsTypedIoError) {
  // The next chunk read comes up short. A reader that mapped the file
  // would take SIGBUS here instead.
  Lpm2Trace src(path_, "live");
  std::vector<MicroOp> prefix(100);
  ASSERT_EQ(src.fill(prefix.data(), prefix.size()), prefix.size());
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);

  EXPECT_TRUE(raises_io_error([&] { (void)drain(src, 1000); }));
  EXPECT_TRUE(raises_io_error([&] {
    MicroOp op;
    (void)src.next(op);
  })) << "the failure is sticky";
}

TEST_F(Lpm2LiveMutation, SameSizeRewriteDuringReplayFailsTheChecksum) {
  // Another stream of the same length overwrites the records in place:
  // every later read succeeds, so only the end-of-stream checksum can tell.
  Lpm2Trace src(path_, "live");
  std::vector<MicroOp> prefix(100);
  ASSERT_EQ(src.fill(prefix.data(), prefix.size()), prefix.size());

  const std::string other = temp_path("other.lpm2");
  WorkloadProfile other_profile = profile_;
  other_profile.seed += 1;
  SyntheticTrace gen(other_profile);
  record_trace_v2(gen, other);
  const std::vector<unsigned char> bytes = read_file(other);
  std::remove(other.c_str());
  ASSERT_EQ(bytes.size(), std::filesystem::file_size(path_));
  {
    std::fstream out(path_, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(kLpm2HeaderBytes);
    out.write(reinterpret_cast<const char*>(bytes.data() + kLpm2HeaderBytes),
              static_cast<std::streamsize>(bytes.size() - kLpm2HeaderBytes));
    ASSERT_TRUE(out.good());
  }

  try {
    (void)drain(src, 1000);
    ADD_FAILURE() << "a rewritten file replayed without an error";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos)
        << e.what();
  }
}

// --- materialize(): the fill() contract is enforced, not trusted ------------

/// Claims more ops than were requested — the "scribbled past the buffer"
/// bug materialize() must refuse to propagate. (It writes only the legal
/// region; the lie is in the return value.)
class OverReportingSource final : public TraceSource {
 public:
  bool next(MicroOp&) override { return false; }
  std::size_t fill(MicroOp* dst, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) dst[i] = MicroOp{};
    return n + 1;
  }
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "over-reporter"; }
};

/// Returns one op per call forever — a short count that never reaches zero.
/// Under the fill() contract a short count means EOF, so materialize() must
/// stop after the first one instead of spinning on the source.
class DribblingSource final : public TraceSource {
 public:
  bool next(MicroOp& op) override {
    op = MicroOp{};
    return true;
  }
  std::size_t fill(MicroOp* dst, std::size_t n) override {
    ++calls_;
    if (n == 0) return 0;
    dst[0] = MicroOp{};
    return 1;
  }
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "dribbler"; }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  std::size_t calls_ = 0;
};

TEST(Materialize, OverReportingSourceThrowsSimError) {
  OverReportingSource src;
  EXPECT_THROW((void)materialize(src, 64), util::SimError);
}

TEST(Materialize, ShortReturningSourceTerminatesAfterOneCall) {
  DribblingSource src;
  const std::vector<MicroOp> ops = materialize(src, 1000);
  EXPECT_EQ(ops.size(), 1u);
  EXPECT_EQ(src.calls(), 1u);
}

TEST(Materialize, ExhaustedSourceYieldsEmpty) {
  const std::vector<MicroOp> empty_ops;
  VectorTrace src("empty", empty_ops);
  EXPECT_TRUE(materialize(src, 100).empty());
}

// --- file-backed profiles + fingerprint identity ----------------------------

TEST(FileBackedProfile, ProbesTheHeaderAndValidates) {
  const std::string path = temp_path("profile_probe.lpm2");
  SyntheticTrace gen(spec_profile(SpecBenchmark::kSoplex, 400, 21));
  const std::uint64_t recorded = record_trace_v2(gen, path);

  const WorkloadProfile wl = trace_file_profile(path);
  EXPECT_TRUE(wl.file_backed());
  EXPECT_EQ(wl.trace_path, path);
  EXPECT_EQ(wl.trace_checksum, recorded);
  EXPECT_EQ(wl.length, 400u);
  EXPECT_EQ(wl.name, std::filesystem::path(path).filename());  // basename default
  wl.validate();

  // A file-backed profile cannot drive the synthetic generator.
  EXPECT_THROW(SyntheticTrace reject(wl), util::ConfigError);
  std::remove(path.c_str());
}

TEST(FileBackedProfile, FingerprintKeysOnContentNotPath) {
  // The same stream recorded at two paths — one of them converted from a
  // v1 recording — must fingerprint identically (memo caches key on what
  // the bytes replay, not where they sit); a different stream must not.
  const std::string a = temp_path("fp_a.lpm2");
  const std::string v1 = temp_path("fp_b.lpmt");
  const std::string b = temp_path("fp_b.lpm2");
  const std::string c = temp_path("fp_c.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kLeslie3d, 600, 13);
  {
    SyntheticTrace gen(profile);
    record_trace_v2(gen, a);
  }
  write_lpmt(v1, generate(profile));
  convert_lpmt_trace(v1, b);
  {
    SyntheticTrace gen(spec_profile(SpecBenchmark::kLeslie3d, 600, 14));
    record_trace_v2(gen, c);
  }
  const std::uint64_t fa = util::fingerprint(trace_file_profile(a, "same"));
  const std::uint64_t fb = util::fingerprint(trace_file_profile(b, "same"));
  const std::uint64_t fc = util::fingerprint(trace_file_profile(c, "same"));
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, fc);
  for (const std::string& path : {a, v1, b, c}) std::remove(path.c_str());
}

TEST(FileBackedProfile, MakeTraceReplaysAndGuardsAgainstFileChanges) {
  const std::string path = temp_path("make_trace_guard.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kMilc, 500, 3);
  std::vector<MicroOp> expected;
  {
    SyntheticTrace gen(profile);
    MicroOp op;
    while (gen.next(op)) expected.push_back(op);
  }
  {
    SyntheticTrace gen(profile);
    record_trace_v2(gen, path);
  }
  const WorkloadProfile wl = trace_file_profile(path);

  const TraceSourcePtr replay = make_trace(wl);
  EXPECT_EQ(materialize(*replay, expected.size() + 1), expected);

  // Overwrite the file with a different recording: the profile's checksum
  // no longer matches what is on disk, so make_trace must refuse — this is
  // the guard that keeps checksum-keyed memo caches honest.
  SyntheticTrace other(spec_profile(SpecBenchmark::kMilc, 500, 4));
  record_trace_v2(other, path);
  EXPECT_THROW((void)make_trace(wl), util::IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lpm::trace
