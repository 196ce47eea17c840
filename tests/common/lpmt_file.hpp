// Builds v1 "LPMT" trace files for tests. The library no longer writes
// LPMT (it only converts it to LPM2), so tests that exercise the
// conversion path write the old layout by hand.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/lpm2.hpp"
#include "trace/trace_source.hpp"

namespace lpm::test {

/// Writes `ops` as a v1 "LPMT" file: "LPMT" | u32 1 | u64 count | records,
/// with the LPM2 record layout.
inline void write_lpmt(const std::string& path,
                       const std::vector<trace::MicroOp>& ops) {
  std::vector<unsigned char> bytes(16 + ops.size() * trace::kLpm2RecordBytes);
  const unsigned char head[16] = {'L', 'P', 'M', 'T', 1, 0, 0, 0};
  std::copy(std::begin(head), std::end(head), bytes.begin());
  for (int i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<unsigned char>(ops.size() >> (8 * i));
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    trace::encode_record(ops[i], bytes.data() + 16 + i * trace::kLpm2RecordBytes);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

}  // namespace lpm::test
