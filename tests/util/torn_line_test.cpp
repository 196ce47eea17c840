// Torn-line healing shared by the ResultSink files and lpmd's job journal:
// a crash mid-append leaves one partial final line, which is cut off.
#include "util/torn_line.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/temp_path.hpp"

namespace lpm::util {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = test::temp_path(name);
  std::filesystem::remove(path);
  return path;
}

TEST(FaultInjection, TrimPartialLastLineCountsBytes) {
  const std::string path = temp_path("lpm_trim.log");
  {
    std::ofstream out(path, std::ios::binary);
    out << "complete line\npartial";
  }
  EXPECT_EQ(trim_partial_last_line(path), 7u);
  EXPECT_EQ(std::filesystem::file_size(path), 14u);
  EXPECT_EQ(trim_partial_last_line(path), 0u) << "clean file untouched";
  EXPECT_EQ(trim_partial_last_line(temp_path("lpm_absent.log")), 0u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lpm::util
