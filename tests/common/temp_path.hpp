// Per-test, per-process temp file paths.
//
// gtest_discover_tests runs every TEST as its own process, and `ctest -j`
// runs those processes concurrently. A fixed leaf name under the temp
// directory is then shared by every process that uses it: one test
// truncates or deletes a file while another is still reading it. Paths
// built here carry the running test's full name and the pid, so no two
// test processes ever touch the same file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace lpm::test {

/// `<temp dir>/<Suite.Test>-<pid>-<leaf>`. Outside a running test the
/// name part is "global". Does not create or remove the file.
inline std::string temp_path(const std::string& leaf) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr ? std::string("global")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  for (char& c : tag) {
    if (c == '/') c = '_';  // parameterized suites and tests contain '/'
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + tag + "-" + std::to_string(::getpid()) + "-" + leaf;
}

}  // namespace lpm::test
