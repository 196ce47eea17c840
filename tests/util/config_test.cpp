#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace lpm::util {
namespace {

TEST(KvConfig, ParsesTextWithCommentsAndBlanks) {
  const auto cfg = KvConfig::from_text(R"(
# a comment
cores = 16
name= bwaves   # trailing comment
ratio =1.5
flag=true
)");
  EXPECT_EQ(cfg.get_uint_or("cores", 0), 16u);
  EXPECT_EQ(cfg.get_or("name", ""), "bwaves");
  EXPECT_DOUBLE_EQ(cfg.get_double_or("ratio", 0.0), 1.5);
  EXPECT_TRUE(cfg.get_bool_or("flag", false));
}

TEST(KvConfig, MalformedLineThrows) {
  EXPECT_THROW(KvConfig::from_text("novalue\n"), LpmError);
  EXPECT_THROW(KvConfig::from_text("=3\n"), LpmError);
}

TEST(KvConfig, DefaultsWhenMissing) {
  const KvConfig cfg;
  EXPECT_EQ(cfg.get_int_or("x", -7), -7);
  EXPECT_EQ(cfg.get_or("y", "dflt"), "dflt");
  EXPECT_FALSE(cfg.get_bool_or("z", false));
  EXPECT_FALSE(cfg.has("x"));
}

TEST(KvConfig, TypeErrorsThrow) {
  auto cfg = KvConfig::from_text("n=abc\nd=1.2.3\nb=maybe\nneg=-1\n");
  EXPECT_THROW(cfg.get_int_or("n", 0), LpmError);
  EXPECT_THROW(cfg.get_double_or("d", 0.0), LpmError);
  EXPECT_THROW(cfg.get_bool_or("b", false), LpmError);
  EXPECT_THROW(cfg.get_uint_or("neg", 0), LpmError);
}

TEST(KvConfig, BooleanSpellings) {
  auto cfg = KvConfig::from_text("a=YES\nb=off\nc=1\nd=False\n");
  EXPECT_TRUE(cfg.get_bool_or("a", false));
  EXPECT_FALSE(cfg.get_bool_or("b", true));
  EXPECT_TRUE(cfg.get_bool_or("c", false));
  EXPECT_FALSE(cfg.get_bool_or("d", true));
}

TEST(KvConfig, FromArgsSplitsPositional) {
  const char* argv[] = {"prog", "runs=3", "positional", "x=y"};
  const auto cfg = KvConfig::from_args(4, argv);
  EXPECT_EQ(cfg.get_uint_or("runs", 0), 3u);
  EXPECT_EQ(cfg.get_or("x", ""), "y");
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "positional");
}

TEST(KvConfig, UnusedKeysTracksReads) {
  auto cfg = KvConfig::from_text("used=1\nunused=2\n");
  (void)cfg.get_int_or("used", 0);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

TEST(KvConfig, MissingFileThrows) {
  EXPECT_THROW(KvConfig::from_file("/nonexistent/path/cfg.txt"), LpmError);
}

TEST(KvConfig, SetOverwrites) {
  KvConfig cfg;
  cfg.set("k", "1");
  cfg.set("k", "2");
  EXPECT_EQ(cfg.get_int_or("k", 0), 2);
}

TEST(EnvU64, AcceptsOnlyPlainUnsignedDecimals) {
  constexpr const char* kName = "LPM_TEST_ENV_U64";
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  struct Case {
    const char* text;  ///< nullptr = unset
    std::uint64_t max;
    std::optional<std::uint64_t> want;  ///< nullopt = ConfigError
  };
  const Case cases[] = {
      {nullptr, kU64Max, 7},
      {"", kU64Max, 7},
      {"0", kU64Max, 0},
      {"42", kU64Max, 42},
      {"18446744073709551615", kU64Max, kU64Max},
      {"18446744073709551616", kU64Max, std::nullopt},  // overflows
      {"-1", kU64Max, std::nullopt},
      {"+1", kU64Max, std::nullopt},
      {" 1", kU64Max, std::nullopt},
      {"4x", kU64Max, std::nullopt},
      {"0x10", kU64Max, std::nullopt},
      {"4294967295", kU32Max, kU32Max},
      {"4294967296", kU32Max, std::nullopt},  // does not fit the field
  };
  for (const Case& c : cases) {
    const std::string label = c.text == nullptr ? "(unset)" : c.text;
    if (c.text == nullptr) {
      ::unsetenv(kName);
    } else {
      ::setenv(kName, c.text, 1);
    }
    if (c.want) {
      EXPECT_EQ(env_u64(kName, 7, c.max), *c.want) << label;
    } else {
      try {
        (void)env_u64(kName, 7, c.max);
        ADD_FAILURE() << label << " was accepted";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(kName), std::string::npos)
            << e.what();
      }
    }
  }
  ::unsetenv(kName);
}

}  // namespace
}  // namespace lpm::util
