#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "util/flat_json.hpp"
#include "util/rng.hpp"

namespace lpm::util {
namespace {

TEST(AsciiTable, RendersHeaderAndRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bee", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_NE(s.find("+"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(AsciiTable, PadsShortRows) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"1"});
  const std::string s = t.to_string();
  // Rendering must not crash and must contain the lone cell.
  EXPECT_NE(s.find("1"), std::string::npos);
}

TEST(AsciiTable, FormatHelpers) {
  EXPECT_EQ(AsciiTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(AsciiTable::fmt(0.5, 0), "0");  // rounds to even/away per iostream
}

/// The stream form util::fmt(double, int) must reproduce byte for byte.
std::string stream_fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::vector<double> awkward_values() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0, -0.0, 1.0, -1.0, -2.5, -0.0004, -123.456,
          // Decimal ties, and binary values just either side of them.
          0.5, 1.5, 2.5, -0.5, 0.125, 0.375, 1.0005, 2.675, 0.0625, 1e-3 / 2,
          // Huge: many integer digits, up to the largest double.
          1e15, 123456789012345678.0, 1e100, -1e200, 1e300,
          std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
          // Tiny: round to zero, or to one unit of the last place.
          1e-9, -1e-9, 4.9e-7, 5e-7, std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min(),
          // Not finite.
          inf, -inf, nan, -nan};
}

TEST(UtilFmt, MatchesTheFixedStreamForm) {
  for (const double v : awkward_values()) {
    for (const int precision : {0, 1, 2, 3, 4, 6, 9, 17}) {
      EXPECT_EQ(fmt(v, precision), stream_fixed(v, precision))
          << "v=" << v << " precision=" << precision;
    }
  }
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    const double v = (rng.next_double() - 0.5) *
                     std::pow(10.0, static_cast<double>(rng.next_in(0, 24)) - 12.0);
    const int precision = static_cast<int>(rng.next_in(0, 9));
    ASSERT_EQ(fmt(v, precision), stream_fixed(v, precision))
        << "v=" << v << " precision=" << precision;
  }
}

TEST(UtilFmt, JsonNumbersMatchPercentNineG) {
  const auto printf_g9 = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  Rng rng(7);
  std::vector<double> values = awkward_values();
  for (int i = 0; i < 2000; ++i) {
    values.push_back((rng.next_double() - 0.5) *
                     std::pow(10.0, static_cast<double>(rng.next_in(0, 40)) - 20.0));
  }
  for (const double v : values) {
    if (!std::isfinite(v)) continue;  // written as null
    ASSERT_EQ(JsonWriter().num("v", v).finish(), "{\"v\":" + printf_g9(v) + "}")
        << "v=" << v;
  }
}

TEST(AsciiTable, CsvEscapesSpecials) {
  AsciiTable t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(AsciiTable, CsvHeaderFirst) {
  AsciiTable t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv.substr(0, 4), "x,y\n");
}

}  // namespace
}  // namespace lpm::util
