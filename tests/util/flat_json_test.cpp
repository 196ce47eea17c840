#include "util/flat_json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace lpm::util {
namespace {

TEST(FlatJson, ParsesEveryValueKind) {
  const auto json = FlatJson::parse(
      R"({"name":"perf","count":42,"rate":-1.5e3,"ok":true,"off":false,"gone":null})");
  EXPECT_EQ(json.size(), 6u);
  EXPECT_EQ(json.get_string("name"), "perf");
  EXPECT_EQ(json.get_number("count"), 42.0);
  EXPECT_EQ(json.get_number("rate"), -1500.0);
  EXPECT_EQ(json.get_bool("ok"), true);
  EXPECT_EQ(json.get_bool("off"), false);
  EXPECT_TRUE(json.has("gone"));
  EXPECT_FALSE(json.get_number("gone").has_value());
}

TEST(FlatJson, TypeMismatchesComeBackEmpty) {
  const auto json = FlatJson::parse(R"({"a":"text","b":1})");
  EXPECT_FALSE(json.get_number("a").has_value());
  EXPECT_FALSE(json.get_string("b").has_value());
  EXPECT_FALSE(json.get_string("missing").has_value());
}

TEST(FlatJson, DecodesEscapes) {
  const auto json = FlatJson::parse(
      "{\"s\":\"a\\\"b\\\\c\\nd\\te\",\"ctrl\":\"\\u0007x\"}");
  EXPECT_EQ(json.get_string("s"), "a\"b\\c\nd\te");
  EXPECT_EQ(json.get_string("ctrl"), "\x07x");
}

TEST(FlatJson, AcceptsWhitespaceAndEmptyObject) {
  EXPECT_EQ(FlatJson::parse("{}").size(), 0u);
  const auto json = FlatJson::parse("  { \"a\" : 1 ,\n \"b\" : 2 }  ");
  EXPECT_EQ(json.get_number("a"), 1.0);
  EXPECT_EQ(json.get_number("b"), 2.0);
}

TEST(FlatJson, RejectsMalformedAndNested) {
  EXPECT_THROW(FlatJson::parse(""), LpmError);
  EXPECT_THROW(FlatJson::parse("plain"), LpmError);
  EXPECT_THROW(FlatJson::parse(R"({"a":1)"), LpmError);
  EXPECT_THROW(FlatJson::parse(R"({"a":{"b":1}})"), LpmError);
  EXPECT_THROW(FlatJson::parse(R"({"a":[1,2]})"), LpmError);
  EXPECT_THROW(FlatJson::parse(R"({"a":bogus})"), LpmError);
}

TEST(JsonEscape, EscapesSpecialsAndPassesUtf8Through) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
  const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x99\x82";
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, RoundTripsThroughFlatJson) {
  const std::string value = std::string("q\"b\\n\nr\rt\tc\x01\x1f ") +
                            "caf\xc3\xa9 \xe2\x86\x92";
  const std::string key = "k\"\\\x02";
  const auto json = FlatJson::parse("{\"" + json_escape(key) + "\":\"" +
                                    json_escape(value) + "\"}");
  EXPECT_EQ(json.get_string(key), value);
}

TEST(JsonWriter, FixedNumberTextIsUtilFmt) {
  JsonWriter out;
  out.fixed("ipc", 1.23456789, 6).fixed("ms", 12.3456, 3).fixed("n", -2.0, 0);
  EXPECT_EQ(out.finish(), R"({"ipc":1.234568,"ms":12.346,"n":-2})");
  EXPECT_EQ(JsonWriter().fixed("v", 0.1, 4).finish(),
            "{\"v\":" + fmt(0.1, 4) + "}");
}

TEST(JsonWriter, NumbersUseNineSignificantDigits) {
  JsonWriter out;
  out.num("a", 0.1).num("b", 1.0 / 3.0).num("c", 1e20).num_u64(
      "d", 18446744073709551615ull);
  EXPECT_EQ(out.finish(),
            R"({"a":0.1,"b":0.333333333,"c":1e+20,"d":18446744073709551615})");
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  JsonWriter out;
  out.num("nan", nan).num("inf", inf).num("ninf", -inf).fixed("fixed", nan, 3)
      .array("bounds", std::vector<double>{1.0, inf});
  EXPECT_EQ(out.finish(),
            R"({"nan":null,"inf":null,"ninf":null,"fixed":null,)"
            R"("bounds":[1,null]})");
  const auto flat = FlatJson::parse(JsonWriter().num("x", inf).finish());
  EXPECT_TRUE(flat.has("x"));
  EXPECT_FALSE(flat.get_number("x").has_value());
}

TEST(JsonWriter, ObjectSpliceNestsAWriterIncludingAnEmptyOne) {
  JsonWriter inner;
  inner.num_u64("hits", 3).str("name", "l1");
  JsonWriter out;
  out.object("stats", inner).object("none", JsonWriter()).boolean("ok", true);
  EXPECT_EQ(out.finish(),
            R"({"stats":{"hits":3,"name":"l1"},"none":{},"ok":true})");
}

TEST(JsonWriter, ArraySpliceWritesNumbersAndObjectsIncludingEmptyOnes) {
  std::vector<JsonWriter> points(2);
  points[0].num_u64("l1", 32);
  JsonWriter out;
  out.array("bounds", std::vector<double>{0.5, 2.0})
      .array("counts", std::vector<std::uint64_t>{1, 2, 3})
      .array("points", points)
      .array("empty", std::vector<double>{})
      .array("no_objects", std::vector<JsonWriter>{});
  EXPECT_EQ(out.finish(),
            R"({"bounds":[0.5,2],"counts":[1,2,3],"points":[{"l1":32},{}],)"
            R"("empty":[],"no_objects":[]})");
}

TEST(JsonWriter, EscapedKeysAndValuesStayOnOneLine) {
  JsonWriter inner;
  inner.str("a\nb", "c\\d");
  JsonWriter out;
  out.str("k\"\\\n", "v\"\\\nx").object("o\n", inner);
  const std::string text = out.finish();
  EXPECT_EQ(text, R"({"k\"\\\n":"v\"\\\nx","o\n":{"a\nb":"c\\d"}})");
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_EQ(FlatJson::parse(JsonWriter().str("k\"\\\n", "v\"\\\nx").finish())
                .get_string("k\"\\\n"),
            "v\"\\\nx");
}

}  // namespace
}  // namespace lpm::util
