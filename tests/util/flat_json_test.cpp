#include "util/flat_json.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace lpm::util
