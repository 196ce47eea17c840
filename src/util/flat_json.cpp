#include "util/flat_json.hpp"

#include <charconv>
#include <cmath>

#include "util/table.hpp"

namespace lpm::util {

void JsonWriter::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

void JsonWriter::value(double v) {
  if (!std::isfinite(v)) {
    body_ += "null";
    return;
  }
  // std::to_chars in general format with precision 9 is printf's "%.9g".
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 9).ptr;
  body_.append(buf, end);
}

void JsonWriter::value(std::uint64_t v) { body_ += std::to_string(v); }

void JsonWriter::value(const JsonWriter& inner) {
  body_ += '{';
  body_ += inner.body_;
  body_ += '}';
}

JsonWriter& JsonWriter::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::num(const std::string& k, double v) {
  key(k);
  value(v);
  return *this;
}

JsonWriter& JsonWriter::num_u64(const std::string& k, std::uint64_t v) {
  key(k);
  value(v);
  return *this;
}

JsonWriter& JsonWriter::fixed(const std::string& k, double v, int digits) {
  key(k);
  body_ += std::isfinite(v) ? fmt(v, digits) : "null";
  return *this;
}

JsonWriter& JsonWriter::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::object(const std::string& k, const JsonWriter& inner) {
  key(k);
  value(inner);
  return *this;
}

JsonWriter& JsonWriter::raw_body(const std::string& fragment) {
  if (fragment.empty()) return *this;
  if (!body_.empty()) body_ += ',';
  body_ += fragment;
  return *this;
}

}  // namespace lpm::util
