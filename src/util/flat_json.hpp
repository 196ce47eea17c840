// json_escape, the one JSON string escaper of the repo (ResultSink JSON
// lines and the lpmd wire protocol both write through it), and a minimal
// parser for *flat* JSON objects — a single `{...}` whose values
// are strings, numbers, booleans or null (no nesting). That is exactly the
// shape of the repo's machine-readable outputs (ResultSink JSON lines,
// bench/perf's BENCH_simulator.json), and keeping the parser this small
// means those files can be read back without a JSON dependency.
//
// Tolerant where it is safe (whitespace, key order, unknown keys), strict
// where it matters (malformed syntax throws util::LpmError rather than
// guessing).
#pragma once

#include <cctype>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace lpm::util {

/// Escapes `s` for use inside a JSON string literal: quote, backslash,
/// \n, \r and \t by name, every other control byte as \u00XX. Bytes
/// >= 0x20 (UTF-8 sequences included) pass through unchanged, so
/// FlatJson::parse reads back exactly `s`.
[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class FlatJson {
 public:
  /// Parses one flat JSON object. Throws LpmError on malformed input or on
  /// nested containers.
  [[nodiscard]] static FlatJson parse(const std::string& text) {
    FlatJson json;
    std::size_t pos = 0;
    skip_ws(text, pos);
    expect(text, pos, '{');
    skip_ws(text, pos);
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return json;
    }
    while (true) {
      skip_ws(text, pos);
      const std::string key = parse_string(text, pos);
      skip_ws(text, pos);
      expect(text, pos, ':');
      skip_ws(text, pos);
      json.values_[key] = parse_value(text, pos);
      skip_ws(text, pos);
      if (pos >= text.size()) throw LpmError("FlatJson: unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      expect(text, pos, '}');
      break;
    }
    return json;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// All keys present, sorted (std::map order) — lets catalogue-style
  /// tests enumerate a frame's vocabulary without knowing it up front.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& [key, value] : values_) out.push_back(key);
    return out;
  }

  [[nodiscard]] std::optional<std::string> get_string(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.kind != Kind::kString) return std::nullopt;
    return it->second.text;
  }

  [[nodiscard]] std::optional<double> get_number(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.kind != Kind::kNumber) return std::nullopt;
    return it->second.number;
  }

  [[nodiscard]] std::optional<bool> get_bool(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.kind != Kind::kBool) return std::nullopt;
    return it->second.boolean;
  }

 private:
  enum class Kind { kString, kNumber, kBool, kNull };
  struct Value {
    Kind kind = Kind::kNull;
    std::string text;
    double number = 0.0;
    bool boolean = false;
  };

  static void skip_ws(const std::string& s, std::size_t& pos) {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
      ++pos;
    }
  }

  static void expect(const std::string& s, std::size_t& pos, char c) {
    if (pos >= s.size() || s[pos] != c) {
      throw LpmError(std::string("FlatJson: expected '") + c + "' at offset " +
                     std::to_string(pos));
    }
    ++pos;
  }

  static std::string parse_string(const std::string& s, std::size_t& pos) {
    expect(s, pos, '"');
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= s.size()) break;
      const char esc = s[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > s.size()) throw LpmError("FlatJson: truncated \\u escape");
          const unsigned code =
              static_cast<unsigned>(std::stoul(s.substr(pos, 4), nullptr, 16));
          pos += 4;
          // Our writers only escape control characters; anything else in
          // the BMP is emitted raw, so a plain truncation to char suffices.
          out += static_cast<char>(code);
          break;
        }
        default: throw LpmError("FlatJson: unknown escape");
      }
    }
    expect(s, pos, '"');
    return out;
  }

  static Value parse_value(const std::string& s, std::size_t& pos) {
    Value v;
    if (pos >= s.size()) throw LpmError("FlatJson: missing value");
    const char c = s[pos];
    if (c == '"') {
      v.kind = Kind::kString;
      v.text = parse_string(s, pos);
      return v;
    }
    if (c == '{' || c == '[') {
      throw LpmError("FlatJson: nested containers are not supported");
    }
    if (s.compare(pos, 4, "true") == 0) {
      v.kind = Kind::kBool;
      v.boolean = true;
      pos += 4;
      return v;
    }
    if (s.compare(pos, 5, "false") == 0) {
      v.kind = Kind::kBool;
      v.boolean = false;
      pos += 5;
      return v;
    }
    if (s.compare(pos, 4, "null") == 0) {
      v.kind = Kind::kNull;
      pos += 4;
      return v;
    }
    std::size_t end = pos;
    while (end < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[end])) != 0 ||
            s[end] == '-' || s[end] == '+' || s[end] == '.' || s[end] == 'e' ||
            s[end] == 'E')) {
      ++end;
    }
    if (end == pos) throw LpmError("FlatJson: unrecognised value");
    try {
      v.number = std::stod(s.substr(pos, end - pos));
    } catch (const std::exception&) {
      throw LpmError("FlatJson: bad number literal");
    }
    v.kind = Kind::kNumber;
    pos = end;
    return v;
  }

  std::map<std::string, Value> values_;
};

}  // namespace lpm::util
