// Minimal key=value configuration store with typed, validated accessors.
//
// Used by examples and benches to override simulator parameters from the
// command line ("key=value" arguments) or from simple config files. Keys are
// case-sensitive; '#' starts a comment; blank lines ignored.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lpm::util {

class KvConfig {
 public:
  KvConfig() = default;

  /// Parses "key=value" lines from text. Throws LpmError on malformed lines.
  static KvConfig from_text(const std::string& text);

  /// Loads a config file. Throws LpmError if unreadable.
  static KvConfig from_file(const std::string& path);

  /// Parses command-line style args; non "k=v" tokens are collected as
  /// positional arguments.
  static KvConfig from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, const std::string& dflt) const;
  [[nodiscard]] std::int64_t get_int_or(const std::string& key, std::int64_t dflt) const;
  [[nodiscard]] std::uint64_t get_uint_or(const std::string& key, std::uint64_t dflt) const;
  [[nodiscard]] double get_double_or(const std::string& key, double dflt) const;
  [[nodiscard]] bool get_bool_or(const std::string& key, bool dflt) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::map<std::string, std::string>& entries() const { return entries_; }

  /// Keys that were set but never read; lets tools warn about typos.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

 private:
  std::map<std::string, std::string> entries_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> touched_;
};

/// Reads environment variable `name` as an unsigned decimal number; unset
/// or empty yields `dflt`. A sign, any other non-digit, a value that
/// overflows 64 bits or one above `max` throws util::ConfigError naming the
/// variable. The caller decides whether that stops the program.
[[nodiscard]] std::uint64_t env_u64(
    const char* name, std::uint64_t dflt,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace lpm::util
