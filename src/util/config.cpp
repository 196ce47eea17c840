#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace lpm::util {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

KvConfig KvConfig::from_text(const std::string& text) {
  KvConfig cfg;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    require(eq != std::string::npos,
            "KvConfig: malformed line " + std::to_string(lineno) + ": " + line);
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    require(!key.empty(), "KvConfig: empty key on line " + std::to_string(lineno));
    cfg.set(key, value);
  }
  return cfg;
}

KvConfig KvConfig::from_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "KvConfig: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_text(ss.str());
}

KvConfig KvConfig::from_args(int argc, const char* const* argv) {
  KvConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(arg);
    } else {
      cfg.set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)));
    }
  }
  return cfg;
}

void KvConfig::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
  touched_[key] = false;
}

bool KvConfig::has(const std::string& key) const { return entries_.count(key) > 0; }

std::optional<std::string> KvConfig::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  touched_[key] = true;
  return it->second;
}

std::string KvConfig::get_or(const std::string& key, const std::string& dflt) const {
  return get(key).value_or(dflt);
}

std::int64_t KvConfig::get_int_or(const std::string& key, std::int64_t dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(*v, &pos);
    require(pos == v->size(), "KvConfig: trailing characters in integer for key " + key);
    return out;
  } catch (const std::exception&) {
    throw LpmError("KvConfig: key '" + key + "' is not an integer: " + *v);
  }
}

std::uint64_t KvConfig::get_uint_or(const std::string& key, std::uint64_t dflt) const {
  const std::int64_t v = get_int_or(key, static_cast<std::int64_t>(dflt));
  require(v >= 0, "KvConfig: key '" + key + "' must be non-negative");
  return static_cast<std::uint64_t>(v);
}

double KvConfig::get_double_or(const std::string& key, double dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    require(pos == v->size(), "KvConfig: trailing characters in double for key " + key);
    return out;
  } catch (const std::exception&) {
    throw LpmError("KvConfig: key '" + key + "' is not a number: " + *v);
  }
}

bool KvConfig::get_bool_or(const std::string& key, bool dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw LpmError("KvConfig: key '" + key + "' is not a boolean: " + *v);
}

std::uint64_t env_u64(const char* name, std::uint64_t dflt, std::uint64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return dflt;
  // strtoull alone would accept a sign ("-1" wraps to 2^64-1) and leading
  // space, so every character must be a digit.
  const bool digits = std::strspn(raw, "0123456789") == std::strlen(raw);
  errno = 0;
  const unsigned long long v = digits ? std::strtoull(raw, nullptr, 10) : 0;
  if (!digits || errno == ERANGE || v > max) {
    const std::string bound =
        max == std::numeric_limits<std::uint64_t>::max()
            ? ""
            : " <= " + std::to_string(max);
    throw ConfigError("$" + std::string(name) + ": want an unsigned integer" +
                      bound + ", got '" + raw + "'");
  }
  return v;
}

std::vector<std::string> KvConfig::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, used] : touched_) {
    if (!used) out.push_back(key);
  }
  return out;
}

}  // namespace lpm::util
