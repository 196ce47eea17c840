#include "util/torn_line.hpp"

#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace lpm::util {

std::uintmax_t trim_partial_last_line(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return 0;

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;
  in.seekg(-1, std::ios::end);
  char last = '\0';
  in.get(last);
  if (last == '\n') return 0;

  // Walk back to the final newline; everything after it is the torn tail.
  std::uintmax_t keep = 0;
  for (std::uintmax_t offset = size; offset-- > 0;) {
    in.seekg(static_cast<std::streamoff>(offset));
    char c = '\0';
    in.get(c);
    if (c == '\n') {
      keep = offset + 1;
      break;
    }
  }
  in.close();
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    throw IoError("cannot trim torn line in '" + path + "': " + ec.message());
  }
  return size - keep;
}

}  // namespace lpm::util
