#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace lpm::util {

std::string fmt(double v, int precision) {
  // std::to_chars in fixed format writes printf's "%.*f" in the C locale,
  // which is what `os << std::fixed << std::setprecision(precision) << v`
  // writes, without building a stream per call.
  char buf[128];
  if (const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                           std::chars_format::fixed, precision);
      ec == std::errc{}) {
    return std::string(buf, end);
  }
  // Huge magnitudes or precisions: sign, 309 integer digits, point, decimals.
  std::string out(312 + static_cast<std::size_t>(std::max(precision, 6)), '\0');
  const auto end = std::to_chars(out.data(), out.data() + out.size(), v,
                                 std::chars_format::fixed, precision).ptr;
  out.resize(static_cast<std::size_t>(end - out.data()));
  return out;
}

std::string fmt(std::uint64_t v) { return std::to_string(v); }

void print_banner(const std::string& bench, const std::string& artefact,
                  const std::string& notes) {
  std::printf("==============================================================\n");
  std::printf("%s\n", bench.c_str());
  std::printf("Reproduces: %s\n", artefact.c_str());
  std::printf("Paper: LPM: Concurrency-driven Layered Performance Matching, ICPP'15\n");
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("==============================================================\n");
}

AsciiTable::AsciiTable(std::vector<std::string> header) : header_(std::move(header)) {}

void AsciiTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string AsciiTable::fmt(double v, int precision) { return util::fmt(v, precision); }

std::string AsciiTable::fmt(std::uint64_t v) { return util::fmt(v); }

std::string AsciiTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  const auto rule = [&] {
    os << "+";
    for (auto w : widths) os << std::string(w + 2, '-') << "+";
    os << "\n";
  };
  const auto line = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      os << " " << cell << std::string(widths[c] - cell.size() + 1, ' ') << "|";
    }
    os << "\n";
  };
  rule();
  line(header_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
  return os.str();
}

std::string AsciiTable::to_csv() const {
  std::ostringstream os;
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << ",";
      // Quote cells containing separators.
      if (cells[c].find_first_of(",\"\n") != std::string::npos) {
        os << '"';
        for (char ch : cells[c]) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << cells[c];
      }
    }
    os << "\n";
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace lpm::util
