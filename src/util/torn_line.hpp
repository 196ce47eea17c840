// Torn-line healing for append-only, line-per-record files (ResultSink
// files and lpmd's srv::JobJournal). Both append one whole line and flush,
// so a crash mid-append leaves at most one partial final line, which
// carries no complete record.
#pragma once

#include <cstdint>
#include <string>

namespace lpm::util {

/// Truncates `path` to end at its final newline, dropping a torn partial
/// last line left by a crash mid-append. Returns the number of bytes
/// removed (0 when the file is absent, empty, or ends cleanly). Throws
/// util::IoError when the truncation itself fails.
std::uintmax_t trim_partial_last_line(const std::string& path);

}  // namespace lpm::util
