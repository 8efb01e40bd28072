// Crash-safe file replacement for the checkpoint and dataset writers.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace paintplace {

/// Replaces `path` with what `write` puts into the stream, crash-safely:
/// the bytes go to `<path>.tmp` beside it, which is flushed and checked and
/// only then renamed over `path`. A crash, a full disk or a throwing
/// `write` leaves the previous file (or none) at `path`, never a truncated
/// one. Throws CheckError when the file cannot be written in full.
void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write);

}  // namespace paintplace
