// Trace directory scans. Loading goes through ingest::load_trace.
#pragma once

#include <string>
#include <vector>

#include "util/error.hpp"

namespace mosaic::darshan {

/// Lists trace files (".mbt", ".txt", ".darshan.txt") under `directory`,
/// sorted lexicographically for reproducible processing order.
[[nodiscard]] util::Expected<std::vector<std::string>> scan_trace_dir(
    const std::string& directory);

/// Expands command-line inputs into trace paths: a directory contributes
/// its scan_trace_dir() listing, anything else is kept as a file path (a
/// missing one becomes a per-file not-found eviction). A directory that
/// cannot be listed is an error, not a smaller corpus.
[[nodiscard]] util::Expected<std::vector<std::string>> expand_trace_paths(
    const std::vector<std::string>& inputs);

}  // namespace mosaic::darshan
