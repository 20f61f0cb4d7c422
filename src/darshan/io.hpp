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

}  // namespace mosaic::darshan
