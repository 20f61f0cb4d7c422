#include "darshan/io.hpp"

#include <algorithm>
#include <filesystem>

namespace mosaic::darshan {

using util::Error;
using util::ErrorCode;
using util::Expected;

namespace fs = std::filesystem;

Expected<std::vector<std::string>> scan_trace_dir(const std::string& directory) {
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Error{ErrorCode::kNotFound, directory + " is not a directory"};
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().string();
    if (name.ends_with(".mbt") || name.ends_with(".txt")) {
      paths.push_back(name);
    }
  }
  if (ec) {
    return Error{ErrorCode::kIoError,
                 "scanning " + directory + ": " + ec.message()};
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace mosaic::darshan
