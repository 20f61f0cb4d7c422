#include "darshan/io.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <string_view>
#include <system_error>

namespace mosaic::darshan {

using util::Error;
using util::ErrorCode;
using util::Expected;

namespace fs = std::filesystem;

namespace {

/// Whether a directory entry is a regular file after following symlinks,
/// as std::filesystem::directory_entry::is_regular_file decides: d_type
/// answers without a syscall, and only an unknown type or a symlink costs
/// a stat (a dangling link is not a regular file).
bool is_regular_entry(unsigned char type, const std::string& path) {
  if (type == DT_REG) return true;
  if (type != DT_UNKNOWN && type != DT_LNK) return false;
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace

Expected<std::vector<std::string>> scan_trace_dir(const std::string& directory) {
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Error{ErrorCode::kNotFound, directory + " is not a directory"};
  }
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    return Error{ErrorCode::kIoError,
                 "scanning " + directory + ": " +
                     std::generic_category().message(errno)};
  }
  // Joined as std::filesystem joins: "dir" and "dir/" both give "dir/name".
  const std::string prefix =
      directory.ends_with('/') ? directory : directory + '/';
  std::vector<std::string> paths;
  int error = 0;
  while (true) {
    errno = 0;
    const dirent* entry = ::readdir(dir);
    if (entry == nullptr) {
      error = errno;
      break;
    }
    const std::string_view name = entry->d_name;
    if (!name.ends_with(".mbt") && !name.ends_with(".txt")) continue;
    std::string path = prefix;
    path += name;
    if (is_regular_entry(entry->d_type, path)) paths.push_back(std::move(path));
  }
  ::closedir(dir);
  if (error != 0) {
    return Error{ErrorCode::kIoError,
                 "scanning " + directory + ": " +
                     std::generic_category().message(error)};
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Expected<std::vector<std::string>> expand_trace_paths(
    const std::vector<std::string>& inputs) {
  std::vector<std::string> paths;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (!fs::is_directory(input, ec)) {
      paths.push_back(input);
      continue;
    }
    auto scanned = scan_trace_dir(input);
    if (!scanned.has_value()) return std::move(scanned).error();
    paths.insert(paths.end(), scanned->begin(), scanned->end());
  }
  return paths;
}

}  // namespace mosaic::darshan
