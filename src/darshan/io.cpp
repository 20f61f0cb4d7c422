#include "darshan/io.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <utility>

namespace mosaic::darshan {

using util::Error;
using util::ErrorCode;
using util::Expected;

namespace fs = std::filesystem;

namespace {

/// Whether the entry `name` under `prefix` is a regular file after
/// following symlinks, as std::filesystem::directory_entry::is_regular_file
/// decides: d_type answers without a syscall, and only an unknown type or a
/// symlink costs a stat (a dangling link is not a regular file).
bool is_regular_entry(unsigned char type, const std::string& prefix,
                      std::string_view name) {
  if (type == DT_REG) return true;
  if (type != DT_UNKNOWN && type != DT_LNK) return false;
  const std::string path = prefix + std::string(name);
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
  // The names go into one buffer and are sorted as views; the prefix is
  // joined once per path after sorting, which keeps the paths' order.
  std::string names;
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // offset, length
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
    if (!is_regular_entry(entry->d_type, prefix, name)) continue;
    spans.emplace_back(names.size(), name.size());
    names += name;
  }
  ::closedir(dir);
  if (error != 0) {
    return Error{ErrorCode::kIoError,
                 "scanning " + directory + ": " +
                     std::generic_category().message(error)};
  }
  // Each view carries the 8 bytes after the prefix all names share as one
  // big-endian integer, zero-padded (a name holds no NUL byte), so most
  // comparisons end on the integer without reading the names.
  std::size_t shared = spans.empty() ? 0 : spans.front().second;
  for (const auto& [offset, length] : spans) {
    const char* name = names.data() + offset;
    const char* first = names.data() + spans.front().first;
    std::size_t same = 0;
    while (same < std::min(shared, length) && name[same] == first[same]) ++same;
    shared = same;
  }
  struct Entry {
    std::uint64_t key;
    std::string_view name;
  };
  std::vector<Entry> sorted;
  sorted.reserve(spans.size());
  for (const auto& [offset, length] : spans) {
    std::uint64_t key = 0;
    for (std::size_t i = shared; i < shared + sizeof key; ++i) {
      key = key << 8 |
            (i < length ? static_cast<unsigned char>(names[offset + i]) : 0u);
    }
    sorted.push_back({key, std::string_view(names.data() + offset, length)});
  }
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.name < b.name;
  });
  std::vector<std::string> paths;
  paths.reserve(sorted.size());
  for (const Entry& entry : sorted) {
    std::string& path = paths.emplace_back();
    path.reserve(prefix.size() + entry.name.size());
    path += prefix;
    path += entry.name;
  }
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
