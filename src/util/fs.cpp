#include "util/fs.hpp"

#include <cerrno>
#include <cstdio>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace mosaic::util {

namespace fs = std::filesystem;

namespace {

/// Temp path next to `path`, unique per process so concurrent writers of
/// different outputs never collide.
std::string staging_path(const std::string& path) {
  std::string tmp = path;
  tmp += ".tmp.";
#if defined(__unix__) || defined(__APPLE__)
  tmp += std::to_string(static_cast<long>(::getpid()));
#else
  tmp += "stage";
#endif
  return tmp;
}

}  // namespace

Expected<std::vector<std::byte>> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return Error{ErrorCode::kNotFound, path + " does not exist"};
    }
    return Error{ErrorCode::kIoError, "cannot open " + path};
  }
  // The size only sizes the buffer; the loop reads to EOF either way, so a
  // file that grows meanwhile is still read whole.
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  std::vector<std::byte> bytes(ec ? 4096 : static_cast<std::size_t>(size) + 1);
  std::size_t filled = 0;
  while (true) {
    filled += std::fread(bytes.data() + filled, 1, bytes.size() - filled, file);
    if (filled < bytes.size()) break;  // EOF or error
    bytes.resize(bytes.size() * 2);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Error{ErrorCode::kIoError, "read failure on " + path};
  bytes.resize(filled);
  return bytes;
}

Status write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = staging_path(path);
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Error{ErrorCode::kIoError, "cannot create " + tmp};
  }
  const bool written =
      contents.empty() ||
      std::fwrite(contents.data(), 1, contents.size(), file) == contents.size();
  bool flushed = written && std::fflush(file) == 0;
#if defined(__unix__) || defined(__APPLE__)
  // Push the payload to stable storage before the rename publishes it;
  // otherwise a power loss can still expose an empty renamed file.
  flushed = flushed && ::fsync(::fileno(file)) == 0;
#endif
  const bool closed = std::fclose(file) == 0;
  if (!written || !flushed || !closed) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return Error{ErrorCode::kIoError, "write failure on " + tmp};
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    return Error{ErrorCode::kIoError,
                 "cannot rename " + tmp + " to " + path + ": " + ec.message()};
  }
  return Status::success();
}

Expected<std::string> move_file_into_dir(const std::string& path,
                                         const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Error{ErrorCode::kIoError,
                 "cannot create " + directory + ": " + ec.message()};
  }
  const fs::path destination = fs::path(directory) / fs::path(path).filename();
  fs::rename(path, destination, ec);
  if (ec) {
    // EXDEV and friends: stage a copy, then drop the original.
    ec.clear();
    fs::copy_file(path, destination, fs::copy_options::overwrite_existing, ec);
    if (ec) {
      return Error{ErrorCode::kIoError, "cannot move " + path + " to " +
                                            destination.string() + ": " +
                                            ec.message()};
    }
    fs::remove(path, ec);
  }
  return destination.string();
}

}  // namespace mosaic::util
