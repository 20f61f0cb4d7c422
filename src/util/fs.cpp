#include "util/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>

namespace mosaic::util {

namespace fs = std::filesystem;

namespace {

/// Temp path next to `path`, unique per process so concurrent writers of
/// different outputs never collide.
std::string staging_path(const std::string& path) {
  std::string tmp = path;
  tmp += ".tmp.";
  tmp += std::to_string(static_cast<long>(::getpid()));
  return tmp;
}

}  // namespace

Expected<std::vector<std::byte>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return Error{ErrorCode::kNotFound, path + " does not exist"};
    }
    return Error{ErrorCode::kIoError, "cannot open " + path};
  }
  // The size only sizes the buffer (one byte over, so a whole read meets
  // EOF without growing it); the loop reads to EOF either way, so a file
  // that grows meanwhile is still read whole.
  struct stat st {};
  const std::size_t size =
      ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)
          ? static_cast<std::size_t>(st.st_size)
          : 4095;
  std::vector<std::byte> bytes(size + 1);
  std::size_t filled = 0;
  bool failed = false;
  while (true) {
    if (filled == bytes.size()) bytes.resize(bytes.size() * 2);
    const ::ssize_t got =
        ::read(fd, bytes.data() + filled, bytes.size() - filled);
    if (got > 0) {
      filled += static_cast<std::size_t>(got);
    } else if (got == 0) {
      break;
    } else if (errno != EINTR) {
      failed = true;
      break;
    }
  }
  ::close(fd);
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
  // Push the payload to stable storage before the rename publishes it;
  // otherwise a power loss can still expose an empty renamed file.
  flushed = flushed && ::fsync(::fileno(file)) == 0;
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
  // Each candidate name is claimed atomically, so two files that share a
  // name (from two input directories, moved by two workers at once) never
  // replace one another: the first takes x.txt, the next x.1.txt.
  const fs::path name = fs::path(path).filename();
  for (std::size_t n = 0;; ++n) {
    const std::string destination =
        (fs::path(directory) /
         (n == 0 ? name
                 : fs::path(name.stem().string() + "." + std::to_string(n) +
                            name.extension().string())))
            .string();
    if (::renameat2(AT_FDCWD, path.c_str(), AT_FDCWD, destination.c_str(),
                    RENAME_NOREPLACE) == 0) {
      return destination;
    }
    const int error = errno;
    ec.assign(error, std::generic_category());
    if (error == EXDEV || error == EINVAL || error == ENOSYS) {
      // Across filesystems (or where rename cannot refuse to replace): copy
      // into a new file, which copy_options::none creates exclusively, then
      // drop the original.
      ec.clear();
      if (fs::copy_file(path, destination, fs::copy_options::none, ec)) {
        fs::remove(path, ec);
        return destination;
      }
    }
    if (ec != std::errc::file_exists) {
      return Error{ErrorCode::kIoError, "cannot move " + path + " to " +
                                            destination + ": " + ec.message()};
    }
  }
}

}  // namespace mosaic::util
