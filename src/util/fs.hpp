// Filesystem helpers: the one whole-file read, and crash-safe writes.
//
// read_file is a plain read into a heap buffer sized by fstat. Trace files
// are small (5-20 KB), and a copy through read(2) beats mapping them: each
// unmap in a multi-threaded process takes the address-space lock and shoots
// down TLBs on every core running a worker (DESIGN.md §18).
//
// A killed `mosaic generate` (or batch writing its JSON summary) must never
// leave a torn half-file behind: downstream ingest would count it as one more
// corrupted trace and silently skew the funnel. write_file_atomic stages the
// payload in a temp file in the destination directory, flushes it to stable
// storage, then renames it into place — readers observe either the old file
// or the complete new one, never a prefix.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mosaic::util {

/// Reads the whole of `path`: open, fstat for the size, read to EOF, close.
/// A missing file or path component is kNotFound; any other open or read
/// failure (a directory, a permission error) is kIoError, the class ingest
/// retries.
[[nodiscard]] Expected<std::vector<std::byte>> read_file(
    const std::string& path);

/// A whole file's bytes, as ingest::FileReader::read_mapped returns them.
/// Ingest reads through FileReader::read; the type stays for readers
/// outside src/ that override read_mapped.
class MappedFile {
 public:
  /// Takes ownership of a read buffer.
  [[nodiscard]] static MappedFile from_buffer(std::vector<std::byte> buffer) {
    MappedFile file;
    file.buffer_ = std::move(buffer);
    return file;
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return buffer_;
  }

 private:
  std::vector<std::byte> buffer_;
};

/// Atomically replaces `path` with `contents` (temp file + fsync + rename).
/// The temp file lives next to `path` so the rename stays within one
/// filesystem; it is removed on any failure.
[[nodiscard]] Status write_file_atomic(const std::string& path,
                                       std::string_view contents);

/// Moves `path` into `directory` (created on demand), e.g. a quarantine dir,
/// never replacing a file there: when the name is taken, the file becomes
/// "stem.1.ext", "stem.2.ext", ... Falls back to copy+remove when rename
/// crosses filesystems. Returns the destination path on success.
[[nodiscard]] Expected<std::string> move_file_into_dir(
    const std::string& path, const std::string& directory);

}  // namespace mosaic::util
