// Filesystem helpers: the one whole-file read, and crash-safe writes.
//
// A killed `mosaic generate` (or batch writing its JSON summary) must never
// leave a torn half-file behind: downstream ingest would count it as one more
// corrupted trace and silently skew the funnel. write_file_atomic stages the
// payload in a temp file in the destination directory, flushes it to stable
// storage, then renames it into place — readers observe either the old file
// or the complete new one, never a prefix.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace mosaic::util {

/// Reads the whole of `path`. A missing file is kNotFound; any open or read
/// failure on an existing path (a directory, a permission error) is
/// kIoError, the class ingest retries.
[[nodiscard]] Expected<std::vector<std::byte>> read_file(
    const std::string& path);

/// Atomically replaces `path` with `contents` (temp file + fsync + rename).
/// The temp file lives next to `path` so the rename stays within one
/// filesystem; it is removed on any failure.
[[nodiscard]] Status write_file_atomic(const std::string& path,
                                       std::string_view contents);

/// Moves `path` into `directory` (created on demand), e.g. a quarantine dir.
/// Falls back to copy+remove when rename crosses filesystems. Returns the
/// destination path on success.
[[nodiscard]] Expected<std::string> move_file_into_dir(
    const std::string& path, const std::string& directory);

}  // namespace mosaic::util
