// Zero-copy memory-mapped file reads.
//
// Binary `.mbt` traces are parsed from a flat byte span; reading them through
// an ifstream copies every byte into a heap vector first. MappedFile maps the
// file read-only instead — parse_mbt walks the page cache directly, the
// kernel drops the pages when the mapping closes, and ingestion stops paying
// one full copy per trace. Falls back to a heap read (same span semantics)
// when mmap is unavailable (empty files, special files, non-POSIX builds).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mosaic::util {

/// RAII read-only file mapping. Move-only; unmaps on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Empty files succeed with an empty span (mmap of
  /// length 0 is undefined, so they use the fallback buffer). When mmap
  /// itself fails but the file is readable, falls back to a plain heap read
  /// so callers never need a second code path.
  [[nodiscard]] static Expected<MappedFile> open(const std::string& path);

  /// Wraps an already-materialized buffer (fault-injected reads, tests) in
  /// the same interface.
  [[nodiscard]] static MappedFile from_buffer(std::vector<std::byte> buffer);

  /// The mapped (or fallback-read) bytes. Valid until destruction/move.
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  void reset() noexcept;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                ///< data_ points into an mmap region
  std::vector<std::byte> fallback_;    ///< owns data_ when !mapped_
};

}  // namespace mosaic::util
