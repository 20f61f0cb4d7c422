// Compact binary trace container (".mbt" — Mosaic Binary Trace).
//
// Real Darshan logs are binary; the Blue Waters dataset holds 462k of them.
// MBT plays that role for synthetic populations: a checksummed, little-endian,
// length-prefixed encoding of a Trace that is ~20x smaller than the text
// form and loads without parsing overhead. A corrupted (bit-flipped or
// truncated) file is detected via an FNV-1a trailer checksum — this feeds the
// eviction path of the pre-processing stage.
//
// Layout (all integers little-endian):
//   magic "MBT1" | u32 version | job meta | u32 nfiles | nfiles records
//   | u64 fnv1a checksum of everything before the trailer
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"
#include "util/error.hpp"

namespace mosaic::darshan {

/// Current MBT format version.
inline constexpr std::uint32_t kMbtVersion = 1;

/// Encodes a trace to the MBT byte layout.
[[nodiscard]] std::vector<std::byte> to_mbt(const trace::Trace& trace);

/// Decodes an MBT buffer. Truncation, bad magic, version mismatch and
/// checksum failure all return kCorruptTrace — callers treat them like any
/// other corrupted input (evict and count).
[[nodiscard]] util::Expected<trace::Trace> parse_mbt(
    std::span<const std::byte> bytes);

/// Writes `to_mbt(trace)` to `path` (staged + renamed).
[[nodiscard]] util::Status write_mbt_file(const trace::Trace& trace,
                                          const std::string& path);

/// FNV-1a 64-bit hash, exposed for tests and for file-id hashing.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

/// FNV-1a over a string (used to derive FileRecord::file_id from paths).
[[nodiscard]] std::uint64_t fnv1a(std::string_view text) noexcept;

}  // namespace mosaic::darshan
