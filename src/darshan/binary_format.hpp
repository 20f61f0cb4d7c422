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

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
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

/// parse_mbt with the trailer checksum's input already hashed: `body_hash`
/// is fnv1a of mbt_checksummed_body(bytes) (fnv1a_lanes computes it for
/// several files at once). The same checks, in the same order and with the
/// same messages; when the body is nullopt the hash is never looked at.
[[nodiscard]] util::Expected<trace::Trace> parse_mbt(
    std::span<const std::byte> bytes, std::uint64_t body_hash);

/// The bytes the trailer checksum covers (all but the last 8), once
/// `bytes` has passed the checks parse_mbt makes before the checksum: long
/// enough for magic, version and trailer, and starting with the magic.
/// nullopt otherwise.
[[nodiscard]] std::optional<std::span<const std::byte>> mbt_checksummed_body(
    std::span<const std::byte> bytes) noexcept;

/// Writes `to_mbt(trace)` to `path` (staged + renamed).
[[nodiscard]] util::Status write_mbt_file(const trace::Trace& trace,
                                          const std::string& path);

/// FNV-1a 64-bit hash, exposed for tests and for file-id hashing.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

/// FNV-1a over a string (used to derive FileRecord::file_id from paths).
[[nodiscard]] std::uint64_t fnv1a(std::string_view text) noexcept;

/// How many inputs fnv1a_lanes hashes at once.
inline constexpr std::size_t kFnvLanes = 4;

/// fnv1a of up to kFnvLanes inputs at once: lane i equals fnv1a(inputs[i])
/// for every input, and lanes past inputs.size() are 0. fnv1a waits on one
/// multiply per byte; the lanes' multiply chains are independent, so they
/// overlap in the pipeline and four inputs take far less than four times
/// as long as one.
[[nodiscard]] std::array<std::uint64_t, kFnvLanes> fnv1a_lanes(
    std::span<const std::span<const std::byte>> inputs) noexcept;

}  // namespace mosaic::darshan
