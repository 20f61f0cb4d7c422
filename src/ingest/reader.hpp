// File-reading seam of the ingest pipeline.
//
// All trace bytes flow through a FileReader so the fault-injection harness
// can sit between the loader and the filesystem. SystemFileReader is the
// production implementation; FaultyFileReader wraps any reader and injects
// EIO, short reads, delays and bit flips deterministically from a seed —
// the same (seed, path) pair always misbehaves the same way, which is what
// lets integration tests assert exact funnel counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace mosaic::ingest {

/// Abstract whole-file reader. `attempt` is 0-based and increments across
/// retries of the same file, so injectors can model transient faults that
/// heal after a few attempts.
class FileReader {
 public:
  virtual ~FileReader() = default;
  [[nodiscard]] virtual util::Expected<std::vector<std::byte>> read(
      const std::string& path, int attempt) = 0;

  /// read() wrapped in a util::MappedFile. Ingest calls read(); this stays
  /// for readers outside src/ that override it.
  [[nodiscard]] virtual util::Expected<util::MappedFile> read_mapped(
      const std::string& path, int attempt);
};

/// Reads from the real filesystem through util::read_file. A missing file
/// is kNotFound; any open or read failure on an existing file is kIoError
/// (the retryable class).
class SystemFileReader final : public FileReader {
 public:
  [[nodiscard]] util::Expected<std::vector<std::byte>> read(
      const std::string& path, int attempt) override;
};

/// Process-wide SystemFileReader used when callers pass no reader.
[[nodiscard]] FileReader& system_reader();

/// Which faults to inject, and how often. Probabilities select *files* (by a
/// stable hash of the path mixed with `seed`), not individual reads, so a
/// file's behavior is reproducible across runs and across retry attempts.
struct FaultSpec {
  std::uint64_t seed = 0;
  double transient_eio_probability = 0.0;  ///< EIO that heals after retries
  int transient_eio_failures = 2;          ///< failing attempts before success
  double permanent_eio_probability = 0.0;  ///< EIO on every attempt
  double short_read_probability = 0.0;     ///< truncated buffer (torn file)
  double bitflip_probability = 0.0;        ///< one flipped bit in the payload
  double delay_probability = 0.0;          ///< slow read (stalling device)
  double delay_ms = 0.0;

  /// Parses "seed=7,eio=0.3,eio_failures=2,eio_permanent=0.05,short=0.1,
  /// flip=0.1,delay=0.2,delay_ms=5" (any subset, any order).
  [[nodiscard]] static util::Expected<FaultSpec> parse(std::string_view text);
};

/// Wraps another reader and injects the faults described by the spec.
class FaultyFileReader final : public FileReader {
 public:
  explicit FaultyFileReader(FaultSpec spec, FileReader* base = nullptr)
      : spec_(spec), base_(base != nullptr ? base : &system_reader()) {}

  [[nodiscard]] util::Expected<std::vector<std::byte>> read(
      const std::string& path, int attempt) override;

 private:
  FaultSpec spec_;
  FileReader* base_;
};

/// Whether `path` names an MBT file (".mbt"); anything else is darshan text.
[[nodiscard]] bool is_mbt_path(std::string_view path) noexcept;

/// Decodes trace bytes by file extension (is_mbt_path). The deadline bounds
/// text parsing of pathological documents. `mbt_body_hash`, when given, is
/// the MBT checksum input already hashed (darshan::parse_mbt's overload).
[[nodiscard]] util::Expected<trace::Trace> parse_trace_bytes(
    const std::string& path, std::span<const std::byte> bytes,
    const util::Deadline& deadline = {},
    std::optional<std::uint64_t> mbt_body_hash = std::nullopt);

}  // namespace mosaic::ingest
