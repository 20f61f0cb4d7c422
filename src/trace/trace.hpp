// Trace data model: what a Darshan trace (DXT disabled) exposes to MOSAIC.
//
// Darshan aggregates I/O per file between open and close (paper §II-A). A
// trace is therefore job metadata plus per-file counter records; MOSAIC
// derives "I/O operations" from each record's read/write access window. The
// aggregation deliberately loses the temporal distribution of accesses inside
// a window — reproducing the limitation discussed in §IV-A (long-open
// periodic files appear steady).
//
// All timestamps are seconds relative to job start, as in darshan-parser's
// *_START_TIMESTAMP counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace mosaic::trace {

/// Direction of an I/O operation. MOSAIC processes reads and writes through
/// independent classifier passes (paper §III-B2).
enum class OpKind : std::uint8_t { kRead, kWrite };

/// Sentinel timestamp for "never happened" (e.g. a file never read).
inline constexpr double kNoTimestamp = -1.0;

/// Rank value denoting a file shared by all ranks (Darshan convention).
inline constexpr std::int32_t kSharedRank = -1;

/// One aggregated I/O operation: a contiguous access window on one file.
struct IoOp {
  double start = 0.0;            ///< window begin, seconds since job start
  double end = 0.0;              ///< window end; >= start
  std::uint64_t bytes = 0;       ///< bytes moved inside the window
  std::int32_t rank = kSharedRank;  ///< issuing rank, kSharedRank if shared
  OpKind kind = OpKind::kRead;

  [[nodiscard]] double duration() const noexcept { return end - start; }
  /// True when [start,end] and [other.start,other.end] intersect.
  [[nodiscard]] bool overlaps(const IoOp& other) const noexcept {
    return start <= other.end && other.start <= end;
  }
};

/// Per-file aggregated record — the POSIX-module counters MOSAIC consumes.
struct FileRecord {
  std::uint64_t file_id = 0;   ///< stable hash of the path
  std::string file_name;       ///< path if known (may be empty/anonymized)
  std::int32_t rank = kSharedRank;

  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t reads = 0;     ///< POSIX_READS: number of read calls
  std::uint64_t writes = 0;    ///< POSIX_WRITES
  std::uint64_t opens = 0;     ///< POSIX_OPENS
  std::uint64_t closes = 0;    ///< implied CLOSE count (== opens when clean)
  std::uint64_t seeks = 0;     ///< POSIX_SEEKS

  double open_ts = 0.0;                 ///< first open
  double close_ts = 0.0;                ///< last close
  double first_read_ts = kNoTimestamp;  ///< kNoTimestamp if never read
  double last_read_ts = kNoTimestamp;
  double first_write_ts = kNoTimestamp;
  double last_write_ts = kNoTimestamp;
};

/// Job-level metadata from the Darshan header.
struct JobMeta {
  std::uint64_t job_id = 0;
  std::string app_name;   ///< executable name
  std::string user;       ///< user id (anonymized on real datasets)
  std::uint32_t nprocs = 1;
  double start_time = 0.0;  ///< epoch seconds of job start
  double run_time = 0.0;    ///< wall-clock duration in seconds
};

/// A complete execution trace: one job, many file records.
struct Trace {
  JobMeta meta;
  std::vector<FileRecord> files;

  [[nodiscard]] std::uint64_t total_bytes_read() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes_written() const noexcept;
  /// Read+write bytes; the pre-processing dedup keeps the heaviest trace
  /// per application by this measure (paper §III-B1). Single pass over the
  /// file records — this runs once per valid trace in the funnel.
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& file : files) total += file.bytes_read + file.bytes_written;
    return total;
  }
  /// Key identifying "the same application run by the same user".
  [[nodiscard]] std::string app_key() const {
    return meta.user + "/" + meta.app_name;
  }
  /// Writes app_key() into `out`, reusing its capacity. Hot-path variant
  /// for per-trace loops that would otherwise allocate a fresh key string.
  void app_key(std::string& out) const {
    out.assign(meta.user);
    out += '/';
    out += meta.app_name;
  }
};

/// Reasons a trace is rejected as corrupted (paper §III-B1 step 1).
enum class CorruptionKind : std::uint8_t {
  kNone,
  kNonPositiveRuntime,     ///< run_time <= 0 or not finite
  kZeroRanks,              ///< nprocs == 0
  kNegativeTimestamp,      ///< any timestamp < 0 where one is required
  kInvertedWindow,         ///< close before open, or last before first
  kAccessOutsideJob,       ///< access or close after job end (deallocation
                           ///< before the end of execution, per the paper)
  kAccessOutsideOpen,      ///< read/write window outside [open, close]
  kCounterMismatch,        ///< bytes recorded with zero corresponding calls
  kNonFiniteValue,         ///< NaN/inf timestamp
};

[[nodiscard]] const char* corruption_kind_name(CorruptionKind kind) noexcept;

/// The CorruptionKind corruption_kind_name() calls `name`, or nullopt.
[[nodiscard]] std::optional<CorruptionKind> corruption_kind_from_name(
    std::string_view name) noexcept;

/// Result of validating a trace.
struct ValidityReport {
  CorruptionKind kind = CorruptionKind::kNone;
  std::string detail;  ///< human-readable context (file id, offending value)

  [[nodiscard]] bool valid() const noexcept {
    return kind == CorruptionKind::kNone;
  }
};

/// Semantic validity check. A small timing slack (default 1s) absorbs the
/// clock skew real Darshan records exhibit between rank-local timers.
[[nodiscard]] ValidityReport validate(const Trace& trace,
                                      double slack_seconds = 1.0);

/// Extracts the aggregated I/O operations of `kind` from every file record:
/// one op per non-empty access window. Zero-length windows are widened to
/// `min_width` seconds so interval logic never sees degenerate spans.
/// Output is sorted by start time.
[[nodiscard]] std::vector<IoOp> extract_ops(const Trace& trace, OpKind kind,
                                            double min_width = 1e-3);

/// As above, but writes into `out` (cleared first, capacity reused) — the
/// allocation-free form used by the analyzer workspace.
void extract_ops(const Trace& trace, OpKind kind, double min_width,
                 std::vector<IoOp>& out);

/// A burst of metadata requests at a point in time. MOSAIC assumes SEEKs are
/// co-located with OPENs because Darshan does not timestamp them (§III-B3c).
struct MetaEvent {
  double time = 0.0;
  std::uint64_t requests = 0;
};

/// Metadata request timeline: for each file record, opens+seeks fire at
/// open_ts and closes fire at close_ts. Sorted by time.
[[nodiscard]] std::vector<MetaEvent> metadata_timeline(const Trace& trace);

/// As above, but writes into `out` (cleared first, capacity reused).
void metadata_timeline(const Trace& trace, std::vector<MetaEvent>& out);

}  // namespace mosaic::trace
