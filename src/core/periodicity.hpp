// Periodic-operation detection (paper §III-B3a).
//
// Segments are embedded as (duration, log1p(volume)) feature points, min-max
// scaled, and clustered with Mean-Shift. A cluster of size >= 2 whose raw
// durations and volumes agree within configured spreads is a periodic
// group — a trace can hold several (e.g. checkpointing *and* periodic input
// reads). Each group reports the period's order of magnitude, the per-op
// volume and the activity (busy-time) rate during the period.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "cluster/meanshift.hpp"
#include "core/segmentation.hpp"
#include "core/thresholds.hpp"
#include "trace/trace.hpp"

namespace mosaic::obs {
struct PeriodicityProvenance;
}  // namespace mosaic::obs

namespace mosaic::core {

/// Order of magnitude of a detected period (paper Table I).
enum class PeriodMagnitude : std::uint8_t {
  kSecond,     ///< period <= 60 s
  kMinute,     ///< <= 1 h
  kHour,       ///< <= 24 h
  kDayOrMore,  ///< beyond
};

[[nodiscard]] const char* period_magnitude_name(PeriodMagnitude m) noexcept;

/// One detected periodic operation.
struct PeriodicGroup {
  double period_seconds = 0.0;   ///< mean segment length of the group
  double mean_bytes = 0.0;       ///< mean volume per occurrence
  double busy_ratio = 0.0;       ///< mean op_duration / period
  std::size_t occurrences = 0;   ///< segments in the group
  PeriodMagnitude magnitude = PeriodMagnitude::kSecond;
};

/// Periodicity verdict for one op kind of one trace.
struct PeriodicityResult {
  bool periodic = false;
  std::vector<PeriodicGroup> groups;  ///< accepted groups, largest first

  /// The strongest (most occurrences) group. Precondition: periodic.
  [[nodiscard]] const PeriodicGroup& dominant() const {
    MOSAIC_ASSERT(!groups.empty());
    return groups.front();
  }
};

/// Buckets a period into its magnitude using the thresholds' bounds.
[[nodiscard]] PeriodMagnitude classify_period_magnitude(
    double period_seconds, const Thresholds& thresholds = {}) noexcept;

/// Reusable scratch for both periodicity detectors. One instance per worker
/// thread; buffers keep their high-water capacity across traces so the
/// steady-state path stops allocating (DESIGN.md §12). Contents are an
/// implementation detail of the detectors.
struct PeriodicityWorkspace {
  cluster::PointSet points{2};        ///< (length, log1p bytes) embedding
  cluster::PointSet scaled{2};        ///< min-max scaled copy
  cluster::MeanShiftWorkspace mean_shift;  ///< clustering scratch
  cluster::MeanShiftResult clusters;       ///< clustering output, reused
  std::vector<std::pair<double, double>> samples;  ///< (time, bytes) spread
  std::vector<double> series;                      ///< binned activity signal
};

/// Runs the Mean-Shift detector over a trace's segments. When `evidence` is
/// non-null, the bandwidth, every cluster candidate with its CV acceptance
/// tests, and the verdict margin are recorded into evidence->mean_shift and
/// the top-level verdict fields.
[[nodiscard]] PeriodicityResult detect_periodicity(
    std::span<const Segment> segments, const Thresholds& thresholds = {},
    obs::PeriodicityProvenance* evidence = nullptr);

/// Workspace form of the Mean-Shift detector: all scratch comes from
/// `workspace`. Results are identical to the convenience form bit for bit.
/// `stage_detail` (the analyzer's 1-in-32 sample) lets Mean-Shift feed its
/// metrics; the convenience form passes false.
[[nodiscard]] PeriodicityResult detect_periodicity(
    std::span<const Segment> segments, const Thresholds& thresholds,
    obs::PeriodicityProvenance* evidence, PeriodicityWorkspace& workspace,
    bool stage_detail);

/// Frequency-domain detector (paper SV future work): bins the merged op
/// stream into a volume-per-second activity signal, runs the FFT +
/// autocorrelation analysis, and converts significant peaks to
/// PeriodicGroups. Runs longer than thresholds.frequency_max_bins seconds
/// are binned coarser so the FFT cost per trace stays bounded.
/// When `evidence` is non-null, every spectral peak and its score test are
/// recorded into evidence->frequency and the top-level verdict fields (the
/// mean_shift sub-record is left untouched so the hybrid backend can layer
/// both).
[[nodiscard]] PeriodicityResult detect_periodicity_frequency(
    std::span<const trace::IoOp> merged_ops, double runtime,
    const Thresholds& thresholds = {},
    obs::PeriodicityProvenance* evidence = nullptr);

/// Workspace form of the frequency detector: the sample and series buffers
/// come from `workspace`. Results are identical to the convenience form bit
/// for bit.
[[nodiscard]] PeriodicityResult detect_periodicity_frequency(
    std::span<const trace::IoOp> merged_ops, double runtime,
    const Thresholds& thresholds, obs::PeriodicityProvenance* evidence,
    PeriodicityWorkspace& workspace);

}  // namespace mosaic::core
