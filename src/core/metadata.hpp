// Metadata-impact characterization (paper §III-B3c).
//
// The metadata request timeline (OPEN+SEEK at op start, CLOSE at op end —
// Darshan never timestamps SEEKs, so MOSAIC co-locates them with OPENs) is
// binned per second. Three rules, with thresholds derived from the
// MDWorkbench study of the Mistral metadata server:
//   high_spike      — >= 250 requests within one second, at least once
//   multiple_spikes — >= 5 seconds with >= 50 requests
//   high_density    — >= 5 spikes AND an execution-wide mean >= 50 req/s
// Traces issuing fewer metadata requests than they have ranks carry
// insignificant_load instead (paper §III-A).
#pragma once

#include <cstdint>
#include <span>

#include "core/thresholds.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace mosaic::obs {
struct MetadataProvenance;
}  // namespace mosaic::obs

namespace mosaic::core {

/// Metadata classification plus the measurements behind it.
struct MetadataResult {
  bool insignificant = true;
  bool high_spike = false;
  bool multiple_spikes = false;
  bool high_density = false;

  std::uint64_t total_requests = 0;
  double max_requests_per_second = 0.0;
  std::size_t spike_seconds = 0;  ///< seconds at/above the spike threshold
  double mean_requests_per_second = 0.0;
};

/// Classifies a metadata timeline for a job of `runtime` seconds on
/// `nprocs` ranks. Events outside [0, runtime] clamp into the edge seconds.
/// When `evidence` is non-null the measured ratios, every threshold the
/// rules compared them with, and the closest comparison's margin are
/// recorded.
[[nodiscard]] MetadataResult classify_metadata(
    std::span<const trace::MetaEvent> events, double runtime,
    std::uint32_t nprocs, const Thresholds& thresholds = {},
    obs::MetadataProvenance* evidence = nullptr);

/// Workspace form: the per-second request histogram (one bin per runtime
/// second, the dominant scratch allocation of this stage) reuses
/// `histogram`'s storage. Results are identical to the convenience form.
[[nodiscard]] MetadataResult classify_metadata(
    std::span<const trace::MetaEvent> events, double runtime,
    std::uint32_t nprocs, const Thresholds& thresholds,
    obs::MetadataProvenance* evidence, util::Histogram& histogram);

/// Max over `values` plus the count of elements >= threshold, in one pass —
/// the spike scan over the per-second request bins. Empty input returns
/// -infinity and count 0.
double max_and_count_ge(std::span<const double> values, double threshold,
                        std::size_t& count_ge) noexcept;

}  // namespace mosaic::core
