#include "core/metadata.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/provenance.hpp"
#include "util/stats.hpp"

namespace mosaic::core {

namespace {

/// Normalized margin of `value` from `limit`, in [0, 1].
double boundary_margin(double value, double limit) {
  if (limit <= 0.0) return 1.0;
  return std::clamp(std::abs(limit - value) / limit, 0.0, 1.0);
}

/// Copies the verdict and its thresholds into the provenance record. The
/// confidence is the margin of the *closest* rule comparison: a trace whose
/// spike count sat right at the boundary explains itself as ambiguous even
/// when the other rules were clear-cut.
void record_metadata(obs::MetadataProvenance& evidence,
                     const MetadataResult& result, std::uint32_t nprocs,
                     const Thresholds& thresholds) {
  evidence.total_requests = result.total_requests;
  evidence.nprocs = nprocs;
  evidence.max_requests_per_second = result.max_requests_per_second;
  evidence.mean_requests_per_second = result.mean_requests_per_second;
  evidence.spike_seconds = result.spike_seconds;
  evidence.high_spike_threshold = thresholds.high_spike_requests;
  evidence.spike_threshold = thresholds.spike_requests;
  evidence.multiple_spike_count = thresholds.multiple_spike_count;
  evidence.high_density_mean_threshold = thresholds.high_density_mean_requests;
  evidence.insignificant = result.insignificant;
  evidence.high_spike = result.high_spike;
  evidence.multiple_spikes = result.multiple_spikes;
  evidence.high_density = result.high_density;
  if (result.insignificant) {
    evidence.confidence =
        boundary_margin(static_cast<double>(result.total_requests),
                        static_cast<double>(nprocs));
    return;
  }
  evidence.confidence = std::min(
      {boundary_margin(result.max_requests_per_second,
                       thresholds.high_spike_requests),
       boundary_margin(static_cast<double>(result.spike_seconds),
                       static_cast<double>(thresholds.multiple_spike_count)),
       boundary_margin(result.mean_requests_per_second,
                       thresholds.high_density_mean_requests)});
}

}  // namespace

double max_and_count_ge(std::span<const double> values, double threshold,
                        std::size_t& count_ge) noexcept {
  const double* x = values.data();
  const std::size_t n = values.size();
  double best = -std::numeric_limits<double>::infinity();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    best = x[i] > best ? x[i] : best;
    if (x[i] >= threshold) ++count;
  }
  count_ge = count;
  return best;
}

MetadataResult classify_metadata(std::span<const trace::MetaEvent> events,
                                 double runtime, std::uint32_t nprocs,
                                 const Thresholds& thresholds,
                                 obs::MetadataProvenance* evidence) {
  util::Histogram histogram(0.0, 1.0, 1);
  return classify_metadata(events, runtime, nprocs, thresholds, evidence,
                           histogram);
}

MetadataResult classify_metadata(std::span<const trace::MetaEvent> events,
                                 double runtime, std::uint32_t nprocs,
                                 const Thresholds& thresholds,
                                 obs::MetadataProvenance* evidence,
                                 util::Histogram& histogram) {
  MOSAIC_ASSERT(runtime > 0.0);
  MetadataResult result;
  for (const trace::MetaEvent& event : events) {
    result.total_requests += event.requests;
  }
  result.mean_requests_per_second =
      static_cast<double>(result.total_requests) / runtime;

  // Below one request per rank the job barely touched the metadata server.
  if (result.total_requests < nprocs) {
    result.insignificant = true;
    if (evidence != nullptr) {
      record_metadata(*evidence, result, nprocs, thresholds);
    }
    return result;
  }
  result.insignificant = false;

  // Per-second request histogram.
  const auto seconds =
      static_cast<std::size_t>(std::max(1.0, std::ceil(runtime)));
  histogram.reset(0.0, static_cast<double>(seconds), seconds);
  for (const trace::MetaEvent& event : events) {
    histogram.add(event.time, static_cast<double>(event.requests));
  }

  // Bins are non-negative request counts and there is at least one, so the
  // max is never the empty-input -infinity.
  std::size_t spike_seconds = 0;
  result.max_requests_per_second = max_and_count_ge(
      histogram.counts(), thresholds.spike_requests, spike_seconds);
  result.spike_seconds = spike_seconds;

  result.high_spike =
      result.max_requests_per_second >= thresholds.high_spike_requests;
  result.multiple_spikes =
      result.spike_seconds >= thresholds.multiple_spike_count;
  result.high_density =
      result.spike_seconds >= thresholds.multiple_spike_count &&
      result.mean_requests_per_second >= thresholds.high_density_mean_requests;
  if (evidence != nullptr) {
    record_metadata(*evidence, result, nprocs, thresholds);
  }
  return result;
}

}  // namespace mosaic::core
