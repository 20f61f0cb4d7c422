#include "core/periodicity.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/fft.hpp"
#include "cluster/meanshift.hpp"
#include "obs/provenance.hpp"
#include "util/stats.hpp"

namespace mosaic::core {

namespace {

/// Normalized margin of `value` from `limit` on the side that passed (or
/// failed) the comparison, in [0, 1]. Used as the per-axis confidence: 0
/// means the statistic sat exactly on the decision boundary.
double boundary_margin(double value, double limit) {
  if (limit <= 0.0) return 1.0;
  const double margin = std::abs(limit - value) / limit;
  return std::clamp(margin, 0.0, 1.0);
}

/// Copies the accepted groups into the provenance record.
void record_groups(obs::PeriodicityProvenance& evidence,
                   const PeriodicityResult& result) {
  evidence.periodic = result.periodic;
  evidence.groups.clear();
  for (const PeriodicGroup& group : result.groups) {
    obs::PeriodicGroupProvenance g;
    g.period_seconds = group.period_seconds;
    g.mean_bytes = group.mean_bytes;
    g.busy_ratio = group.busy_ratio;
    g.occurrences = group.occurrences;
    g.magnitude = period_magnitude_name(group.magnitude);
    evidence.groups.push_back(std::move(g));
  }
}

}  // namespace

const char* period_magnitude_name(PeriodMagnitude m) noexcept {
  switch (m) {
    case PeriodMagnitude::kSecond: return "second";
    case PeriodMagnitude::kMinute: return "minute";
    case PeriodMagnitude::kHour: return "hour";
    case PeriodMagnitude::kDayOrMore: return "day_or_more";
  }
  return "unknown";
}

PeriodMagnitude classify_period_magnitude(double period_seconds,
                                          const Thresholds& thresholds) noexcept {
  // Half-open downward: a period of exactly one minute/hour/day belongs to
  // the larger bucket (an hourly checkpoint is periodic_hour).
  if (period_seconds < thresholds.period_second_max) {
    return PeriodMagnitude::kSecond;
  }
  if (period_seconds < thresholds.period_minute_max) {
    return PeriodMagnitude::kMinute;
  }
  if (period_seconds < thresholds.period_hour_max) {
    return PeriodMagnitude::kHour;
  }
  return PeriodMagnitude::kDayOrMore;
}

PeriodicityResult detect_periodicity(std::span<const Segment> segments,
                                     const Thresholds& thresholds,
                                     obs::PeriodicityProvenance* evidence) {
  PeriodicityWorkspace workspace;
  return detect_periodicity(segments, thresholds, evidence, workspace,
                            /*stage_detail=*/false);
}

PeriodicityResult detect_periodicity(std::span<const Segment> segments,
                                     const Thresholds& thresholds,
                                     obs::PeriodicityProvenance* evidence,
                                     PeriodicityWorkspace& workspace,
                                     bool stage_detail) {
  PeriodicityResult result;
  if (evidence != nullptr) {
    evidence->mean_shift.ran = true;
    evidence->mean_shift.bandwidth = thresholds.meanshift_bandwidth;
    evidence->mean_shift.duration_cv_limit = thresholds.group_duration_cv;
    evidence->mean_shift.volume_cv_limit = thresholds.group_volume_cv;
    evidence->confidence = 1.0;  // no candidates: clearly non-periodic
  }
  if (segments.size() < thresholds.min_group_size) {
    if (evidence != nullptr) record_groups(*evidence, result);
    return result;
  }

  // Feature embedding: (segment length, log1p(bytes)). The log tames the
  // many-orders-of-magnitude spread of I/O volumes so that min-max scaling
  // keeps both axes informative.
  cluster::PointSet& points = workspace.points;
  points.reset(2);
  for (const Segment& segment : segments) {
    const double features[2] = {segment.length,
                                std::log1p(static_cast<double>(segment.bytes))};
    points.add(features);
  }
  cluster::min_max_scale(points, workspace.scaled);

  cluster::mean_shift(workspace.scaled, thresholds.meanshift_bandwidth,
                      workspace.mean_shift, workspace.clusters, stage_detail);
  const cluster::MeanShiftResult& clusters = workspace.clusters;
  if (evidence != nullptr) {
    evidence->mean_shift.points = segments.size();
    evidence->mean_shift.iterations = clusters.total_iterations;
  }

  // Confidence: margin of the deciding statistic from its boundary. Accepted
  // groups contribute their tightest passing CV margin; a non-periodic
  // verdict is as confident as its *closest* rejected candidate was far from
  // passing.
  double accepted_margin = 1.0;
  double rejected_margin = 1.0;
  bool any_accepted = false;
  bool any_rejected = false;

  // Evaluate each cluster of sufficient size as a periodic-group candidate.
  for (std::size_t c = 0; c < clusters.cluster_sizes.size(); ++c) {
    if (clusters.cluster_sizes[c] < thresholds.min_group_size) {
      // Undersized clusters are uninteresting noise except for the near
      // misses (>= 2 points) worth showing in an explanation.
      if (evidence != nullptr && clusters.cluster_sizes[c] >= 2) {
        obs::MeanShiftCandidate candidate;
        candidate.size = clusters.cluster_sizes[c];
        candidate.center_length = clusters.modes[c][0];
        candidate.center_log_volume = clusters.modes[c][1];
        candidate.accepted = false;
        candidate.rejected_by = "group-size";
        evidence->mean_shift.candidates.push_back(std::move(candidate));
      }
      continue;
    }

    util::RunningStats durations;
    util::RunningStats volumes;
    util::RunningStats busy;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (clusters.labels[i] != c) continue;
      durations.add(segments[i].length);
      volumes.add(static_cast<double>(segments[i].bytes));
      busy.add(segments[i].busy_ratio());
    }

    const double duration_cv = durations.coefficient_of_variation();
    const double volume_cv = volumes.coefficient_of_variation();

    obs::MeanShiftCandidate candidate;
    if (evidence != nullptr) {
      candidate.size = durations.count();
      candidate.period_seconds = durations.mean();
      candidate.duration_cv = duration_cv;
      candidate.volume_cv = volume_cv;
      candidate.center_length = clusters.modes[c][0];
      candidate.center_log_volume = clusters.modes[c][1];
    }

    // Min-max scaling is relative to the trace-wide range; one giant segment
    // can compress unrelated durations into one cluster. The raw-space CV
    // bounds reject such artifacts.
    const bool duration_ok = duration_cv <= thresholds.group_duration_cv;
    const bool volume_ok = volume_cv <= thresholds.group_volume_cv;
    if (!duration_ok || !volume_ok) {
      any_rejected = true;
      const double violation =
          !duration_ok ? boundary_margin(duration_cv, thresholds.group_duration_cv)
                       : boundary_margin(volume_cv, thresholds.group_volume_cv);
      rejected_margin = std::min(rejected_margin, violation);
      if (evidence != nullptr) {
        candidate.accepted = false;
        candidate.rejected_by = !duration_ok ? "duration-cv" : "volume-cv";
        evidence->mean_shift.candidates.push_back(std::move(candidate));
      }
      continue;
    }

    any_accepted = true;
    accepted_margin = std::min(
        accepted_margin,
        std::min(boundary_margin(duration_cv, thresholds.group_duration_cv),
                 boundary_margin(volume_cv, thresholds.group_volume_cv)));
    if (evidence != nullptr) {
      candidate.accepted = true;
      evidence->mean_shift.candidates.push_back(std::move(candidate));
    }

    PeriodicGroup group;
    group.period_seconds = durations.mean();
    group.mean_bytes = volumes.mean();
    group.busy_ratio = busy.mean();
    group.occurrences = durations.count();
    group.magnitude = classify_period_magnitude(group.period_seconds, thresholds);
    result.groups.push_back(group);
  }

  std::sort(result.groups.begin(), result.groups.end(),
            [](const PeriodicGroup& a, const PeriodicGroup& b) {
              return a.occurrences > b.occurrences;
            });
  result.periodic = !result.groups.empty();
  if (evidence != nullptr) {
    if (any_accepted) {
      evidence->confidence = accepted_margin;
    } else if (any_rejected) {
      evidence->confidence = rejected_margin;
    }
    record_groups(*evidence, result);
  }
  return result;
}

PeriodicityResult detect_periodicity_frequency(
    std::span<const trace::IoOp> merged_ops, double runtime,
    const Thresholds& thresholds, obs::PeriodicityProvenance* evidence) {
  PeriodicityWorkspace workspace;
  return detect_periodicity_frequency(merged_ops, runtime, thresholds,
                                      evidence, workspace);
}

namespace {

/// Trace-level aggregates of the merged stream, accumulated while the
/// activity samples are spread.
struct FrequencySignal {
  double total_bytes = 0.0;
  double total_op_seconds = 0.0;
  double first_start = 0.0;
  double last_start = 0.0;
};

}  // namespace

/// Second half of the frequency detector: DFT over the binned series,
/// peak-to-group conversion, evidence capture.
static PeriodicityResult finish_frequency(const std::vector<double>& series,
                                          double bin_seconds,
                                          const FrequencySignal& signal,
                                          const Thresholds& thresholds,
                                          obs::PeriodicityProvenance* evidence);

PeriodicityResult detect_periodicity_frequency(
    std::span<const trace::IoOp> merged_ops, double runtime,
    const Thresholds& thresholds, obs::PeriodicityProvenance* evidence,
    PeriodicityWorkspace& workspace) {
  if (evidence != nullptr) {
    evidence->frequency.ran = true;
    evidence->frequency.min_score = thresholds.frequency_min_score;
    evidence->confidence = 1.0;  // no signal at all: clearly non-periodic
  }
  if (merged_ops.size() < thresholds.min_group_size + 1 || runtime <= 0.0) {
    PeriodicityResult result;
    if (evidence != nullptr) record_groups(*evidence, result);
    return result;
  }

  // Bin the activity into a volume-per-second signal; coarsen the bins for
  // very long runs so the FFT stays bounded.
  const double bin_seconds = std::max(
      1.0, runtime / static_cast<double>(thresholds.frequency_max_bins));
  std::vector<std::pair<double, double>>& samples = workspace.samples;
  samples.clear();
  samples.reserve(merged_ops.size() * 2);
  FrequencySignal signal;
  signal.first_start = runtime;
  signal.last_start = 0.0;
  for (const trace::IoOp& op : merged_ops) {
    // Spread the op's bytes across its window at bin resolution so long
    // transfers are not mistaken for instant spikes.
    const auto spread = static_cast<std::size_t>(
        std::max(1.0, std::ceil(op.duration() / bin_seconds)));
    const double chunk =
        static_cast<double>(op.bytes) / static_cast<double>(spread);
    for (std::size_t i = 0; i < spread; ++i) {
      samples.emplace_back(op.start + (static_cast<double>(i) + 0.5) *
                                          op.duration() /
                                          static_cast<double>(spread),
                           chunk);
    }
    signal.total_bytes += static_cast<double>(op.bytes);
    signal.total_op_seconds += op.duration();
    signal.first_start = std::min(signal.first_start, op.start);
    signal.last_start = std::max(signal.last_start, op.start);
  }
  cluster::bin_series(samples, runtime, bin_seconds, workspace.series);
  return finish_frequency(workspace.series, bin_seconds, signal, thresholds,
                          evidence);
}

static PeriodicityResult finish_frequency(
    const std::vector<double>& series, double bin_seconds,
    const FrequencySignal& signal, const Thresholds& thresholds,
    obs::PeriodicityProvenance* evidence) {
  PeriodicityResult result;
  const double total_bytes = signal.total_bytes;
  const double total_op_seconds = signal.total_op_seconds;
  const double first_start = signal.first_start;
  const double last_start = signal.last_start;

  cluster::DftDetectorConfig config;
  config.bin_seconds = bin_seconds;
  config.min_score = thresholds.frequency_min_score;
  const cluster::DftPeriodicity detected =
      cluster::detect_periodicity_dft(series, config);
  if (evidence != nullptr) {
    evidence->frequency.bin_seconds = bin_seconds;
  }

  const double active_span = std::max(last_start - first_start, bin_seconds);
  double best_score = 0.0;
  if (detected.periodic) {
    for (const cluster::SpectralPeak& peak : detected.peaks) {
      best_score = std::max(best_score, peak.score);
      obs::FrequencyPeak peak_evidence;
      peak_evidence.period_seconds = peak.period_seconds;
      peak_evidence.score = peak.score;
      if (peak.score < thresholds.frequency_min_score) {
        if (evidence != nullptr) {
          evidence->frequency.peaks.push_back(peak_evidence);
        }
        continue;
      }
      PeriodicGroup group;
      group.period_seconds = peak.period_seconds;
      group.occurrences = static_cast<std::size_t>(
          std::max(1.0, std::floor(active_span / peak.period_seconds)));
      peak_evidence.occurrences = group.occurrences;
      if (group.occurrences < thresholds.min_group_size) {
        if (evidence != nullptr) {
          evidence->frequency.peaks.push_back(peak_evidence);
        }
        continue;
      }
      // The signal view cannot attribute volume per peak; apportion the trace
      // totals across the occurrences (exact when one periodic op dominates).
      group.mean_bytes = total_bytes / static_cast<double>(group.occurrences);
      group.busy_ratio = std::clamp(
          total_op_seconds / static_cast<double>(group.occurrences) /
              group.period_seconds,
          0.0, 1.0);
      group.magnitude =
          classify_period_magnitude(group.period_seconds, thresholds);
      result.groups.push_back(group);
      if (evidence != nullptr) {
        peak_evidence.accepted = true;
        evidence->frequency.peaks.push_back(peak_evidence);
      }
    }
  }
  result.periodic = !result.groups.empty();
  if (evidence != nullptr) {
    // Verdict margin: how far the strongest comb score sat from min_score,
    // on whichever side the verdict landed.
    evidence->confidence = best_score > 0.0
                               ? boundary_margin(best_score,
                                                 thresholds.frequency_min_score)
                               : 1.0;
    record_groups(*evidence, result);
  }
  return result;
}

}  // namespace mosaic::core
