#include "core/temporality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/provenance.hpp"
#include "util/stats.hpp"

namespace mosaic::core {

namespace {

/// Normalized margin of `value` from `limit`, in [0, 1]; 0 means the
/// statistic sat exactly on the decision boundary.
double boundary_margin(double value, double limit) {
  if (limit <= 0.0) return 1.0;
  return std::clamp(std::abs(limit - value) / limit, 0.0, 1.0);
}

}  // namespace

const char* temporality_name(Temporality label) noexcept {
  switch (label) {
    case Temporality::kInsignificant: return "insignificant";
    case Temporality::kOnStart: return "on_start";
    case Temporality::kAfterStart: return "after_start";
    case Temporality::kBeforeEnd: return "before_end";
    case Temporality::kOnEnd: return "on_end";
    case Temporality::kAfterStartBeforeEnd: return "after_start_before_end";
    case Temporality::kSteady: return "steady";
    case Temporality::kUnclassified: return "unclassified";
  }
  return "unknown";
}

Category temporality_category(trace::OpKind kind, Temporality label) noexcept {
  const bool read = kind == trace::OpKind::kRead;
  switch (label) {
    case Temporality::kOnStart:
      return read ? Category::kReadOnStart : Category::kWriteOnStart;
    case Temporality::kOnEnd:
      return read ? Category::kReadOnEnd : Category::kWriteOnEnd;
    case Temporality::kAfterStart:
      return read ? Category::kReadAfterStart : Category::kWriteAfterStart;
    case Temporality::kBeforeEnd:
      return read ? Category::kReadBeforeEnd : Category::kWriteBeforeEnd;
    case Temporality::kAfterStartBeforeEnd:
      return read ? Category::kReadAfterStartBeforeEnd
                  : Category::kWriteAfterStartBeforeEnd;
    case Temporality::kSteady:
      return read ? Category::kReadSteady : Category::kWriteSteady;
    case Temporality::kInsignificant:
      return read ? Category::kReadInsignificant : Category::kWriteInsignificant;
    case Temporality::kUnclassified:
      return read ? Category::kReadUnclassified : Category::kWriteUnclassified;
  }
  return Category::kReadUnclassified;
}

std::vector<double> chunk_volumes(std::span<const trace::IoOp> ops,
                                  double runtime, std::size_t chunks) {
  MOSAIC_ASSERT(runtime > 0.0);
  MOSAIC_ASSERT(chunks >= 1);
  std::vector<double> volumes(chunks, 0.0);
  const double chunk_len = runtime / static_cast<double>(chunks);
  for (const trace::IoOp& op : ops) {
    // Clamp the window into the job; corrupted inputs were evicted earlier,
    // but the slack-tolerant validator admits small excursions.
    const double start = std::clamp(op.start, 0.0, runtime);
    const double end = std::clamp(op.end, 0.0, runtime);
    const double duration = end - start;
    if (duration <= 0.0) {
      // Degenerate window: attribute everything to the containing chunk.
      auto index = static_cast<std::size_t>(
          std::min(start / chunk_len, static_cast<double>(chunks - 1)));
      volumes[index] += static_cast<double>(op.bytes);
      continue;
    }
    const auto first_chunk = static_cast<std::size_t>(
        std::min(start / chunk_len, static_cast<double>(chunks - 1)));
    const auto last_chunk = static_cast<std::size_t>(
        std::min(end / chunk_len, static_cast<double>(chunks - 1)));
    for (std::size_t c = first_chunk; c <= last_chunk; ++c) {
      const double chunk_start = static_cast<double>(c) * chunk_len;
      const double chunk_end = chunk_start + chunk_len;
      const double overlap =
          std::min(end, chunk_end) - std::max(start, chunk_start);
      if (overlap <= 0.0) continue;
      volumes[c] += static_cast<double>(op.bytes) * (overlap / duration);
    }
  }
  return volumes;
}

Temporality classify_chunks(std::span<const double> chunks, double total_bytes,
                            const Thresholds& thresholds,
                            obs::TemporalityProvenance* evidence) {
  // The verdict's margin from the rule boundary that decided it; for the
  // unclassified tail, the distance to the *nearest* rule that almost fired
  // (the paper's 8% error concentrates exactly in these straddling cases).
  const auto conclude = [&](Temporality label, const char* rule,
                            double confidence,
                            std::int64_t dominant_chunk = -1) {
    if (evidence != nullptr) {
      evidence->chunk_bytes.assign(chunks.begin(), chunks.end());
      evidence->total_bytes = total_bytes;
      evidence->min_bytes_threshold =
          static_cast<double>(thresholds.min_bytes);
      evidence->chunk_cv = chunks.empty()
                               ? 0.0
                               : util::coefficient_of_variation(chunks);
      evidence->steady_cv_threshold = thresholds.steady_cv;
      evidence->dominance_factor = thresholds.dominance_factor;
      evidence->dominant_chunk = dominant_chunk;
      evidence->rule = rule;
      evidence->label = temporality_name(label);
      evidence->confidence = std::clamp(confidence, 0.0, 1.0);
    }
    return label;
  };

  if (total_bytes < static_cast<double>(thresholds.min_bytes)) {
    return conclude(
        Temporality::kInsignificant, "insignificant",
        boundary_margin(total_bytes,
                        static_cast<double>(thresholds.min_bytes)));
  }
  MOSAIC_ASSERT(chunks.size() >= 4);

  const double cv = util::coefficient_of_variation(chunks);
  if (cv < thresholds.steady_cv) {
    return conclude(Temporality::kSteady, "steady",
                    boundary_margin(cv, thresholds.steady_cv));
  }

  // Single-chunk dominance: strictly more than `dominance_factor` times
  // every other chunk. The dominance ratio of chunk i is its tightest lead
  // over any other chunk; the verdict margin is that ratio's distance from
  // the factor.
  const double factor = thresholds.dominance_factor;
  double best_ratio = 0.0;  // closest miss, for the unclassified margin
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i] <= 0.0) continue;
    double ratio = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < chunks.size(); ++j) {
      if (j == i) continue;
      ratio = chunks[j] > 0.0 ? std::min(ratio, chunks[i] / chunks[j]) : ratio;
    }
    best_ratio = std::max(best_ratio, std::isfinite(ratio) ? ratio : factor * 2.0);
    if (ratio <= factor) continue;
    const double margin =
        std::isfinite(ratio) ? boundary_margin(ratio, factor) : 1.0;
    const auto chunk_index = static_cast<std::int64_t>(i);
    if (i == 0) {
      return conclude(Temporality::kOnStart, "chunk-dominance", margin,
                      chunk_index);
    }
    if (i == chunks.size() - 1) {
      return conclude(Temporality::kOnEnd, "chunk-dominance", margin,
                      chunk_index);
    }
    if (i == 1) {
      return conclude(Temporality::kAfterStart, "chunk-dominance", margin,
                      chunk_index);
    }
    if (i == chunks.size() - 2) {
      return conclude(Temporality::kBeforeEnd, "chunk-dominance", margin,
                      chunk_index);
    }
    // With more than four chunks an interior dominance maps to the middle
    // label below.
    return conclude(Temporality::kAfterStartBeforeEnd, "chunk-dominance",
                    margin, chunk_index);
  }

  // Middle dominance: the interior chunks jointly outweigh the extremes.
  double middle = 0.0;
  for (std::size_t i = 1; i + 1 < chunks.size(); ++i) middle += chunks[i];
  const double extremes = chunks.front() + chunks.back();
  const double middle_ratio =
      extremes > 0.0 ? middle / extremes : std::numeric_limits<double>::infinity();
  if (middle_ratio > factor) {
    return conclude(Temporality::kAfterStartBeforeEnd, "middle-dominance",
                    std::isfinite(middle_ratio)
                        ? boundary_margin(middle_ratio, factor)
                        : 1.0);
  }

  // Nothing fired: the margin is the distance to whichever rule came
  // closest — low values flag the straddling cases.
  const double near_steady = boundary_margin(cv, thresholds.steady_cv);
  const double near_dominance = boundary_margin(best_ratio, factor);
  const double near_middle =
      std::isfinite(middle_ratio) ? boundary_margin(middle_ratio, factor) : 1.0;
  return conclude(Temporality::kUnclassified, "unclassified",
                  std::min({near_steady, near_dominance, near_middle}));
}

TemporalityResult classify_temporality(std::span<const trace::IoOp> ops,
                                       double runtime,
                                       const Thresholds& thresholds,
                                       obs::TemporalityProvenance* evidence) {
  TemporalityResult result;
  result.chunk_bytes = chunk_volumes(ops, runtime, thresholds.temporality_chunks);
  for (const trace::IoOp& op : ops) {
    result.total_bytes += static_cast<double>(op.bytes);
  }
  result.label = classify_chunks(result.chunk_bytes, result.total_bytes,
                                 thresholds, evidence);
  return result;
}

}  // namespace mosaic::core
