// Temporality characterization (paper §III-B3b, lower half of Fig. 2).
//
// The execution is split into four equal time chunks; each merged op's bytes
// are attributed to the chunks it overlaps (proportional to overlap,
// assuming a uniform transfer rate inside the window). The chunk profile
// then maps to a label: a dominant first chunk means {read,write}_on_start,
// a flat profile (CV < 25%) means steady, and so on.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/categories.hpp"
#include "core/thresholds.hpp"
#include "trace/trace.hpp"

namespace mosaic::obs {
struct TemporalityProvenance;
}  // namespace mosaic::obs

namespace mosaic::core {

/// Per-kind temporality label.
enum class Temporality : std::uint8_t {
  kInsignificant,          ///< volume below Thresholds::min_bytes
  kOnStart,                ///< first chunk dominates
  kAfterStart,             ///< second chunk dominates
  kBeforeEnd,              ///< third chunk dominates
  kOnEnd,                  ///< last chunk dominates
  kAfterStartBeforeEnd,    ///< middle chunks dominate the extremes
  kSteady,                 ///< near-uniform volume across chunks
  kUnclassified,           ///< none of the rules fired (the paper's ~2% tail)
};

[[nodiscard]] const char* temporality_name(Temporality label) noexcept;

/// Flattens (kind, label) into the report category space, e.g.
/// (kWrite, kOnEnd) -> Category::kWriteOnEnd.
[[nodiscard]] Category temporality_category(trace::OpKind kind,
                                            Temporality label) noexcept;

/// Classifier output: the label plus the chunk volumes that produced it
/// (kept for reports and for the accuracy post-mortem).
struct TemporalityResult {
  Temporality label = Temporality::kInsignificant;
  std::vector<double> chunk_bytes;  ///< size == Thresholds::temporality_chunks
  double total_bytes = 0.0;
};

/// Splits `runtime` into chunks and attributes each op's bytes to them by
/// overlap fraction. Ops are clamped into [0, runtime].
[[nodiscard]] std::vector<double> chunk_volumes(
    std::span<const trace::IoOp> ops, double runtime, std::size_t chunks);

/// Applies the rule system to a chunk profile.
/// Rule order: insignificant -> steady -> single-chunk dominance ->
/// middle dominance -> unclassified.
/// When `evidence` is non-null the chunk statistics, the rule that fired and
/// the verdict's margin from the nearest decision boundary are recorded.
[[nodiscard]] Temporality classify_chunks(
    std::span<const double> chunks, double total_bytes,
    const Thresholds& thresholds = {},
    obs::TemporalityProvenance* evidence = nullptr);

/// End-to-end: chunk profile + rules for one op kind of one trace.
[[nodiscard]] TemporalityResult classify_temporality(
    std::span<const trace::IoOp> ops, double runtime,
    const Thresholds& thresholds = {},
    obs::TemporalityProvenance* evidence = nullptr);

}  // namespace mosaic::core
