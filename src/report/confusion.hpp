// Accuracy drill-down from provenance joins (paper §IV-E).
//
// The paper validates accuracy by manual inspection and attributes its 8%
// error to temporality edge cases. This module reproduces that drill-down
// automatically: provenance records captured during a batch run are joined
// against the generator's ground-truth sidecar (sim::TruthRecord) to
// produce a per-category confusion matrix, per-axis confidence histograms
// (the obs histogram type buckets them), and a ranked list of the ambiguous
// straddling cases — *without re-running the analysis*: everything is
// computed from the recorded category sets and decision margins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "report/accuracy.hpp"
#include "sim/truth.hpp"

namespace mosaic::report {

/// Per-category confusion counts over the joined traces.
struct CategoryConfusion {
  std::string category;
  std::uint64_t true_positive = 0;   ///< predicted and planted
  std::uint64_t false_positive = 0;  ///< predicted, not planted
  std::uint64_t false_negative = 0;  ///< planted, not predicted
  std::uint64_t true_negative = 0;   ///< neither

  [[nodiscard]] double precision() const noexcept {
    const std::uint64_t predicted = true_positive + false_positive;
    return predicted == 0 ? 1.0
                          : static_cast<double>(true_positive) /
                                static_cast<double>(predicted);
  }
  [[nodiscard]] double recall() const noexcept {
    const std::uint64_t planted = true_positive + false_negative;
    return planted == 0 ? 1.0
                        : static_cast<double>(true_positive) /
                              static_cast<double>(planted);
  }
};

/// Bucketed decision-margin distribution for one axis, exported as plain
/// data from an obs::Histogram (which itself is neither copyable nor
/// movable).
struct AxisConfidence {
  std::string axis;  ///< read_temporality, ..., metadata
  std::vector<double> bounds;            ///< inclusive upper edges
  std::vector<std::uint64_t> buckets;    ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// One trace ranked by how close its weakest axis sat to a decision
/// boundary — the straddling cases the paper blames for its 8% error.
struct StraddlingCase {
  std::string app_key;
  std::uint64_t job_id = 0;
  std::string axis;          ///< the lowest-confidence axis
  double confidence = 0.0;   ///< that axis's decision margin, [0,1]
  bool mismatched = false;   ///< any axis disagreed with the truth
  bool truth_ambiguous = false;  ///< the generator planted it as ambiguous
};

/// The complete drill-down.
struct ConfusionReport {
  std::size_t joined = 0;         ///< provenance records with a truth entry
  std::size_t missing_truth = 0;  ///< records with no truth entry (skipped)

  AxisAccuracy read_temporality;
  AxisAccuracy write_temporality;
  AxisAccuracy read_periodicity;
  AxisAccuracy write_periodicity;
  AxisAccuracy metadata;
  AxisAccuracy overall;  ///< per-trace: every axis correct

  std::vector<CategoryConfusion> categories;  ///< only categories with support
  std::vector<AxisConfidence> confidence;     ///< the five axes, fixed order
  std::vector<StraddlingCase> straddling;     ///< ranked, least confident first
};

/// Joins provenance records against the truth sidecar. `max_straddling`
/// bounds the ranked list (0 keeps every joined trace).
[[nodiscard]] ConfusionReport build_confusion(
    const std::vector<obs::TraceProvenance>& records,
    const std::vector<sim::TruthRecord>& truths,
    std::size_t max_straddling = 20);

/// Renders the drill-down as a markdown fragment (tables + ranked list).
[[nodiscard]] std::string render_confusion(const ConfusionReport& report);

}  // namespace mosaic::report
