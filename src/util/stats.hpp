// Descriptive statistics used throughout the classifiers and reports.
//
// The temporality classifier relies on the coefficient of variation of
// per-chunk volumes (paper SIII-B3b); the metadata classifier and reports use
// per-second histograms, means and percentiles.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace mosaic::util {

/// Streaming mean/variance accumulator (Welford), numerically stable.
class RunningStats {
 public:
  /// Incorporates one observation.
  void add(double value) noexcept;

  /// Merges another accumulator (parallel reduction), Chan et al. update.
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Population variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// stddev / mean; 0 when mean == 0 (the classifier treats an all-zero
  /// chunk vector as perfectly steady-but-insignificant).
  [[nodiscard]] double coefficient_of_variation() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// One-shot summary of a sample.
struct Summary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double cv = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Computes a Summary over `values` (empty input yields a zero Summary).
[[nodiscard]] Summary summarize(std::span<const double> values) noexcept;

/// Linear-interpolated percentile, q in [0,1]. Sorts a copy.
/// Precondition: values non-empty.
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// Coefficient of variation of a sample (0 when mean is 0 or input empty).
[[nodiscard]] double coefficient_of_variation(
    std::span<const double> values) noexcept;

/// Four-lane sum: element i accumulates into lane i % 4, the lanes reduce as
/// (l0 + l2) + (l1 + l3), and the n % 4 tail folds into the reduced value
/// afterwards. The association is part of the result: the DFT detector's
/// mean over fractional binned weights uses it, so the frequency-backend
/// golden depends on it. Integer-valued doubles below 2^53 (byte and
/// request counts) sum exactly in any association.
[[nodiscard]] double sum(std::span<const double> values) noexcept;

/// Fixed-width binned histogram over [lo, hi). Values outside the range are
/// clamped into the first/last bin so counts are never dropped — the metadata
/// spike detector wants total request conservation.
class Histogram {
 public:
  /// Precondition: lo < hi, bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  /// Re-initializes to a new range and bin count, reusing the bin storage.
  /// Same preconditions as the constructor.
  void reset(double lo, double hi, std::size_t bins);

  /// Adds `weight` to the bin containing `value` (clamped).
  void add(double value, double weight = 1.0) noexcept;

  [[nodiscard]] double bin_width() const noexcept { return width_; }
  /// Inclusive lower edge of bin i.
  [[nodiscard]] double bin_lo(std::size_t i) const noexcept;
  [[nodiscard]] double count(std::size_t i) const noexcept { return counts_[i]; }
  [[nodiscard]] std::span<const double> counts() const noexcept { return counts_; }
  [[nodiscard]] double total() const noexcept;

 private:
  double lo_;
  double width_;
  std::vector<double> counts_;
};

}  // namespace mosaic::util
