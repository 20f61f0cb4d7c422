#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mosaic::util {

void RunningStats::add(double value) noexcept {
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::coefficient_of_variation() const noexcept {
  if (mean_ == 0.0) return 0.0;
  return stddev() / std::abs(mean_);
}

Summary summarize(std::span<const double> values) noexcept {
  RunningStats acc;
  for (double v : values) acc.add(v);
  Summary s;
  s.count = acc.count();
  if (s.count == 0) return s;
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.cv = acc.coefficient_of_variation();
  s.min = acc.min();
  s.max = acc.max();
  s.sum = acc.sum();
  return s;
}

double percentile(std::span<const double> values, double q) {
  MOSAIC_ASSERT(!values.empty());
  MOSAIC_ASSERT(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - std::floor(pos);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double coefficient_of_variation(std::span<const double> values) noexcept {
  return summarize(values).cv;
}

double sum(std::span<const double> values) noexcept {
  const double* x = values.data();
  const std::size_t n = values.size();
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  double total = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) total += x[i];
  return total;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  MOSAIC_ASSERT(lo < hi);
  MOSAIC_ASSERT(bins >= 1);
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0.0);
}

void Histogram::reset(double lo, double hi, std::size_t bins) {
  MOSAIC_ASSERT(lo < hi);
  MOSAIC_ASSERT(bins >= 1);
  lo_ = lo;
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0.0);
}

void Histogram::add(double value, double weight) noexcept {
  // Clamp in double space BEFORE the integer conversion (as
  // cluster::bin_series does): values at or beyond hi land in the last bin
  // as before, but values too large for ptrdiff_t — and NaN — now clamp into
  // an edge bin instead of a double->integer cast with undefined behavior.
  // For every in-range value the selected bin is identical to the old
  // formulation, so funnel histogram metrics are byte-stable under this fix.
  const double max_index = static_cast<double>(counts_.size() - 1);
  double pos = std::floor((value - lo_) / width_);
  pos = pos < max_index ? pos : max_index;
  pos = pos > 0.0 ? pos : 0.0;
  counts_[static_cast<std::size_t>(pos)] += weight;
}

double Histogram::bin_lo(std::size_t i) const noexcept {
  return lo_ + static_cast<double>(i) * width_;
}

double Histogram::total() const noexcept {
  // Exact, hence association-free, for the integer-valued weights every
  // histogram in the pipeline records.
  return sum(counts_);
}

}  // namespace mosaic::util
