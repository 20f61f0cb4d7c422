#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace mosaic::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.coefficient_of_variation(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 5.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // textbook population variance
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.coefficient_of_variation(), 0.4);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);  // empty.merge(non-empty)
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  RunningStats empty;
  a.merge(empty);  // non-empty.merge(empty)
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(Summarize, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
}

TEST(Summarize, MatchesRunningStats) {
  const std::array<double, 5> values{1.0, 2.0, 3.0, 4.0, 10.0};
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.sum, 20.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(Percentile, MedianAndExtremes) {
  const std::array<double, 5> values{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::array<double, 4> values{0.0, 10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 15.0);
}

TEST(CoefficientOfVariation, UniformChunksAreSteady) {
  const std::array<double, 4> even{100.0, 100.0, 100.0, 100.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(even), 0.0);
  const std::array<double, 4> skewed{400.0, 1.0, 1.0, 1.0};
  EXPECT_GT(coefficient_of_variation(skewed), 1.0);
}

TEST(SimdAb, SumExactForIntegerValuedDoubles) {
  // Byte/request counters are integer-valued doubles < 2^53: any
  // association sums them exactly, so the four-lane sum must equal the
  // plain sequential sum bit for bit on the counts Histogram::total adds.
  std::vector<double> counts;
  double sequential = 0.0;
  for (std::size_t i = 0; i < 1001; ++i) {
    const double v = static_cast<double>((i * 7919) % 100000);
    counts.push_back(v);
    sequential += v;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum(counts)),
            std::bit_cast<std::uint64_t>(sequential));
}

TEST(SimdSum, EmptyIsZero) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum(std::span<const double>{})),
            std::bit_cast<std::uint64_t>(0.0));
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps into bin 0
  h.add(100.0);  // clamps into bin 9
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, WeightsAccumulate) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.5, 10.0);
  h.add(1.7, 5.0);
  EXPECT_DOUBLE_EQ(h.count(1), 15.0);
}

TEST(Histogram, BinEdges) {
  Histogram h(10.0, 20.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 18.0);
  h.add(12.0);  // [12,14) is bin 1
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
}

// Regression coverage for the edge-clamp rewrite: the clamp now happens in
// double space before any integer conversion, so the adversarial inputs
// below have defined, deterministic bins instead of a double->integer cast
// with undefined behavior — while every in-range value keeps its old bin.
TEST(Histogram, ValueAtHiLandsInLastBin) {
  Histogram h(0.0, 10.0, 10);
  h.add(10.0);  // == hi exactly
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 1.0);
}

TEST(Histogram, NonFiniteAndHugeValuesClampDeterministically) {
  Histogram h(0.0, 4.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN(), 1.0);
  h.add(std::numeric_limits<double>::infinity(), 2.0);
  h.add(1e300, 4.0);
  h.add(-std::numeric_limits<double>::infinity(), 8.0);
  h.add(-1e300, 16.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0 + 2.0 + 4.0);  // NaN and +huge: last bin
  EXPECT_DOUBLE_EQ(h.count(0), 8.0 + 16.0);       // -huge: first bin
  EXPECT_DOUBLE_EQ(h.total(), 31.0);
}

TEST(Histogram, InRangeBinsMatchTheOriginalFormulation) {
  // Metric-byte stability of the funnel histograms: for every in-range
  // value the rewritten clamp must pick the same bin as the original
  // floor-then-clamp-in-integer-space code, weight for weight.
  constexpr std::size_t kBins = 50;
  Histogram h(0.0, 100.0, kBins);
  std::array<double, kBins> reference{};
  for (int i = 0; i < 1000; ++i) {
    const double value = static_cast<double>(i) * 0.1;
    const double weight = 1.0 + static_cast<double>(i % 7);
    h.add(value, weight);
    // The pre-rewrite formulation: floor in double, then clamp the integer.
    const auto bin = std::min<std::size_t>(
        static_cast<std::size_t>(std::floor(value / h.bin_width())),
        kBins - 1);
    reference[bin] += weight;
  }
  for (std::size_t b = 0; b < kBins; ++b) {
    EXPECT_DOUBLE_EQ(h.count(b), reference[b]) << "bin=" << b;
  }
}

}  // namespace
}  // namespace mosaic::util
