#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

namespace mosaic::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(13);
  std::array<int, 6> counts{};
  for (int i = 0; i < 60000; ++i) {
    const std::int64_t value = rng.uniform_int(0, 5);
    ASSERT_GE(value, 0);
    ASSERT_LE(value, 5);
    ++counts[static_cast<std::size_t>(value)];
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, 10000, 600);  // ~5 sigma
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t value = rng.uniform_int(-10, -5);
    EXPECT_GE(value, -10);
    EXPECT_LE(value, -5);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sum2 / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kSamples, 10.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(31);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.lognormal(std::log(50.0), 0.5));
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(samples[10000], 50.0, 2.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(37);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(53);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceProbability) {
  Rng rng(59);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(73);
  const std::array<double, 3> weights{1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kSamples), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kSamples), 0.7, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(79);
  const std::array<double, 4> weights{0.0, 1.0, 0.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.categorical(weights), 1u);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(83);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  const Rng parent(97);
  Rng child_a = parent.fork(0);
  Rng child_b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child_a() == child_b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsDeterministic) {
  const Rng parent(101);
  Rng a = parent.fork(5);
  Rng b = parent.fork(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Mix64, StatelessAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

}  // namespace
}  // namespace mosaic::util
