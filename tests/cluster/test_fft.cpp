#include "cluster/fft.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

namespace mosaic::cluster {
namespace {

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, DeltaFunctionHasFlatSpectrum) {
  std::vector<std::complex<double>> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  fft(data);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kTone = 5;
  std::vector<std::complex<double>> data(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double phase = 2.0 * std::numbers::pi *
                         static_cast<double>(kTone * i) /
                         static_cast<double>(kN);
    data[i] = {std::cos(phase), 0.0};
  }
  fft(data);
  for (std::size_t k = 0; k < kN; ++k) {
    const double magnitude = std::abs(data[k]);
    if (k == kTone || k == kN - kTone) {
      EXPECT_NEAR(magnitude, kN / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(magnitude, 0.0, 1e-9);
    }
  }
}

TEST(Fft, ForwardInverseIsIdentity) {
  std::vector<std::complex<double>> data;
  for (int i = 0; i < 32; ++i) {
    data.emplace_back(std::sin(i * 0.7), std::cos(i * 1.3));
  }
  const auto original = data;
  fft(data);
  fft(data, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  std::vector<std::complex<double>> data;
  for (int i = 0; i < 128; ++i) data.emplace_back(std::sin(i * 0.3), 0.0);
  double time_energy = 0.0;
  for (const auto& x : data) time_energy += std::norm(x);
  fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(data.size()), time_energy,
              1e-8);
}

TEST(BinSeries, AccumulatesIntoBins) {
  const std::vector<std::pair<double, double>> samples{
      {0.5, 10.0}, {0.9, 5.0}, {3.2, 1.0}, {-1.0, 2.0}, {99.0, 3.0}};
  const auto series = bin_series(samples, 10.0, 1.0);
  ASSERT_EQ(series.size(), 10u);
  EXPECT_DOUBLE_EQ(series[0], 17.0);  // 10 + 5 + clamped 2
  EXPECT_DOUBLE_EQ(series[3], 1.0);
  EXPECT_DOUBLE_EQ(series[9], 3.0);  // clamped from t=99
}

TEST(BinSeries, ClampsEdgesDeterministically) {
  // The clamp runs in double space before the integer conversion, so
  // negative, at-or-past-the-end, huge and NaN times have defined edge bins.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> samples{
      {-5.0, 1.0},   {0.0, 2.0},  {3.999, 4.0}, {4.0, 8.0},
      {100.0, 16.0}, {nan, 32.0}, {1e300, 64.0}};
  const auto series = bin_series(samples, 4.0, 1.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0], 3.0);  // -5.0 clamps low; 0.0 is bin 0
  EXPECT_EQ(series[1], 0.0);
  EXPECT_EQ(series[2], 0.0);
  // 3.999, 4.0 (== hi), 100.0, NaN and 1e300 all land in the last bin.
  EXPECT_EQ(series[3], 4.0 + 8.0 + 16.0 + 32.0 + 64.0);
}

::testing::AssertionResult bit_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " bitwise";
}

TEST(ComplexMulFma, MatchesFmaRoundingStructure) {
  const std::complex<double> a{1.0 / 3.0, -2.0 / 7.0};
  const std::complex<double> b{5.0 / 11.0, 3.0 / 13.0};
  const auto got = complex_mul_fma(a, b);
  const double re = std::fma(a.real(), b.real(), -(a.imag() * b.imag()));
  const double im = std::fma(a.imag(), b.real(), a.real() * b.imag());
  EXPECT_TRUE(bit_equal(got.real(), re));
  EXPECT_TRUE(bit_equal(got.imag(), im));
}

TEST(ComplexMulFma, UnitTwiddleIsExactIdentityOnDenormals) {
  constexpr double kDenormal = 4.9406564584124654e-324;  // smallest subnormal
  const std::complex<double> a{kDenormal, -kDenormal};
  const auto got = complex_mul_fma(a, {1.0, 0.0});
  EXPECT_TRUE(bit_equal(got.real(), a.real()));
  EXPECT_TRUE(bit_equal(got.imag(), a.imag()));
}

TEST(DftDetector, FindsPlantedPeriod) {
  // 1 burst every 60 seconds over an hour, 1-second bins.
  std::vector<double> series(3600, 0.0);
  for (std::size_t t = 30; t < series.size(); t += 60) series[t] = 100.0;
  const DftPeriodicity result = detect_periodicity_dft(series);
  ASSERT_TRUE(result.periodic);
  ASSERT_FALSE(result.peaks.empty());
  EXPECT_NEAR(result.peaks.front().period_seconds, 60.0, 2.0);
}

TEST(DftDetector, FlatSignalIsNotPeriodic) {
  const std::vector<double> series(512, 5.0);
  const DftPeriodicity result = detect_periodicity_dft(series);
  EXPECT_FALSE(result.periodic);
}

TEST(DftDetector, WhiteNoiseIsNotPeriodic) {
  std::vector<double> series;
  std::uint64_t state = 12345;
  for (int i = 0; i < 1024; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    series.push_back(static_cast<double>(state >> 40));
  }
  const DftPeriodicity result = detect_periodicity_dft(series);
  EXPECT_FALSE(result.periodic);
}

TEST(DftDetector, TooShortSeriesRejected) {
  const std::vector<double> series{1.0, 2.0, 1.0};
  EXPECT_FALSE(detect_periodicity_dft(series).periodic);
}

TEST(DftDetector, TwoMixedPeriodsFindDominantOnly) {
  // The case the paper says frequency methods "fail to distinguish": two
  // intricate superposed periodic behaviors. The detector finds the
  // dominant train; the lighter one drowns in the dominant train's
  // autocorrelation structure (its confidence falls below the significance
  // gate). This documented limitation is what the segmentation+Mean-Shift
  // approach — clustering per-operation (duration, volume) signatures —
  // is designed to avoid (see bench/ablation_dft_vs_meanshift).
  std::vector<double> series(4096, 0.0);
  for (std::size_t t = 0; t < series.size(); t += 64) series[t] += 50.0;
  for (std::size_t t = 10; t < series.size(); t += 100) series[t] += 50.0;
  const DftPeriodicity result = detect_periodicity_dft(series);
  ASSERT_TRUE(result.periodic);
  ASSERT_FALSE(result.peaks.empty());
  EXPECT_NEAR(result.peaks.front().period_seconds, 64.0, 3.0);
}

TEST(DftDetector, ScoreWithinUnitRange) {
  std::vector<double> series(512, 0.0);
  for (std::size_t t = 0; t < series.size(); t += 32) series[t] = 10.0;
  const DftPeriodicity result = detect_periodicity_dft(series);
  for (const auto& peak : result.peaks) {
    EXPECT_GE(peak.score, 0.0);
    EXPECT_LE(peak.score, 1.0);
  }
}

}  // namespace
}  // namespace mosaic::cluster
