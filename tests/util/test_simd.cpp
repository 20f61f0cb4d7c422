#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

namespace mosaic::util::simd {
namespace {

constexpr double kDenormal = 4.9406564584124654e-324;  // smallest subnormal
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool avx2_available() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

::testing::AssertionResult bit_equal(double a, double b) {
  if (bits(a) == bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << bits(a) << ") != " << std::dec << b
         << " (0x" << std::hex << bits(b) << ")";
}

/// Deterministic xorshift values in roughly [-8, 8), salted with denormals
/// and exact zeros — adversarial but NaN-free (reduction kernels only
/// promise identity for NaN-free input).
std::vector<double> adversarial_column(std::size_t n, std::uint64_t seed) {
  std::vector<double> out;
  out.reserve(n);
  std::uint64_t s = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    switch (s % 8) {
      case 0: out.push_back(0.0); break;
      case 1: out.push_back(-0.0); break;
      case 2: out.push_back(kDenormal * static_cast<double>(1 + s % 100)); break;
      case 3: out.push_back(-kDenormal * static_cast<double>(1 + s % 100)); break;
      default:
        out.push_back(static_cast<double>(static_cast<std::int64_t>(s % 16000) -
                                          8000) /
                      1000.0);
        break;
    }
  }
  return out;
}

/// Every A/B test runs both levels explicitly and restores dispatch after.
class SimdAb : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2_available()) {
      GTEST_SKIP() << "no AVX2+FMA on this machine; scalar is the only path";
    }
  }
  void TearDown() override { clear_level_for_testing(); }
};

// --- dispatch policy --------------------------------------------------------

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ(level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(level_name(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, TestOverridePinsAndClears) {
  set_level_for_testing(Level::kScalar);
  EXPECT_EQ(active_level(), Level::kScalar);
  clear_level_for_testing();
  const Level detected = active_level();
  if (avx2_available() && std::getenv("MOSAIC_FORCE_SCALAR") == nullptr) {
    EXPECT_EQ(detected, Level::kAvx2);
  } else if (!avx2_available()) {
    EXPECT_EQ(detected, Level::kScalar);
  }
}

// --- sum --------------------------------------------------------------------

TEST_F(SimdAb, SumExactForIntegerValuedDoubles) {
  // Byte/request counters are integer-valued doubles < 2^53: any
  // association sums them exactly, so the lane-structured sum must equal
  // the plain sequential sum bit for bit — the argument that keeps the
  // meanshift golden byte-identical.
  std::vector<double> counts;
  double sequential = 0.0;
  for (std::size_t i = 0; i < 1001; ++i) {
    const double v = static_cast<double>((i * 7919) % 100000);
    counts.push_back(v);
    sequential += v;
  }
  EXPECT_TRUE(bit_equal(sum(counts), sequential));
}

TEST(SimdSum, EmptyIsZero) {
  EXPECT_TRUE(bit_equal(sum(std::span<const double>{}), 0.0));
}

// --- max_and_count_ge -------------------------------------------------------

TEST_F(SimdAb, MaxAndCountBitIdenticalAcrossLevels) {
  for (std::size_t n = 0; n <= 67; ++n) {
    const auto values = adversarial_column(n, 1000 + n);
    for (const double threshold : {-1.0, 0.0, kDenormal, 2.5}) {
      std::size_t count_scalar = 9999, count_avx2 = 7777;
      const double max_scalar =
          max_and_count_ge(values, threshold, count_scalar, Level::kScalar);
      const double max_avx2 =
          max_and_count_ge(values, threshold, count_avx2, Level::kAvx2);
      EXPECT_TRUE(bit_equal(max_scalar, max_avx2)) << "n=" << n;
      EXPECT_EQ(count_scalar, count_avx2) << "n=" << n;
    }
  }
}

TEST(SimdMaxCount, EmptyIsMinusInfinityZero) {
  std::size_t count = 42;
  const double max =
      max_and_count_ge(std::span<const double>{}, 1.0, count, Level::kScalar);
  EXPECT_EQ(max, -kInf);
  EXPECT_EQ(count, 0u);
}

TEST(SimdMaxCount, ThresholdIsInclusive) {
  const std::vector<double> values{1.0, 2.0, 2.0, 3.0};
  std::size_t count = 0;
  const double max = max_and_count_ge(values, 2.0, count, Level::kScalar);
  EXPECT_EQ(max, 3.0);
  EXPECT_EQ(count, 3u);  // the two 2.0s and the 3.0
}

// --- bin_add ----------------------------------------------------------------

TEST_F(SimdAb, BinAddBitIdenticalAcrossLevels) {
  const double bin_seconds = 0.75;
  constexpr std::size_t kBins = 16;
  for (std::size_t n = 0; n <= 37; ++n) {
    auto times = adversarial_column(n, 31 + n);
    const auto weights = adversarial_column(n, 500 + n);
    // Salt with the clamp-sensitive cases: far out of range both ways,
    // infinities, and NaN (the old double->integer cast made these UB).
    if (n >= 5) {
      times[0] = -1e300;
      times[1] = 1e300;
      times[2] = kInf;
      times[3] = -kInf;
      times[4] = kNaN;
    }
    std::vector<double> bins_scalar(kBins, 0.0);
    std::vector<double> bins_avx2(kBins, 0.0);
    bin_add(times.data(), weights.data(), n, bin_seconds, bins_scalar.data(),
            kBins, Level::kScalar);
    bin_add(times.data(), weights.data(), n, bin_seconds, bins_avx2.data(),
            kBins, Level::kAvx2);
    for (std::size_t b = 0; b < kBins; ++b) {
      EXPECT_TRUE(bit_equal(bins_scalar[b], bins_avx2[b]))
          << "n=" << n << " bin=" << b;
    }
  }
}

TEST(SimdBinAdd, ClampsEdgesDeterministically) {
  const double times[] = {-5.0, 0.0, 3.999, 4.0, 100.0, kNaN};
  const double weights[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  double bins[4] = {0, 0, 0, 0};
  bin_add(times, weights, 6, 1.0, bins, 4, Level::kScalar);
  EXPECT_EQ(bins[0], 3.0);                  // -5.0 clamps low; 0.0 is bin 0
  EXPECT_EQ(bins[3], 4.0 + 8.0 + 16.0 + 32.0);  // 3.999, >=hi, huge, NaN
}

TEST(SimdBinAdd, EmptyInputsAreNoOps) {
  double bins[2] = {1.0, 2.0};
  bin_add(nullptr, nullptr, 0, 1.0, bins, 2, Level::kScalar);
  EXPECT_EQ(bins[0], 1.0);
  EXPECT_EQ(bins[1], 2.0);
  bin_add(bins, bins, 2, 1.0, nullptr, 0, Level::kScalar);  // nbins == 0
}

// --- FFT kernels ------------------------------------------------------------

std::vector<std::complex<double>> adversarial_complex(std::size_t n,
                                                      std::uint64_t seed) {
  const auto re = adversarial_column(n, seed);
  const auto im = adversarial_column(n, seed + 77);
  std::vector<std::complex<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = {re[i], im[i]};
  return out;
}

::testing::AssertionResult complex_bit_equal(std::complex<double> a,
                                             std::complex<double> b) {
  if (bits(a.real()) == bits(b.real()) && bits(a.imag()) == bits(b.imag())) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "(" << a.real() << "," << a.imag() << ") != (" << b.real() << ","
         << b.imag() << ")";
}

TEST_F(SimdAb, ButterflyBitIdenticalAcrossLevels) {
  // Odd counts exercise the scalar tail after the two-complex AVX2 body.
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{7}, std::size_t{16},
                            std::size_t{33}}) {
    auto even_s = adversarial_complex(count, count + 3);
    auto odd_s = adversarial_complex(count, count + 11);
    const auto twiddles = adversarial_complex(count, count + 19);
    auto even_v = even_s;
    auto odd_v = odd_s;
    fft_butterfly(even_s.data(), odd_s.data(), twiddles.data(), count,
                  Level::kScalar);
    fft_butterfly(even_v.data(), odd_v.data(), twiddles.data(), count,
                  Level::kAvx2);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(complex_bit_equal(even_s[i], even_v[i])) << "count=" << count;
      EXPECT_TRUE(complex_bit_equal(odd_s[i], odd_v[i])) << "count=" << count;
    }
  }
}

TEST_F(SimdAb, ComplexNormBitIdenticalAcrossLevels) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{64}, std::size_t{129}}) {
    auto data_s = adversarial_complex(n, n + 23);
    auto data_v = data_s;
    complex_norm(data_s.data(), n, Level::kScalar);
    complex_norm(data_v.data(), n, Level::kAvx2);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(complex_bit_equal(data_s[i], data_v[i])) << "n=" << n;
      EXPECT_EQ(data_s[i].imag(), 0.0);  // power spectrum is real
    }
  }
}

TEST_F(SimdAb, ComplexScaleDivBitIdenticalAcrossLevels) {
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{17}}) {
    auto data_s = adversarial_complex(n, n + 41);
    auto data_v = data_s;
    complex_scale_div(data_s.data(), n, 1024.0, Level::kScalar);
    complex_scale_div(data_v.data(), n, 1024.0, Level::kAvx2);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(complex_bit_equal(data_s[i], data_v[i])) << "n=" << n;
    }
  }
}

TEST(SimdComplexMul, MatchesFmaRoundingStructure) {
  const std::complex<double> a{1.0 / 3.0, -2.0 / 7.0};
  const std::complex<double> b{5.0 / 11.0, 3.0 / 13.0};
  const auto got = complex_mul_fma(a, b);
  const double re =
      std::fma(a.real(), b.real(), -(a.imag() * b.imag()));
  const double im = std::fma(a.imag(), b.real(), a.real() * b.imag());
  EXPECT_TRUE(bit_equal(got.real(), re));
  EXPECT_TRUE(bit_equal(got.imag(), im));
}

TEST(SimdComplexMul, UnitTwiddleIsExactIdentityOnDenormals) {
  const std::complex<double> a{kDenormal, -kDenormal};
  const auto got = complex_mul_fma(a, {1.0, 0.0});
  EXPECT_TRUE(bit_equal(got.real(), a.real()));
  EXPECT_TRUE(bit_equal(got.imag(), a.imag()));
}

}  // namespace
}  // namespace mosaic::util::simd
