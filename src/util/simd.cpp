#include "util/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MOSAIC_SIMD_X86 1
#endif

namespace mosaic::util::simd {

namespace {

/// CPUID + environment dispatch, evaluated once. MOSAIC_FORCE_SCALAR accepts
/// any non-empty value other than "0" (mirrors the usual boolean env idiom).
Level detect_level() noexcept {
#if defined(MOSAIC_SIMD_X86)
  const char* force = std::getenv("MOSAIC_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return Level::kScalar;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

std::atomic<int> g_level{-1};     ///< resolved CPUID/env level, -1 = unset
std::atomic<int> g_override{-1};  ///< test override, -1 = none

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

Level active_level() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  int cached = g_level.load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = static_cast<int>(detect_level());
    g_level.store(cached, std::memory_order_relaxed);
  }
  return static_cast<Level>(cached);
}

void set_level_for_testing(Level level) noexcept {
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_level_for_testing() noexcept {
  g_override.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// sum
// ---------------------------------------------------------------------------

double sum(std::span<const double> values) noexcept {
  // Four lanes + fixed (l0+l2)+(l1+l3) reduce. The compiler vectorizes this
  // loop itself; a hand-written AVX2 variant never beat it.
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

// ---------------------------------------------------------------------------
// max_and_count_ge
// ---------------------------------------------------------------------------

namespace {

double max_scalar(const double* x, std::size_t n, double threshold,
                  std::size_t& count_ge) noexcept {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    best = x[i] > best ? x[i] : best;
    if (x[i] >= threshold) ++count;
  }
  count_ge = count;
  return best;
}

#if defined(MOSAIC_SIMD_X86)
__attribute__((target("avx2,fma"))) double max_avx2(
    const double* x, std::size_t n, double threshold,
    std::size_t& count_ge) noexcept {
  __m256d best = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const __m256d thr = _mm256_set1_pd(threshold);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    best = _mm256_max_pd(best, v);
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(v, thr, _CMP_GE_OQ));
    count += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(mask)));
  }
  // Max is order-independent-exact for NaN-free input, so the reduce order
  // does not need to mirror the scalar loop.
  const __m128d pair = _mm_max_pd(_mm256_castpd256_pd128(best),
                                  _mm256_extractf128_pd(best, 1));
  double top = _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; i < n; ++i) {
    top = x[i] > top ? x[i] : top;
    if (x[i] >= threshold) ++count;
  }
  count_ge = count;
  return top;
}
#endif

}  // namespace

double max_and_count_ge(std::span<const double> values, double threshold,
                        std::size_t& count_ge, Level level) noexcept {
#if defined(MOSAIC_SIMD_X86)
  if (level == Level::kAvx2) {
    return max_avx2(values.data(), values.size(), threshold, count_ge);
  }
#else
  (void)level;
#endif
  return max_scalar(values.data(), values.size(), threshold, count_ge);
}

double max_and_count_ge(std::span<const double> values, double threshold,
                        std::size_t& count_ge) noexcept {
  return max_and_count_ge(values, threshold, count_ge, active_level());
}

// ---------------------------------------------------------------------------
// bin_add
// ---------------------------------------------------------------------------

namespace {

void bin_add_scalar(const double* times, const double* weights, std::size_t n,
                    double bin_seconds, double* bins,
                    std::size_t nbins) noexcept {
  const double max_index = static_cast<double>(nbins - 1);
  for (std::size_t i = 0; i < n; ++i) {
    double pos = std::floor(times[i] / bin_seconds);
    // Clamp in double space, mirroring min_pd/max_pd operand semantics
    // exactly (NaN falls through the first select to max_index). No value
    // ever reaches the double->size_t cast out of range.
    pos = pos < max_index ? pos : max_index;
    pos = pos > 0.0 ? pos : 0.0;
    bins[static_cast<std::size_t>(pos)] += weights[i];
  }
}

#if defined(MOSAIC_SIMD_X86)
__attribute__((target("avx2,fma"))) void bin_add_avx2(
    const double* times, const double* weights, std::size_t n,
    double bin_seconds, double* bins, std::size_t nbins) noexcept {
  const double max_index = static_cast<double>(nbins - 1);
  const __m256d vbin = _mm256_set1_pd(bin_seconds);
  const __m256d vmax = _mm256_set1_pd(max_index);
  const __m256d vzero = _mm256_setzero_pd();
  alignas(32) double pos[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Division and floor are IEEE-exact, so the vector index math agrees
    // with the scalar reference bit for bit; the scatter adds run in element
    // order, so the bin contents do too.
    __m256d p =
        _mm256_floor_pd(_mm256_div_pd(_mm256_loadu_pd(times + i), vbin));
    p = _mm256_min_pd(p, vmax);
    p = _mm256_max_pd(p, vzero);
    _mm256_store_pd(pos, p);
    bins[static_cast<std::size_t>(pos[0])] += weights[i];
    bins[static_cast<std::size_t>(pos[1])] += weights[i + 1];
    bins[static_cast<std::size_t>(pos[2])] += weights[i + 2];
    bins[static_cast<std::size_t>(pos[3])] += weights[i + 3];
  }
  if (i < n) {
    bin_add_scalar(times + i, weights + i, n - i, bin_seconds, bins, nbins);
  }
}
#endif

}  // namespace

void bin_add(const double* times, const double* weights, std::size_t n,
             double bin_seconds, double* bins, std::size_t nbins,
             Level level) noexcept {
  if (n == 0 || nbins == 0) return;
#if defined(MOSAIC_SIMD_X86)
  if (level == Level::kAvx2) {
    bin_add_avx2(times, weights, n, bin_seconds, bins, nbins);
    return;
  }
#else
  (void)level;
#endif
  bin_add_scalar(times, weights, n, bin_seconds, bins, nbins);
}

void bin_add(const double* times, const double* weights, std::size_t n,
             double bin_seconds, double* bins, std::size_t nbins) noexcept {
  bin_add(times, weights, n, bin_seconds, bins, nbins, active_level());
}

// ---------------------------------------------------------------------------
// FFT kernels
// ---------------------------------------------------------------------------

std::complex<double> complex_mul_fma(std::complex<double> a,
                                     std::complex<double> b) noexcept {
  // Matches _mm256_fmaddsub_pd(a, b.re, swap(a) * b.im): the cross products
  // are rounded once, the final multiply-add is fused.
  return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
          std::fma(a.imag(), b.real(), a.real() * b.imag())};
}

namespace {

void fft_butterfly_scalar(std::complex<double>* even,
                          std::complex<double>* odd,
                          const std::complex<double>* twiddles,
                          std::size_t count) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    const std::complex<double> t = complex_mul_fma(odd[k], twiddles[k]);
    const std::complex<double> e = even[k];
    even[k] = e + t;
    odd[k] = e - t;
  }
}

#if defined(MOSAIC_SIMD_X86)
__attribute__((target("avx2,fma"))) void fft_butterfly_avx2(
    std::complex<double>* even, std::complex<double>* odd,
    const std::complex<double>* twiddles, std::size_t count) noexcept {
  // std::complex<double> is layout-compatible with double[2] (array-oriented
  // access guarantee), so two complex values fill one 256-bit register as
  // (re0, im0, re1, im1).
  auto* ev = reinterpret_cast<double*>(even);
  auto* od = reinterpret_cast<double*>(odd);
  const auto* tw = reinterpret_cast<const double*>(twiddles);
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const __m256d o = _mm256_loadu_pd(od + 2 * k);
    const __m256d w = _mm256_loadu_pd(tw + 2 * k);
    const __m256d wr = _mm256_movedup_pd(w);       // (wr0, wr0, wr1, wr1)
    const __m256d wi = _mm256_permute_pd(w, 0xF);  // (wi0, wi0, wi1, wi1)
    const __m256d os = _mm256_permute_pd(o, 0x5);  // (oi0, or0, oi1, or1)
    const __m256d cross = _mm256_mul_pd(os, wi);   // (oi*wi, or*wi) pairs
    // Even lanes: or*wr - oi*wi (fused); odd lanes: oi*wr + or*wi (fused) —
    // exactly complex_mul_fma.
    const __m256d t = _mm256_fmaddsub_pd(o, wr, cross);
    const __m256d e = _mm256_loadu_pd(ev + 2 * k);
    _mm256_storeu_pd(ev + 2 * k, _mm256_add_pd(e, t));
    _mm256_storeu_pd(od + 2 * k, _mm256_sub_pd(e, t));
  }
  if (k < count) {
    fft_butterfly_scalar(even + k, odd + k, twiddles + k, count - k);
  }
}
#endif

}  // namespace

void fft_butterfly(std::complex<double>* even, std::complex<double>* odd,
                   const std::complex<double>* twiddles, std::size_t count,
                   Level level) noexcept {
#if defined(MOSAIC_SIMD_X86)
  if (level == Level::kAvx2) {
    fft_butterfly_avx2(even, odd, twiddles, count);
    return;
  }
#else
  (void)level;
#endif
  fft_butterfly_scalar(even, odd, twiddles, count);
}

void fft_butterfly(std::complex<double>* even, std::complex<double>* odd,
                   const std::complex<double>* twiddles,
                   std::size_t count) noexcept {
  fft_butterfly(even, odd, twiddles, count, active_level());
}

namespace {

void complex_norm_scalar(std::complex<double>* data, std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    const double re = data[k].real();
    const double im = data[k].imag();
    data[k] = {std::fma(re, re, im * im), 0.0};
  }
}

#if defined(MOSAIC_SIMD_X86)
__attribute__((target("avx2,fma"))) void complex_norm_avx2(
    std::complex<double>* data, std::size_t n) noexcept {
  auto* p = reinterpret_cast<double*>(data);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d v = _mm256_loadu_pd(p + 2 * k);
    const __m256d rr = _mm256_movedup_pd(v);       // (re0, re0, re1, re1)
    const __m256d ii = _mm256_permute_pd(v, 0xF);  // (im0, im0, im1, im1)
    // fma(re, re, im*im) in every lane, imaginary lanes zeroed afterwards.
    const __m256d norm = _mm256_fmadd_pd(rr, rr, _mm256_mul_pd(ii, ii));
    _mm256_storeu_pd(p + 2 * k, _mm256_blend_pd(norm, zero, 0xA));
  }
  if (k < n) complex_norm_scalar(data + k, n - k);
}
#endif

}  // namespace

void complex_norm(std::complex<double>* data, std::size_t n,
                  Level level) noexcept {
#if defined(MOSAIC_SIMD_X86)
  if (level == Level::kAvx2) {
    complex_norm_avx2(data, n);
    return;
  }
#else
  (void)level;
#endif
  complex_norm_scalar(data, n);
}

void complex_norm(std::complex<double>* data, std::size_t n) noexcept {
  complex_norm(data, n, active_level());
}

namespace {

void complex_scale_div_scalar(std::complex<double>* data, std::size_t n,
                              double divisor) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    data[k] = {data[k].real() / divisor, data[k].imag() / divisor};
  }
}

#if defined(MOSAIC_SIMD_X86)
__attribute__((target("avx2,fma"))) void complex_scale_div_avx2(
    std::complex<double>* data, std::size_t n, double divisor) noexcept {
  auto* p = reinterpret_cast<double*>(data);
  const __m256d d = _mm256_set1_pd(divisor);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    _mm256_storeu_pd(p + 2 * k,
                     _mm256_div_pd(_mm256_loadu_pd(p + 2 * k), d));
  }
  if (k < n) complex_scale_div_scalar(data + k, n - k, divisor);
}
#endif

}  // namespace

void complex_scale_div(std::complex<double>* data, std::size_t n,
                       double divisor, Level level) noexcept {
#if defined(MOSAIC_SIMD_X86)
  if (level == Level::kAvx2) {
    complex_scale_div_avx2(data, n, divisor);
    return;
  }
#else
  (void)level;
#endif
  complex_scale_div_scalar(data, n, divisor);
}

void complex_scale_div(std::complex<double>* data, std::size_t n,
                       double divisor) noexcept {
  complex_scale_div(data, n, divisor, active_level());
}

}  // namespace mosaic::util::simd
