// Runtime-dispatched SIMD kernels for the per-trace hot path.
//
// Every kernel here has two implementations: an AVX2+FMA path and a scalar
// path that is the reference implementation. The two are bit-identical BY
// CONSTRUCTION, not by tolerance: the scalar path emulates the exact AVX2
// lane structure (four partial accumulators, a fixed (l0+l2)+(l1+l3)
// horizontal reduce, tail elements folded in after the reduce) and calls
// std::fma exactly where the AVX2 path uses a single-rounding fused
// multiply-add. The A/B kernel-equivalence tests (tests/util/test_simd.cpp)
// and the categorization goldens (tests/integration/test_golden_ab.cpp)
// enforce this on adversarial inputs — denormals, non-power-of-two lengths,
// empty columns — and across forced-scalar runs (DESIGN.md §18).
//
// Dispatch is resolved once per process from CPUID; MOSAIC_FORCE_SCALAR=1
// pins the scalar path (the CI fallback job sets it on AVX2 runners). Tests
// can override the level explicitly to run both paths in one process.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>

namespace mosaic::util::simd {

/// Instruction-set level a kernel dispatches to.
enum class Level : std::uint8_t {
  kScalar = 0,  ///< reference implementation, always available
  kAvx2 = 1,    ///< AVX2 + FMA (requires both CPUID bits)
};

[[nodiscard]] const char* level_name(Level level) noexcept;

/// Highest level the CPU supports, gated by MOSAIC_FORCE_SCALAR (environment,
/// read once on first call) and by any test override. Cheap after the first
/// call (one relaxed atomic load).
[[nodiscard]] Level active_level() noexcept;

/// Test seam: pins active_level() to `level` regardless of CPUID/environment.
/// Kernel A/B tests use it to run both paths inside one process.
void set_level_for_testing(Level level) noexcept;

/// Removes the test override; active_level() returns to CPUID/env dispatch.
void clear_level_for_testing() noexcept;

// --- Reductions (util/stats consumers) -------------------------------------

/// Lane-structured sum. Four accumulators advance in lockstep; the horizontal
/// reduce is (l0+l2)+(l1+l3); the tail (n % 4 elements) folds into the
/// reduced value afterwards. One body at every level: the compiler
/// vectorizes it. Note the lane association differs from a plain sequential
/// sum — for integer-valued doubles below 2^53 (byte counts, request counts)
/// both are exact anyway.
[[nodiscard]] double sum(std::span<const double> values) noexcept;

/// Max over `values` plus the count of elements >= threshold, in one pass —
/// the metadata spike scan. Max and count are order-independent-exact for
/// NaN-free input (which per-second request bins are), so both levels agree
/// bit for bit. Empty input returns -infinity and count 0.
double max_and_count_ge(std::span<const double> values, double threshold,
                        std::size_t& count_ge) noexcept;
double max_and_count_ge(std::span<const double> values, double threshold,
                        std::size_t& count_ge, Level level) noexcept;

// --- Binning (cluster/fft.cpp:bin_series, core/periodicity) ----------------

/// Scatter-adds (time, weight) columns into fixed-width bins:
///   bins[clamp(floor(times[i] / bin_seconds), 0, nbins-1)] += weights[i]
/// Index math is vectorized (IEEE division and floor are exact, so lanes and
/// scalar agree bit for bit); the scatter itself runs in element order, so
/// the bin sums match the scalar reference exactly. The clamp happens in
/// double space before any integer conversion: out-of-range and NaN times
/// land in the edge bins instead of invoking float-cast UB.
void bin_add(const double* times, const double* weights, std::size_t n,
             double bin_seconds, double* bins, std::size_t nbins) noexcept;
void bin_add(const double* times, const double* weights, std::size_t n,
             double bin_seconds, double* bins, std::size_t nbins,
             Level level) noexcept;

// --- FFT kernels (cluster/fft) ---------------------------------------------

/// Complex multiply with the exact rounding structure of the AVX2 butterfly:
///   re = fma(a.re, b.re, -(a.im * b.im))
///   im = fma(a.im, b.re, +(a.re * b.im))
/// (_mm256_fmaddsub_pd rounds a.im*b.im / a.re*b.im once, then fuses.) The
/// cold FFT path uses this per element so cached and uncached transforms stay
/// bit-identical.
[[nodiscard]] std::complex<double> complex_mul_fma(
    std::complex<double> a, std::complex<double> b) noexcept;

/// One FFT butterfly stage over `count` pairs:
///   t = odd[k] * w[k];  odd[k] = even[k] - t;  even[k] = even[k] + t
/// with complex_mul_fma products. The AVX2 path processes two complex values
/// per 256-bit register; the scalar path is the per-element reference.
void fft_butterfly(std::complex<double>* even, std::complex<double>* odd,
                   const std::complex<double>* twiddles,
                   std::size_t count) noexcept;
void fft_butterfly(std::complex<double>* even, std::complex<double>* odd,
                   const std::complex<double>* twiddles, std::size_t count,
                   Level level) noexcept;

/// In-place power spectrum: data[i] = (fma(re, re, im*im), 0).
void complex_norm(std::complex<double>* data, std::size_t n) noexcept;
void complex_norm(std::complex<double>* data, std::size_t n,
                  Level level) noexcept;

/// In-place division by a real scalar (the inverse-FFT 1/n scaling). IEEE
/// division is exact per element, so levels agree bit for bit.
void complex_scale_div(std::complex<double>* data, std::size_t n,
                       double divisor) noexcept;
void complex_scale_div(std::complex<double>* data, std::size_t n,
                       double divisor, Level level) noexcept;

}  // namespace mosaic::util::simd
