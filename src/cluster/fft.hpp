// Radix-2 FFT and a frequency-domain periodicity detector.
//
// The paper's future work (§V) points at signal-processing techniques
// (Tarraf et al., IPDPS 2024) for periodic I/O detection. MOSAIC ships that
// baseline so the ablation bench can compare it against the segmentation +
// Mean-Shift approach — including the failure case the paper cites: two
// intricate (superposed) periodic behaviors.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace mosaic::cluster {

/// In-place iterative radix-2 Cooley-Tukey FFT. Each call computes its
/// bit-reversal permutation and twiddle factors afresh; the inverse divides
/// by n. Precondition: data.size() is a power of two (>= 1).
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

/// Next power of two >= n (n == 0 -> 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// The butterfly's complex multiply: each cross product is rounded once and
/// the final multiply-add is fused,
///   re = fma(a.re, b.re, -(a.im * b.im))
///   im = fma(a.im, b.re, +(a.re * b.im)).
/// The rounding is spelled out so it does not depend on how the compiler
/// contracts a plain complex multiply; the frequency-backend golden
/// (tests/golden/) pins it.
[[nodiscard]] std::complex<double> complex_mul_fma(
    std::complex<double> a, std::complex<double> b) noexcept;

/// One detected spectral peak.
struct SpectralPeak {
  double period_seconds = 0.0;  ///< 1 / frequency
  double power = 0.0;           ///< |X(f)|^2 at the fundamental bin
  /// Harmonic-comb score in [0,1]: the fraction of AC power captured by the
  /// fundamental and its harmonics, in excess of the white-noise baseline.
  /// Burst trains concentrate energy in the comb, so this is the robust
  /// periodicity measure (a lone-bin share under-reports spike trains).
  double score = 0.0;
};

/// Configuration for the DFT periodicity detector. It reports at most the
/// three strongest peaks and ignores periods shorter than four bins.
struct DftDetectorConfig {
  double bin_seconds = 1.0;     ///< time-series resolution
  double min_score = 0.15;      ///< dominance required to call it periodic
};

/// Result of frequency-domain analysis of one activity signal.
struct DftPeriodicity {
  bool periodic = false;
  std::vector<SpectralPeak> peaks;  ///< sorted by decreasing comb score
};

/// Bins (time, weight) samples into a fixed-step series over [0, duration).
[[nodiscard]] std::vector<double> bin_series(
    std::span<const std::pair<double, double>> samples, double duration,
    double bin_seconds);

/// As above, but writes into `out` (resized and zeroed, capacity reused) —
/// the allocation-free form used by the analyzer workspace.
void bin_series(std::span<const std::pair<double, double>> samples,
                double duration, double bin_seconds, std::vector<double>& out);

/// Detects periodicity in an activity time series via the power spectrum:
/// mean-removed signal -> FFT -> dominant peak test against min_score.
[[nodiscard]] DftPeriodicity detect_periodicity_dft(
    std::span<const double> series, const DftDetectorConfig& config = {});

}  // namespace mosaic::cluster
