#include "cluster/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/stats.hpp"

namespace mosaic::cluster {

namespace {

/// Shortest lag, in bins, the detector considers a period: shorter lags sit
/// in the Nyquist-adjacent noise.
constexpr std::size_t kMinLag = 4;
/// Strongest peaks reported per signal.
constexpr std::size_t kMaxPeaks = 3;

/// In-place power spectrum: data[k] = (fma(re, re, im * im), 0).
void complex_norm(std::complex<double>* data, std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    const double re = data[k].real();
    const double im = data[k].imag();
    data[k] = {std::fma(re, re, im * im), 0.0};
  }
}

/// In-place division by a real scalar (the inverse transform's 1/n).
void complex_scale_div(std::complex<double>* data, std::size_t n,
                       double divisor) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    data[k] = {data[k].real() / divisor, data[k].imag() / divisor};
  }
}

void observe_size(std::size_t n) {
  // Transform-size distribution: the DFT backend's cost driver, and the
  // first thing to check when frequency-mode periodicity slows a batch.
  static constexpr double kSizeEdges[] = {64,    256,    1024,   4096,
                                          16384, 65536,  262144, 1048576};
  static obs::Histogram& size_hist = obs::Registry::global().histogram(
      obs::names::kFftSize, kSizeEdges, "radix-2 FFT transform size");
  size_hist.observe(static_cast<double>(n));
}

}  // namespace

std::complex<double> complex_mul_fma(std::complex<double> a,
                                     std::complex<double> b) noexcept {
  return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
          std::fma(a.imag(), b.real(), a.real() * b.imag())};
}

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  MOSAIC_ASSERT(n >= 1 && (n & (n - 1)) == 0);
  observe_size(n);
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterfly passes; the twiddle of pair k in a stage is w = wlen^k,
  // accumulated by the recurrence w *= wlen.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t start = 0; start < n; start += len) {
      std::complex<double> w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const auto even = data[start + k];
        const auto odd = complex_mul_fma(data[start + k + len / 2], w);
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
        w *= wlen;
      }
    }
  }

  if (inverse) complex_scale_div(data.data(), n, static_cast<double>(n));
}

std::vector<double> bin_series(
    std::span<const std::pair<double, double>> samples, double duration,
    double bin_seconds) {
  std::vector<double> series;
  bin_series(samples, duration, bin_seconds, series);
  return series;
}

void bin_series(std::span<const std::pair<double, double>> samples,
                double duration, double bin_seconds,
                std::vector<double>& series) {
  MOSAIC_ASSERT(duration > 0.0);
  MOSAIC_ASSERT(bin_seconds > 0.0);
  const auto bins = static_cast<std::size_t>(
      std::max(1.0, std::ceil(duration / bin_seconds)));
  series.assign(bins, 0.0);
  // The clamp happens in double space before the integer conversion, so
  // out-of-range and NaN times land in edge bins instead of hitting
  // float-cast UB. In-range samples map to the identical bins as the
  // pre-clamp formulation.
  const double max_index = static_cast<double>(bins - 1);
  for (const auto& [time, weight] : samples) {
    double pos = std::floor(time / bin_seconds);
    pos = pos < max_index ? pos : max_index;
    pos = pos > 0.0 ? pos : 0.0;
    series[static_cast<std::size_t>(pos)] += weight;
  }
}

DftPeriodicity detect_periodicity_dft(std::span<const double> series,
                                      const DftDetectorConfig& config) {
  DftPeriodicity result;
  const std::size_t n = series.size();
  if (n < 8) return result;

  // --- Autocorrelation via Wiener-Khinchin (2x zero-padding makes the
  // circular autocorrelation linear over the lags of interest). ------------
  const std::size_t padded = next_pow2(2 * n);
  std::vector<std::complex<double>> work(padded, {0.0, 0.0});
  // The four-lane sum's association differs from a plain sequential sum
  // over these fractional weights; the frequency-backend golden pins it.
  const double mean = util::sum(series) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) work[i] = series[i] - mean;

  fft(work);
  complex_norm(work.data(), padded);
  fft(work, /*inverse=*/true);

  const std::size_t max_lag = n / 2;
  if (max_lag < 4) return result;
  std::vector<double> acf(max_lag + 1);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) {
    acf[lag] = work[lag].real();
  }
  if (acf[0] <= 0.0) return result;  // constant signal

  std::vector<double> prefix(max_lag + 2, 0.0);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) {
    prefix[lag + 1] = prefix[lag] + acf[lag];
  }
  const auto range_sum = [&](std::size_t lo, std::size_t hi) {  // [lo, hi]
    lo = std::max<std::size_t>(lo, 1);
    hi = std::min(hi, max_lag);
    if (lo > hi) return 0.0;
    return prefix[hi + 1] - prefix[lo];
  };

  if (kMinLag >= max_lag) return result;

  // Noise scale of the autocorrelation, from a robust spread estimate over
  // the candidate lag range (median absolute value ~ 0.6745 sigma for a
  // centered Gaussian). A windowed sum of w noisy ACF values fluctuates
  // with sigma * sqrt(w), so detection must be gated on a z-score — a raw
  // mass fraction lets broadband noise through on fluctuation alone.
  double sigma_acf;
  {
    std::vector<double> magnitudes;
    magnitudes.reserve(max_lag - kMinLag + 1);
    for (std::size_t lag = kMinLag; lag <= max_lag; ++lag) {
      magnitudes.push_back(std::abs(acf[lag]));
    }
    const auto middle = magnitudes.begin() +
        static_cast<std::ptrdiff_t>(magnitudes.size() / 2);
    std::nth_element(magnitudes.begin(), middle, magnitudes.end());
    sigma_acf = magnitudes[magnitudes.size() / 2] / 0.6745;
    sigma_acf = std::max(sigma_acf, 1e-12 * acf[0]);
  }

  struct Confidence {
    double score = 0.0;  ///< prominence / attainable mass, in [0,1]
    double z = 0.0;      ///< prominence in noise sigmas
  };
  // Confidence at a lag: jitter smears a burst train's autocorrelation peak
  // over a window proportional to the lag, so the mass is integrated over a
  // +-5% window; subtracting equally sized flanking windows (prominence)
  // cancels any slow baseline.
  const auto confidence = [&](std::size_t lag) {
    Confidence c;
    const auto halfwidth = static_cast<std::size_t>(
        std::max(1.0, 0.05 * static_cast<double>(lag)));
    const double center = range_sum(lag - halfwidth, lag + halfwidth);
    const double left = range_sum(lag - 3 * halfwidth - 1, lag - halfwidth - 1);
    const double right =
        range_sum(lag + halfwidth + 1, lag + 3 * halfwidth + 1);
    const double prominence = center - 0.5 * (left + right);
    const double attainable =
        acf[0] * (1.0 - static_cast<double>(lag) / static_cast<double>(n));
    if (attainable <= 0.0) return c;
    const double window = static_cast<double>(2 * halfwidth + 1);
    c.score = std::clamp(prominence / attainable, 0.0, 1.0);
    c.z = prominence / (sigma_acf * std::sqrt(3.0 * window));
    return c;
  };
  // Required significance of a peak, in noise sigmas.
  constexpr double kMinZ = 4.0;

  // --- Candidate lags: local maxima of the confidence curve itself. The
  // prefix sums make each evaluation O(1), so a full scan over the lag
  // range is cheap and — unlike spectral peak picking — immune to harmonic
  // combs outshining the fundamental.
  std::vector<double> curve(max_lag + 1, 0.0);
  for (std::size_t lag = kMinLag; lag <= max_lag; ++lag) {
    curve[lag] = confidence(lag).score;
  }

  // Repeat evidence: a true period P elevates the autocorrelation at every
  // multiple of P, while a single coincidentally aligned pair of bursts
  // produces one isolated spike. Requiring mass at 2P kills those phantom
  // candidates (periods too long to repeat inside the window are exempt).
  const auto repeats = [&](std::size_t lag) {
    if (2 * lag > max_lag) return true;
    const Confidence second = confidence(2 * lag);
    return second.score >= 0.25 * curve[lag];
  };

  struct Scored {
    std::size_t lag;
    double score;
  };
  std::vector<Scored> scored;
  for (std::size_t lag = kMinLag; lag <= max_lag; ++lag) {
    if (curve[lag] < config.min_score) continue;
    if (lag > kMinLag && curve[lag] < curve[lag - 1]) continue;
    if (lag < max_lag && curve[lag] <= curve[lag + 1]) continue;
    const Confidence c = confidence(lag);
    if (c.z < kMinZ) continue;
    if (!repeats(lag)) continue;
    scored.push_back({lag, c.score});
  }
  constexpr std::size_t kMaxMultiple = 6;
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });

  for (const Scored& candidate : scored) {
    if (result.peaks.size() >= kMaxPeaks) break;
    // Any lag related to an accepted period by an integer factor (either
    // way) is the same behavior.
    bool related = false;
    for (const SpectralPeak& accepted : result.peaks) {
      const double accepted_lag = accepted.period_seconds / config.bin_seconds;
      const double ratio = accepted_lag > static_cast<double>(candidate.lag)
                               ? accepted_lag / static_cast<double>(candidate.lag)
                               : static_cast<double>(candidate.lag) / accepted_lag;
      const double nearest = std::round(ratio);
      if (nearest >= 1.0 && std::abs(ratio - nearest) < 0.1 * nearest) {
        related = true;
        break;
      }
    }
    if (related) continue;
    // Divide down to the fundamental: a multiple of the true period scores
    // as high or higher (its window also grows), so take the smallest
    // divisor that retains most of the confidence.
    std::size_t best_lag = candidate.lag;
    double best_score = candidate.score;
    for (std::size_t m = kMaxMultiple; m >= 2; --m) {
      const auto sub = static_cast<std::size_t>(std::llround(
          static_cast<double>(candidate.lag) / static_cast<double>(m)));
      if (sub < kMinLag) continue;
      const Confidence c = confidence(sub);
      if (c.score >= 0.25 * candidate.score && c.z >= kMinZ) {
        best_lag = sub;
        best_score = c.score;
        break;  // largest m first -> smallest fundamental
      }
    }
    // The confidence curve is plateau-shaped (windowed sums), so the chosen
    // lag can sit a few bins off the true period; snap to the raw ACF
    // argmax inside the window.
    {
      const auto halfwidth = static_cast<std::size_t>(
          std::max(1.0, 0.05 * static_cast<double>(best_lag)));
      std::size_t snapped = best_lag;
      for (std::size_t l = best_lag > halfwidth ? best_lag - halfwidth : kMinLag;
           l <= std::min(max_lag, best_lag + halfwidth); ++l) {
        if (acf[l] > acf[snapped]) snapped = l;
      }
      best_lag = snapped;
    }
    SpectralPeak peak;
    peak.period_seconds = static_cast<double>(best_lag) * config.bin_seconds;
    peak.power = acf[best_lag];
    peak.score = best_score;
    result.peaks.push_back(peak);
  }

  std::sort(result.peaks.begin(), result.peaks.end(),
            [](const SpectralPeak& a, const SpectralPeak& b) {
              return a.score > b.score;
            });
  result.periodic = !result.peaks.empty();
  return result;
}

}  // namespace mosaic::cluster
