// Deterministic pseudo-random number generation for the trace simulator.
//
// All randomness in MOSAIC flows through Rng so that every experiment is
// reproducible from a single 64-bit seed. The core generator is
// xoshiro256++ seeded via splitmix64 (the scheme recommended by its
// authors); distribution helpers cover everything the population generator
// needs (uniform, normal, lognormal, exponential, categorical).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace mosaic::util {

/// splitmix64 step: used for seeding and for cheap stateless hashing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of a value (one splitmix64 round).
[[nodiscard]] std::uint64_t mix64(std::uint64_t value) noexcept;

/// xoshiro256++ generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it can also feed <random>
/// distributions, though MOSAIC uses the built-in helpers for portability of
/// results across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0xC0FFEE1234ABCDEFull) noexcept;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double normal(double mean, double sigma) noexcept;

  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Exponential with rate lambda > 0 (mean 1/lambda).
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept;

  /// Samples an index according to non-negative weights (need not sum to 1).
  /// Precondition: at least one weight > 0.
  [[nodiscard]] std::size_t categorical(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derives an independent child generator; stream `index` is mixed into
  /// the seed so parallel workers never share a sequence.
  [[nodiscard]] Rng fork(std::uint64_t index) const noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mosaic::util
