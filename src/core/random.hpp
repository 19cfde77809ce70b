// Deterministic pseudo-random number generation for mobiledl.
//
// All stochastic components of the library (weight init, data simulation,
// dropout, DP noise, client sampling, ...) draw from mdl::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256** seeded via splitmix64 — fast, high quality, and trivially
// forkable into independent streams (Rng::fork), which the federated
// simulator uses to give every client its own stream.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace mdl {

class BinaryReader;
class BinaryWriter;

/// splitmix64's finalizer, a bijective 64-bit mixer. Seeds Rng and keys
/// independent, replayable streams off (seed, index, salt) tuples; each
/// caller combines its key words with its own constants.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// xoshiro256** PRNG with distribution helpers. Copyable; copies evolve
/// independently.
class Rng {
 public:
  /// Seeds the four 64-bit state words from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Derives an independent generator; deterministic given this Rng's
  /// current state (advances this Rng once).
  Rng fork();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::int64_t uniform_int(std::int64_t n);
  /// Standard normal via Box-Muller (cached second variate).
  double normal();
  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);
  /// Laplace(0, scale) draw via inverse CDF.
  double laplace(double scale);
  /// Exponential with the given rate (lambda). Requires rate > 0.
  double exponential(double rate);
  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape);
  /// Symmetric Dirichlet over k categories with concentration alpha.
  std::vector<double> dirichlet(std::size_t k, double alpha);
  /// Samples an index from unnormalized non-negative weights.
  std::size_t categorical(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(static_cast<std::int64_t>(i)));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n) (partial Fisher-Yates).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Writes the full engine state (xoshiro words + Box-Muller cache), so a
  /// deserialized Rng continues the exact same stream — the basis of the
  /// bit-identical checkpoint/resume guarantee in mdl::ckpt.
  void serialize(BinaryWriter& w) const;
  static Rng deserialize(BinaryReader& r);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mdl
