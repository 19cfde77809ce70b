#include "core/random.hpp"

#include <algorithm>
#include <numeric>

#include "core/serialize.hpp"

namespace mdl {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  return mix64(x);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork() { return Rng(next_u64()); }

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MDL_CHECK(lo <= hi, "invalid uniform range [" << lo << ", " << hi << ")");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t n) {
  MDL_CHECK(n > 0, "uniform_int requires n > 0, got " << n);
  // Rejection sampling to avoid modulo bias.
  const auto un = static_cast<std::uint64_t>(n);
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  std::uint64_t r = next_u64();
  while (r >= limit) r = next_u64();
  return static_cast<std::int64_t>(r % un);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to keep log finite.
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::laplace(double scale) {
  MDL_CHECK(scale >= 0.0, "laplace scale must be >= 0, got " << scale);
  const double u = uniform() - 0.5;
  return -scale * std::copysign(std::log(1.0 - 2.0 * std::abs(u)), u);
}

double Rng::exponential(double rate) {
  MDL_CHECK(rate > 0.0, "exponential rate must be > 0, got " << rate);
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::gamma(double shape) {
  MDL_CHECK(shape > 0.0, "gamma shape must be > 0, got " << shape);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v;
  }
}

std::vector<double> Rng::dirichlet(std::size_t k, double alpha) {
  MDL_CHECK(k > 0, "dirichlet needs k > 0");
  MDL_CHECK(alpha > 0.0, "dirichlet concentration must be > 0");
  std::vector<double> out(k);
  double sum = 0.0;
  for (auto& v : out) {
    v = gamma(alpha);
    sum += v;
  }
  if (sum <= 0.0) {
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(k));
    return out;
  }
  for (auto& v : out) v /= sum;
  return out;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  MDL_CHECK(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    MDL_CHECK(w >= 0.0, "categorical weight must be >= 0, got " << w);
    total += w;
  }
  MDL_CHECK(total > 0.0, "categorical weights sum to zero");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  MDL_CHECK(k <= n, "cannot sample " << k << " distinct items from " << n);
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(n - i))) + i;
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  shuffle(idx);
  return idx;
}

void Rng::serialize(BinaryWriter& w) const {
  for (const std::uint64_t word : s_) w.write_u64(word);
  w.write_u8(has_cached_normal_ ? 1 : 0);
  w.write_f64(cached_normal_);
}

Rng Rng::deserialize(BinaryReader& r) {
  Rng rng(0);
  for (auto& word : rng.s_) word = r.read_u64();
  MDL_CHECK((rng.s_[0] | rng.s_[1] | rng.s_[2] | rng.s_[3]) != 0,
            "corrupt Rng state: all-zero xoshiro words");
  rng.has_cached_normal_ = r.read_u8() != 0;
  rng.cached_normal_ = r.read_f64();
  return rng;
}

}  // namespace mdl
