// Minimal property-based testing harness over mdl::Rng.
//
// A property runs MDL_PROP_CASES times (default 20), each case with its own
// deterministically derived seed. On failure, gtest's scoped trace prints
// the exact environment that replays just the failing case:
//
//   MDL_PROP_SEED=<case seed> MDL_PROP_CASES=1 ./mdl_tests --gtest_filter=...
//
// Case i uses seed MDL_PROP_SEED + i, so replaying with the printed seed
// and a single case reproduces the failing draw sequence exactly.
//
// Usage:
//   MDL_PROP_TEST(ServeProp, BatchedMatchesSequential) {
//     // body runs once per case with `rng` (mdl::Rng&) and `prop_case` (int)
//     const auto batch = mdl::prop::pick(rng, {1, 3, 8, 17});
//     ...
//   }
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/random.hpp"
#include "core/tensor.hpp"

namespace mdl::prop {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Base seed for case 0; later cases add their index.
inline std::uint64_t base_seed() {
  return env_u64("MDL_PROP_SEED", 20260805ULL);
}

inline int num_cases() {
  return static_cast<int>(env_u64("MDL_PROP_CASES", 20ULL));
}

/// Runs `fn(rng, case_index)` once per case, each under a SCOPED_TRACE that
/// names the reproduction seed. Stops at the first fatal failure so the
/// trace on screen belongs to the failing case.
template <typename Fn>
void for_each_case(Fn&& fn) {
  const std::uint64_t seed0 = base_seed();
  const int n = num_cases();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t case_seed = seed0 + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(::testing::Message()
                 << "prop case " << i << "/" << n << " — replay with "
                 << "MDL_PROP_SEED=" << case_seed << " MDL_PROP_CASES=1");
    Rng rng(case_seed);
    fn(rng, i);
    if (::testing::Test::HasFailure()) return;
  }
}

/// Uniform pick from an explicit candidate list.
template <typename T>
T pick(Rng& rng, std::initializer_list<T> candidates) {
  std::vector<T> v(candidates);
  return v[static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(v.size())))];
}

/// Uniform integer in [lo, hi] inclusive.
inline std::int64_t gen_int(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + rng.uniform_int(hi - lo + 1);
}

/// Random tensor with entries uniform in [-scale, scale).
inline Tensor gen_tensor(Rng& rng, std::vector<std::int64_t> shape,
                         double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  return t;
}

// -- Float comparison for reassociated kernels -------------------------------
// The SIMD GEMM suite contracts multiply-adds (fma) and, for the nt kernel,
// reassociates the k sum across 8 lanes. Its results are therefore compared
// against the canonical scalar chain with a ULP distance bound plus an
// absolute floor scaled by the magnitude of the summed terms (which covers
// catastrophic cancellation, where ULP distance of the tiny result explodes
// even though both kernels are within rounding of the true value).

/// Distance in representable-float steps between a and b. Total order via
/// the sign-magnitude -> two's-complement trick; +0 and -0 are 0 apart.
/// NaN on either side is the maximum distance (never "close").
inline std::int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<std::int64_t>::max();
  std::int32_t ia = 0;
  std::int32_t ib = 0;
  std::memcpy(&ia, &a, sizeof(float));
  std::memcpy(&ib, &b, sizeof(float));
  if (ia < 0) ia = std::numeric_limits<std::int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int32_t>::min() - ib;
  return std::abs(static_cast<std::int64_t>(ia) - static_cast<std::int64_t>(ib));
}

/// True when `got` is within `max_ulp` steps of `want`, or within
/// `abs_floor` absolutely (for cancellation-dominated elements whose
/// relative error is meaningless).
inline bool float_close(float got, float want, std::int64_t max_ulp,
                        double abs_floor) {
  if (std::isnan(got) || std::isnan(want)) return false;
  if (ulp_distance(got, want) <= max_ulp) return true;
  return std::abs(static_cast<double>(got) - static_cast<double>(want)) <=
         abs_floor;
}

/// Empirical order-0 Shannon entropy of `symbols`, in bits per symbol: the
/// reference the entropy-coder size guards bound their output against.
inline double order0_entropy_bits(std::span<const std::uint32_t> symbols) {
  std::map<std::uint32_t, std::uint64_t> freq;
  for (const std::uint32_t s : symbols) ++freq[s];
  const double n = static_cast<double>(symbols.size());
  double h = 0.0;
  for (const auto& kv : freq) {
    const double p = static_cast<double>(kv.second) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace mdl::prop

/// Declares a gtest TEST whose body is one property case; the body sees
/// `mdl::Rng& rng` and `int prop_case`.
#define MDL_PROP_TEST(suite, name)                                   \
  static void mdl_prop_body_##suite##_##name(::mdl::Rng& rng,        \
                                             int prop_case);         \
  TEST(suite, name) {                                                \
    ::mdl::prop::for_each_case(mdl_prop_body_##suite##_##name);      \
  }                                                                  \
  static void mdl_prop_body_##suite##_##name([[maybe_unused]] ::mdl::Rng& rng, \
                                             [[maybe_unused]] int prop_case)
