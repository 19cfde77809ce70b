// Differential kernel-equivalence harness: every GEMM suite against the
// canonical scalar reference, under randomized shape / alignment / value
// fuzzing (MDL_PROP_SEED replays a failing case, see prop.hpp).
//
// Equality contract per suite (gemm.hpp):
//   kNaive vs kBlocked — bit-identical (EXPECT_EQ on bits). The blocked
//     kernels preserve the ascending-k scalar chain exactly.
//   kSimd float — ULP-bounded, never bit-identical: matmul contracts each
//     multiply-add into an fma (error provably <= the scalar chain's per
//     term, but differently rounded); matmul_nt additionally splits the k
//     sum across 8 lanes. Bound: <= kMaxUlp steps, OR an absolute floor of
//     kCancelSlack * eps * sum_k |a*b| (double-summed magnitude) for
//     cancellation-dominated elements.
//   kSimd matmul_nt tiles vs its single dot — bit-identical: the register
//     tiles run each element's dot chain unchanged, and a [1,1] product
//     takes the single-dot path.
//   int8 — exact (EXPECT_EQ): integer addition is associative, so the AVX2
//     widening-madd kernel must equal the scalar twin bit for bit.
//   gate activations (GateActivation suite, every mode) — sigmoid within
//     4 and tanh within 8 ULP of a double reference; an element's bits
//     depend on its value alone, so a GRU/LSTM row is the same at B = 8
//     as alone.
//
// Shapes are drawn adversarially: 1xN and Nx1 edges, multiples of the tile
// sizes and tile+-1, odd k (SIMD remainder lanes), zero-extent dims, and
// denormal-adjacent magnitudes (1e-38 scale) that stress gradual underflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/gemm.hpp"
#include "core/gemm_simd.hpp"
#include "core/tensor.hpp"
#include "core/threadpool.hpp"
#include "nn/activations.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "prop.hpp"

namespace mdl {
namespace {

// 8-lane reassociation + fma contraction over a few hundred terms stays
// well under this in practice (observed < 16); the bound documents the
// guarantee without flaking.
constexpr std::int64_t kMaxUlp = 64;
// Cancellation floor multiplier: |diff| <= 8 * eps * sum|a_ik * b_kj|.
constexpr double kCancelSlack = 8.0;

struct PoolGuard {
  ~PoolGuard() { set_shared_pool_threads(0); }
};

struct ModeGuard {
  gemm::Mode saved = gemm::mode();
  ~ModeGuard() { gemm::set_mode(saved); }
};

/// Per-element magnitude of the summed terms, in double — the scale against
/// which cancellation error is measured. layout_nt: b is [n,k] row-major.
std::vector<double> term_magnitudes(const Tensor& a, const Tensor& b,
                                    std::int64_t m, std::int64_t k,
                                    std::int64_t n, bool layout_nt) {
  std::vector<double> mag(static_cast<std::size_t>(m * n), 0.0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double av = a[i * k + kk];
        const double bv = layout_nt ? b[j * k + kk] : b[kk * n + j];
        s += std::abs(av * bv);
      }
      mag[static_cast<std::size_t>(i * n + j)] = s;
    }
  return mag;
}

void expect_bits_equal(const Tensor& got, const Tensor& want,
                       const char* what) {
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << what << " element " << i << ": got " << got[i] << " want "
        << want[i];
  }
}

void expect_ulp_close(const Tensor& got, const Tensor& want,
                      const std::vector<double>& mag, const char* what) {
  ASSERT_TRUE(got.same_shape(want));
  constexpr double kEps = 1.1920929e-7;  // 2^-23
  for (std::int64_t i = 0; i < want.size(); ++i) {
    const double floor =
        kCancelSlack * kEps * mag[static_cast<std::size_t>(i)];
    ASSERT_TRUE(prop::float_close(got[i], want[i], kMaxUlp, floor))
        << what << " element " << i << ": got " << got[i] << " want "
        << want[i] << " (ulp "
        << prop::ulp_distance(got[i], want[i]) << ", floor " << floor << ")";
  }
}

/// Adversarial GEMM dims: edges, tile boundaries +-1, odd k.
std::int64_t gen_dim(Rng& rng) {
  switch (prop::gen_int(rng, 0, 5)) {
    case 0: return 1;
    case 1: return prop::pick(rng, {7L, 8L, 9L});      // SIMD lane edge
    case 2: return prop::pick(rng, {31L, 32L, 33L});   // panel rows edge
    case 3: return prop::pick(rng, {127L, 128L, 129L});  // kNc edge
    case 4: return prop::gen_int(rng, 2, 40) * 2 + 1;  // odd
    default: return prop::gen_int(rng, 2, 70);
  }
}

/// Value scale: everyday magnitudes, huge, or denormal-adjacent.
double gen_scale(Rng& rng) {
  return prop::pick(rng, {1.0, 100.0, 1e-3, 1e-38});
}

Tensor run_matmul(gemm::Mode mode, const Tensor& a, const Tensor& b) {
  ModeGuard guard;
  gemm::set_mode(mode);
  return matmul(a, b);
}

Tensor run_matmul_nt(gemm::Mode mode, const Tensor& a, const Tensor& b) {
  ModeGuard guard;
  gemm::set_mode(mode);
  return matmul_nt(a, b);
}

MDL_PROP_TEST(GemmDiff, BlockedMatchesNaiveBitForBit) {
  PoolGuard pool;
  set_shared_pool_threads(prop::pick(rng, {1L, 2L, 8L}));
  const std::int64_t m = gen_dim(rng);
  const std::int64_t k = gen_dim(rng);
  const std::int64_t n = gen_dim(rng);
  const double scale = gen_scale(rng);
  const Tensor a = prop::gen_tensor(rng, {m, k}, scale);
  const Tensor b = prop::gen_tensor(rng, {k, n}, scale);
  const Tensor bt = prop::gen_tensor(rng, {n, k}, scale);
  expect_bits_equal(run_matmul(gemm::Mode::kBlocked, a, b),
                    run_matmul(gemm::Mode::kNaive, a, b), "matmul");
  expect_bits_equal(run_matmul_nt(gemm::Mode::kBlocked, a, bt),
                    run_matmul_nt(gemm::Mode::kNaive, a, bt), "matmul_nt");
}

MDL_PROP_TEST(GemmDiff, SimdMatmulWithinUlpOfNaive) {
  if (!cpu::simd_gemm_supported())
    GTEST_SKIP() << "no AVX2+FMA on this machine/build";
  PoolGuard pool;
  set_shared_pool_threads(prop::pick(rng, {1L, 2L, 8L}));
  const std::int64_t m = gen_dim(rng);
  const std::int64_t k = gen_dim(rng);
  const std::int64_t n = gen_dim(rng);
  const double scale = gen_scale(rng);
  const Tensor a = prop::gen_tensor(rng, {m, k}, scale);
  const Tensor b = prop::gen_tensor(rng, {k, n}, scale);
  const Tensor want = run_matmul(gemm::Mode::kNaive, a, b);
  const Tensor got = run_matmul(gemm::Mode::kSimd, a, b);
  expect_ulp_close(got, want, term_magnitudes(a, b, m, k, n, false),
                   "simd matmul");
}

MDL_PROP_TEST(GemmDiff, SimdMatmulNtWithinUlpOfNaive) {
  if (!cpu::simd_gemm_supported())
    GTEST_SKIP() << "no AVX2+FMA on this machine/build";
  PoolGuard pool;
  set_shared_pool_threads(prop::pick(rng, {1L, 2L, 8L}));
  const std::int64_t m = gen_dim(rng);
  const std::int64_t k = gen_dim(rng);
  const std::int64_t n = gen_dim(rng);
  const double scale = gen_scale(rng);
  const Tensor a = prop::gen_tensor(rng, {m, k}, scale);
  const Tensor bt = prop::gen_tensor(rng, {n, k}, scale);
  const Tensor want = run_matmul_nt(gemm::Mode::kNaive, a, bt);
  const Tensor got = run_matmul_nt(gemm::Mode::kSimd, a, bt);
  expect_ulp_close(got, want, term_magnitudes(a, bt, m, k, n, true),
                   "simd matmul_nt");
}

MDL_PROP_TEST(GemmDiff, SimdBatchInvariance) {
  // The serve-batching invariant, at the kernel level: a row's bits must
  // not depend on the batch it rides in. Compute [m,n] in one call, then
  // each row alone, and demand identical bits from the SIMD suite.
  if (!cpu::simd_gemm_supported())
    GTEST_SKIP() << "no AVX2+FMA on this machine/build";
  PoolGuard pool;
  set_shared_pool_threads(prop::pick(rng, {1L, 2L, 8L}));
  const std::int64_t m = prop::gen_int(rng, 2, 9);
  const std::int64_t k = gen_dim(rng);
  const std::int64_t n = gen_dim(rng);
  const Tensor a = prop::gen_tensor(rng, {m, k});
  const Tensor bt = prop::gen_tensor(rng, {n, k});
  const Tensor batched = run_matmul_nt(gemm::Mode::kSimd, a, bt);
  for (std::int64_t i = 0; i < m; ++i) {
    Tensor row({1, k});
    for (std::int64_t kk = 0; kk < k; ++kk) row[kk] = a[i * k + kk];
    const Tensor alone = run_matmul_nt(gemm::Mode::kSimd, row, bt);
    for (std::int64_t j = 0; j < n; ++j)
      ASSERT_EQ(std::memcmp(alone.data() + j, batched.data() + i * n + j,
                            sizeof(float)),
                0)
          << "row " << i << " col " << j;
  }
}

MDL_PROP_TEST(GemmDiff, SimdMatmulNtTilesMatchSingleDot) {
  // The nt kernel runs 2x4 and 1x4 register tiles plus a single-dot path
  // for the n mod 4 last columns. A [1,1] product always takes the single
  // dot, so it is the oracle: every element of an [m,n] product, plain or
  // accumulated into a non-zero out, must equal it bit for bit.
  if (!cpu::simd_gemm_supported())
    GTEST_SKIP() << "no AVX2+FMA on this machine/build";
  PoolGuard pool;
  set_shared_pool_threads(prop::pick(rng, {1L, 2L, 8L}));
  const std::int64_t m = prop::gen_int(rng, 1, 9);
  const std::int64_t n =
      4 * prop::gen_int(rng, 1, 5) + prop::gen_int(rng, -1, 1);
  const std::int64_t k =
      prop::pick(rng, {0L, 1L, 2L, 3L, 4L, 5L, 6L, 7L, 8L, 9L, 15L, 16L, 17L,
                       255L, 256L, 257L, 513L});
  const Tensor a = prop::gen_tensor(rng, {m, k});
  const Tensor bt = prop::gen_tensor(rng, {n, k});
  const Tensor out0 = prop::gen_tensor(rng, {m, n});
  ModeGuard guard;
  gemm::set_mode(gemm::Mode::kSimd);
  const Tensor plain = matmul_nt(a, bt);
  Tensor acc = out0;
  matmul_nt_acc(a, bt, acc);
  Tensor row({1, k});
  Tensor col({1, k});
  for (std::int64_t i = 0; i < m; ++i) {
    std::copy(a.data() + i * k, a.data() + (i + 1) * k, row.data());
    for (std::int64_t j = 0; j < n; ++j) {
      std::copy(bt.data() + j * k, bt.data() + (j + 1) * k, col.data());
      const Tensor want_plain = matmul_nt(row, col);
      Tensor want_acc({1, 1});
      want_acc[0] = out0[i * n + j];
      matmul_nt_acc(row, col, want_acc);
      ASSERT_EQ(std::memcmp(plain.data() + i * n + j, want_plain.data(),
                            sizeof(float)),
                0)
          << "matmul_nt [" << m << "," << k << "]x[" << n << "," << k
          << "]^T element (" << i << "," << j << ")";
      ASSERT_EQ(std::memcmp(acc.data() + i * n + j, want_acc.data(),
                            sizeof(float)),
                0)
          << "matmul_nt_acc [" << m << "," << k << "]x[" << n << "," << k
          << "]^T element (" << i << "," << j << ")";
    }
  }
}

MDL_PROP_TEST(GemmDiff, Int8SimdExactlyMatchesScalar) {
  if (!cpu::simd_gemm_supported())
    GTEST_SKIP() << "no AVX2+FMA on this machine/build";
  PoolGuard pool;
  set_shared_pool_threads(prop::pick(rng, {1L, 2L, 8L}));
  const std::int64_t m = gen_dim(rng);
  const std::int64_t k = prop::pick(rng, {1L, 15L, 16L, 17L, 33L, 200L});
  const std::int64_t n = gen_dim(rng);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * k));
  for (auto& v : a)
    v = static_cast<std::uint8_t>(prop::gen_int(rng, 0, 255));
  for (auto& v : b)
    v = static_cast<std::int8_t>(prop::gen_int(rng, -128, 127));
  std::vector<std::int32_t> za(static_cast<std::size_t>(m));
  for (auto& z : za)
    z = static_cast<std::int32_t>(prop::gen_int(rng, 0, 255));
  std::vector<std::int32_t> rowsum(static_cast<std::size_t>(n), 0);
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t kk = 0; kk < k; ++kk)
      rowsum[static_cast<std::size_t>(j)] += b[j * k + kk];
  const bool with_zp = prop::pick(rng, {true, false});

  std::vector<std::int32_t> want(static_cast<std::size_t>(m * n));
  std::vector<std::int32_t> got(static_cast<std::size_t>(m * n));
  gemm::reference::int8_gemm_nt(a.data(), b.data(), want.data(), m, k, n,
                                with_zp ? za.data() : nullptr,
                                with_zp ? rowsum.data() : nullptr);
  ModeGuard guard;
  gemm::set_mode(gemm::Mode::kSimd);
  gemm::int8_gemm_nt(a.data(), b.data(), got.data(), m, k, n,
                     with_zp ? za.data() : nullptr,
                     with_zp ? rowsum.data() : nullptr);
  for (std::int64_t i = 0; i < m * n; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              want[static_cast<std::size_t>(i)])
        << "element " << i;
}

MDL_PROP_TEST(GemmDiff, RawRowKernelsTolerateUnalignedPointers) {
  // The row-slab entry points take raw pointers; feed them slices at odd
  // offsets so no operand is 32-byte (or even 4-element) aligned. Results
  // must match the same computation on aligned copies — the kernels use
  // unaligned loads throughout, and this pins that.
  if (!cpu::simd_gemm_supported())
    GTEST_SKIP() << "no AVX2+FMA on this machine/build";
  const std::int64_t m = prop::gen_int(rng, 1, 6);
  const std::int64_t k = gen_dim(rng);
  const std::int64_t n = gen_dim(rng);
  const std::int64_t off = prop::pick(rng, {1L, 3L, 5L, 7L});

  std::vector<float> abuf(static_cast<std::size_t>(off + m * k));
  std::vector<float> bbuf(static_cast<std::size_t>(off + k * n));
  Rng fill(rng.uniform_int(1 << 30) + 1);
  for (auto& v : abuf) v = static_cast<float>(fill.uniform(-1.0, 1.0));
  for (auto& v : bbuf) v = static_cast<float>(fill.uniform(-1.0, 1.0));
  const float* a_off = abuf.data() + off;
  const float* b_off = bbuf.data() + off;

  std::vector<float> c_off(static_cast<std::size_t>(m * n), 0.0F);
  gemm::simd::avx2_gemm_rows(a_off, b_off, c_off.data(), 0, m, k, n);

  std::vector<float> a_al(a_off, a_off + m * k);
  std::vector<float> b_al(b_off, b_off + k * n);
  std::vector<float> c_al(static_cast<std::size_t>(m * n), 0.0F);
  gemm::simd::avx2_gemm_rows(a_al.data(), b_al.data(), c_al.data(), 0, m, k,
                             n);
  for (std::int64_t i = 0; i < m * n; ++i)
    ASSERT_EQ(std::memcmp(&c_off[static_cast<std::size_t>(i)],
                          &c_al[static_cast<std::size_t>(i)], sizeof(float)),
              0)
        << "element " << i;
}

TEST(GemmDiff, ZeroExtentAndZeroRowShapes) {
  // Degenerate shapes must not crash or write in any suite.
  PoolGuard pool;
  set_shared_pool_threads(2);
  for (const gemm::Mode mode :
       {gemm::Mode::kNaive, gemm::Mode::kBlocked, gemm::Mode::kSimd}) {
    if (mode == gemm::Mode::kSimd && !cpu::simd_gemm_supported()) continue;
    ModeGuard guard;
    gemm::set_mode(mode);
    const Tensor a({0, 5});
    const Tensor b({5, 4});
    const Tensor out = matmul(a, b);
    EXPECT_EQ(out.shape(0), 0);
    EXPECT_EQ(out.shape(1), 4);
    const Tensor nt = matmul_nt(Tensor({3, 0}), Tensor({2, 0}));
    EXPECT_EQ(nt.shape(0), 3);
    EXPECT_EQ(nt.shape(1), 2);
    for (std::int64_t i = 0; i < nt.size(); ++i) EXPECT_EQ(nt[i], 0.0F);
  }
}

TEST(GemmDiff, Int8KTooLargeThrows) {
  // k beyond the documented int32-overflow bound is a clean error.
  const std::int64_t k = 66052;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k));
  std::vector<std::int32_t> out(1);
  EXPECT_THROW(
      gemm::int8_gemm_nt(a.data(), b.data(), out.data(), 1, k, 1, nullptr,
                         nullptr),
      Error);
}

TEST(GemmDiff, Int8ExtremesAtTheKBound) {
  // The worst int8 term is 255 * -128 = -32640; 65793 of them is the
  // longest sum an int32 holds, so k = 65793 must be exact in every suite
  // (without and with zero points) and k = 65794 must throw.
  constexpr std::int64_t kMax = 65793;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(kMax + 1), 255);
  std::vector<std::int8_t> b(static_cast<std::size_t>(kMax + 1), -128);
  const std::int32_t za = 255;
  std::int32_t rowsum = 0;
  std::int64_t want_plain = 0;
  std::int64_t want_zp = 0;
  for (std::int64_t kk = 0; kk < kMax; ++kk) {
    const std::size_t i = static_cast<std::size_t>(kk);
    rowsum += b[i];
    want_plain += std::int64_t{a[i]} * b[i];
    want_zp += (std::int64_t{a[i]} - za) * b[i];
  }
  for (const gemm::Mode mode :
       {gemm::Mode::kNaive, gemm::Mode::kBlocked, gemm::Mode::kSimd}) {
    if (mode == gemm::Mode::kSimd && !cpu::simd_gemm_supported()) continue;
    ModeGuard guard;
    gemm::set_mode(mode);
    std::int32_t out = 1;
    gemm::int8_gemm_nt(a.data(), b.data(), &out, 1, kMax, 1, nullptr,
                       nullptr);
    EXPECT_EQ(out, want_plain) << gemm::mode_name(mode);
    gemm::int8_gemm_nt(a.data(), b.data(), &out, 1, kMax, 1, &za, &rowsum);
    EXPECT_EQ(out, want_zp) << gemm::mode_name(mode) << " with zero point";
    EXPECT_THROW(gemm::int8_gemm_nt(a.data(), b.data(), &out, 1, kMax + 1, 1,
                                    nullptr, nullptr),
                 Error)
        << gemm::mode_name(mode);
  }
  std::int32_t out = 1;
  gemm::reference::int8_gemm_nt(a.data(), b.data(), &out, 1, kMax, 1, nullptr,
                                nullptr);
  EXPECT_EQ(out, want_plain) << "reference";
  EXPECT_THROW(gemm::reference::int8_gemm_nt(a.data(), b.data(), &out, 1,
                                             kMax + 1, 1, nullptr, nullptr),
               Error)
      << "reference";
}

// ------------------------------------------------------- Gate activations
// sigmoid_span / tanh_span in every mode this machine runs: the scalar
// reference loops under naive and blocked, the AVX2 kernels under simd.

std::vector<gemm::Mode> runnable_modes() {
  std::vector<gemm::Mode> modes{gemm::Mode::kNaive, gemm::Mode::kBlocked};
  if (cpu::simd_gemm_supported()) modes.push_back(gemm::Mode::kSimd);
  return modes;
}

struct Activation {
  const char* name;
  void (*apply)(std::span<float>);
  double (*reference)(double);
  std::int64_t max_ulp;
};

double sigmoid_ref(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double tanh_ref(double x) { return std::tanh(x); }

const Activation kActivations[] = {
    {"sigmoid", nn::sigmoid_span, sigmoid_ref, 4},
    {"tanh", nn::tanh_span, tanh_ref, 8},
};

std::vector<float> applied(const Activation& act, std::vector<float> x) {
  act.apply(x);
  return x;
}

TEST(GateActivation, WithinUlpOfDoubleReference) {
  // Every 97th float of [-20, 20], both signs, subnormals included, in
  // chunks; the double reference is computed once per chunk for all modes.
  constexpr std::uint64_t kStride = 97;
  constexpr std::uint64_t kChunk = kStride << 15;
  const std::uint64_t top = std::bit_cast<std::uint32_t>(20.0F);
  for (const Activation& act : kActivations) {
    const std::vector<gemm::Mode> modes = runnable_modes();
    std::vector<std::int64_t> worst(modes.size(), 0);
    std::vector<float> worst_at(modes.size(), 0.0F);
    std::vector<float> x;
    std::vector<float> want;
    for (std::uint64_t start = 0; start <= top; start += kChunk) {
      x.clear();
      for (std::uint64_t bits = start; bits <= std::min(top, start + kChunk - 1);
           bits += kStride) {
        const auto v = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
        x.push_back(v);
        x.push_back(-v);
      }
      want.resize(x.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        want[i] = static_cast<float>(act.reference(x[i]));
      for (std::size_t m = 0; m < modes.size(); ++m) {
        ModeGuard guard;
        gemm::set_mode(modes[m]);
        const std::vector<float> got = applied(act, x);
        for (std::size_t i = 0; i < x.size(); ++i) {
          const std::int64_t ulp = prop::ulp_distance(got[i], want[i]);
          if (ulp > worst[m]) {
            worst[m] = ulp;
            worst_at[m] = x[i];
          }
        }
      }
    }
    for (std::size_t m = 0; m < modes.size(); ++m)
      EXPECT_LE(worst[m], act.max_ulp)
          << act.name << " under " << gemm::mode_name(modes[m]) << " at x = "
          << worst_at[m];
  }
}

TEST(GateActivation, NanPropagatesAndInfinitiesSaturate) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Thirteen values: eight in a full vector, five in a masked tail, with
  // NaN and both infinities in each part.
  const std::vector<float> special{nan,  inf,   -inf,   -nan, 1e4F, -1e4F, 90.0F,
                                   -90.0F, 0.0F, nan, -inf, inf, -0.0F};
  std::vector<float> sweep;  // |x| up to 1e4
  for (int i = -1000; i <= 1000; ++i) sweep.push_back(static_cast<float>(i) * 10.0F);
  for (const gemm::Mode mode : runnable_modes()) {
    SCOPED_TRACE(gemm::mode_name(mode));
    ModeGuard guard;
    gemm::set_mode(mode);
    const std::vector<float> s = applied(kActivations[0], special);
    const std::vector<float> t = applied(kActivations[1], special);
    for (std::size_t i = 0; i < special.size(); ++i) {
      const float x = special[i];
      SCOPED_TRACE(testing::Message() << "x = " << x << " at " << i);
      if (std::isnan(x)) {
        EXPECT_TRUE(std::isnan(s[i]));
        EXPECT_TRUE(std::isnan(t[i]));
      } else if (std::isinf(x)) {
        EXPECT_EQ(s[i], x > 0 ? 1.0F : 0.0F);
        EXPECT_EQ(t[i], x > 0 ? 1.0F : -1.0F);
      } else if (x == 0.0F) {
        EXPECT_EQ(s[i], 0.5F);
        EXPECT_EQ(t[i], 0.0F);
        EXPECT_EQ(std::signbit(t[i]), std::signbit(x));
      }
    }
    const std::vector<float> ss = applied(kActivations[0], sweep);
    const std::vector<float> ts = applied(kActivations[1], sweep);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_TRUE(ss[i] >= 0.0F && ss[i] <= 1.0F) << sweep[i] << " -> " << ss[i];
      EXPECT_TRUE(ts[i] >= -1.0F && ts[i] <= 1.0F) << sweep[i] << " -> " << ts[i];
    }
  }
}

TEST(GateActivation, ElementBitsIgnoreSpanAndLane) {
  // Each element alone, and the span shifted by three lanes, against the
  // whole 37-element span: body lanes, tail lanes and misaligned starts.
  Rng rng(11);
  std::vector<float> x(37);
  for (float& v : x) v = static_cast<float>(rng.uniform(-12.0, 12.0));
  for (const gemm::Mode mode : runnable_modes()) {
    ModeGuard guard;
    gemm::set_mode(mode);
    for (const Activation& act : kActivations) {
      SCOPED_TRACE(testing::Message() << act.name << " under "
                                      << gemm::mode_name(mode));
      const std::vector<float> whole = applied(act, x);
      const std::vector<float> shifted =
          applied(act, std::vector<float>(x.begin() + 3, x.end()));
      for (std::size_t i = 0; i < x.size(); ++i) {
        const std::vector<float> alone = applied(act, {x[i]});
        EXPECT_EQ(std::bit_cast<std::uint32_t>(alone[0]),
                  std::bit_cast<std::uint32_t>(whole[i]))
            << "element " << i;
        if (i >= 3) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(shifted[i - 3]),
                    std::bit_cast<std::uint32_t>(whole[i]))
              << "element " << i;
        }
      }
    }
  }
}

/// Row b of a batch-8 infer against the same sequence run alone.
template <typename Recurrent>
void expect_rows_match_batch_of_one(std::int64_t hid) {
  constexpr std::int64_t kSteps = 12, kBatch = 8, kIn = 3;
  Rng rng(static_cast<std::uint64_t>(hid));
  const Recurrent layer(kIn, hid, rng);
  const Tensor seq = Tensor::randn({kSteps, kBatch, kIn}, rng);
  const Tensor h = layer.infer(seq);
  for (std::int64_t b = 0; b < kBatch; ++b) {
    Tensor one({kSteps, 1, kIn});
    for (std::int64_t t = 0; t < kSteps; ++t)
      std::copy_n(seq.data() + (t * kBatch + b) * kIn, kIn,
                  one.data() + t * kIn);
    expect_bits_equal(layer.infer(one), h.slice_rows(b, b + 1), "row");
  }
}

TEST(GateActivation, RecurrentRowsMatchBatchOfOne) {
  for (const gemm::Mode mode : runnable_modes()) {
    ModeGuard guard;
    gemm::set_mode(mode);
    for (const std::int64_t hid : {5, 16}) {
      SCOPED_TRACE(testing::Message() << "H=" << hid << " under "
                                      << gemm::mode_name(mode));
      expect_rows_match_batch_of_one<nn::GRU>(hid);
      expect_rows_match_batch_of_one<nn::LSTM>(hid);
    }
  }
}

}  // namespace
}  // namespace mdl
