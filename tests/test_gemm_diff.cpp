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
//
// Shapes are drawn adversarially: 1xN and Nx1 edges, multiples of the tile
// sizes and tile+-1, odd k (SIMD remainder lanes), zero-extent dims, and
// denormal-adjacent magnitudes (1e-38 scale) that stress gradual underflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/gemm.hpp"
#include "core/gemm_simd.hpp"
#include "core/tensor.hpp"
#include "core/threadpool.hpp"
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

}  // namespace
}  // namespace mdl
