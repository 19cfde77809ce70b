// AVX2 (FMA) micro-kernels for mdl::gemm — the only translation unit in
// the tree compiled with -mavx2 -mfma (per-file flags in
// src/core/CMakeLists.txt). See gemm_simd.hpp for the determinism
// contract; the short version is that every output element's operation
// sequence is a pure function of (k, n, operand values), so batch size,
// row sharding, and blocking can never change any element's bits.
//
// Float kernels use explicit intrinsics for *every* element, including
// j-remainders (masked loads/stores of the same fma sequence), so the
// compiler cannot give remainder elements a different contraction than
// vector-body elements — which would make results depend on where a row
// boundary fell.
#include "core/gemm_simd.hpp"

#include "core/error.hpp"

#ifdef MDL_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace mdl::gemm::simd {

namespace {

// Cache blocking factors, mirroring the scalar blocked path (gemm.hpp):
// kKc*kNc floats of B stay L2-resident across a row slab. Blocking only
// reorders work *across* elements, never within one element's chain.
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 128;

/// Lane mask with the low `live` of 8 lanes enabled (1 <= live <= 7).
inline __m256i tail_mask(std::int64_t live) {
  alignas(32) std::int32_t lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::int64_t l = 0; l < live; ++l) lanes[l] = -1;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
}

/// Lanes l + l+4 of v, l = 0..3: the first step of hsum256.
inline __m128 fold_halves(__m256 v) {
  return _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
}

/// Fixed-order horizontal sum: (lo quad + hi quad), then pairwise. Every
/// dot product in the nt kernel reduces through this exact sequence, alone
/// or four at a time (hsum256_x4).
inline float hsum256(__m256 v) {
  __m128 s = fold_halves(v);                  // lanes l + l+4
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));     // + lanes 2,3
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1)); // + lane 1
  return _mm_cvtss_f32(s);
}

/// hsum256 of four accumulators at once: lane q of the result is
/// hsum256(sq) bit for bit. Each lane runs hsum256's add tree,
/// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)); the transpose only
/// moves lanes, so the four sums share each add instead of reassociating.
inline __m128 hsum256_x4(__m256 s0, __m256 s1, __m256 s2, __m256 s3) {
  __m128 t0 = fold_halves(s0);
  __m128 t1 = fold_halves(s1);
  __m128 t2 = fold_halves(s2);
  __m128 t3 = fold_halves(s3);
  _MM_TRANSPOSE4_PS(t0, t1, t2, t3);  // t_l = lane l of each of s0..s3
  return _mm_add_ps(_mm_add_ps(t0, t2), _mm_add_ps(t1, t3));
}

/// One k-block of one C row: crow[j0..j1) gets its [k0,k1) terms as an
/// ascending-k fma chain, 8 lanes across j, masked at the j tail.
inline void row_block(const float* arow, const float* b, float* crow,
                      std::int64_t k0, std::int64_t k1, std::int64_t j0,
                      std::int64_t j1, std::int64_t n) {
  std::int64_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j);
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const __m256 av = _mm256_set1_ps(arow[kk]);
      const __m256 bv = _mm256_loadu_ps(b + kk * n + j);
      acc = _mm256_fmadd_ps(av, bv, acc);
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  if (j < j1) {
    const __m256i mask = tail_mask(j1 - j);
    __m256 acc = _mm256_maskload_ps(crow + j, mask);
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const __m256 av = _mm256_set1_ps(arow[kk]);
      const __m256 bv = _mm256_maskload_ps(b + kk * n + j, mask);
      acc = _mm256_fmadd_ps(av, bv, acc);  // dead lanes: fma(a,0,c) == c
    }
    _mm256_maskstore_ps(crow + j, mask, acc);
  }
}

/// Two C rows sharing each B vector load. Per-row arithmetic is the exact
/// row_block sequence, so pair/single grouping cannot change bits. The
/// 32-wide body keeps 8 independent fma chains in flight (2 rows x 4
/// j-vectors) — enough instruction-level parallelism to cover the fma
/// latency, which the plain 8-wide loop (2 chains) cannot.
inline void row2_block(const float* arow0, const float* arow1, const float* b,
                       float* crow0, float* crow1, std::int64_t k0,
                       std::int64_t k1, std::int64_t j0, std::int64_t j1,
                       std::int64_t n) {
  std::int64_t j = j0;
  for (; j + 32 <= j1; j += 32) {
    __m256 a00 = _mm256_loadu_ps(crow0 + j);
    __m256 a01 = _mm256_loadu_ps(crow0 + j + 8);
    __m256 a02 = _mm256_loadu_ps(crow0 + j + 16);
    __m256 a03 = _mm256_loadu_ps(crow0 + j + 24);
    __m256 a10 = _mm256_loadu_ps(crow1 + j);
    __m256 a11 = _mm256_loadu_ps(crow1 + j + 8);
    __m256 a12 = _mm256_loadu_ps(crow1 + j + 16);
    __m256 a13 = _mm256_loadu_ps(crow1 + j + 24);
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const float* brow = b + kk * n + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      const __m256 b2 = _mm256_loadu_ps(brow + 16);
      const __m256 b3 = _mm256_loadu_ps(brow + 24);
      const __m256 av0 = _mm256_set1_ps(arow0[kk]);
      const __m256 av1 = _mm256_set1_ps(arow1[kk]);
      a00 = _mm256_fmadd_ps(av0, b0, a00);
      a01 = _mm256_fmadd_ps(av0, b1, a01);
      a02 = _mm256_fmadd_ps(av0, b2, a02);
      a03 = _mm256_fmadd_ps(av0, b3, a03);
      a10 = _mm256_fmadd_ps(av1, b0, a10);
      a11 = _mm256_fmadd_ps(av1, b1, a11);
      a12 = _mm256_fmadd_ps(av1, b2, a12);
      a13 = _mm256_fmadd_ps(av1, b3, a13);
    }
    _mm256_storeu_ps(crow0 + j, a00);
    _mm256_storeu_ps(crow0 + j + 8, a01);
    _mm256_storeu_ps(crow0 + j + 16, a02);
    _mm256_storeu_ps(crow0 + j + 24, a03);
    _mm256_storeu_ps(crow1 + j, a10);
    _mm256_storeu_ps(crow1 + j + 8, a11);
    _mm256_storeu_ps(crow1 + j + 16, a12);
    _mm256_storeu_ps(crow1 + j + 24, a13);
  }
  for (; j + 8 <= j1; j += 8) {
    __m256 acc0 = _mm256_loadu_ps(crow0 + j);
    __m256 acc1 = _mm256_loadu_ps(crow1 + j);
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + kk * n + j);
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(arow0[kk]), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(arow1[kk]), bv, acc1);
    }
    _mm256_storeu_ps(crow0 + j, acc0);
    _mm256_storeu_ps(crow1 + j, acc1);
  }
  if (j < j1) {
    const __m256i mask = tail_mask(j1 - j);
    __m256 acc0 = _mm256_maskload_ps(crow0 + j, mask);
    __m256 acc1 = _mm256_maskload_ps(crow1 + j, mask);
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const __m256 bv = _mm256_maskload_ps(b + kk * n + j, mask);
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(arow0[kk]), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(arow1[kk]), bv, acc1);
    }
    _mm256_maskstore_ps(crow0 + j, mask, acc0);
    _mm256_maskstore_ps(crow1 + j, mask, acc1);
  }
}

/// 8-lane strided dot product over k: lane l accumulates terms
/// k ≡ l (mod 8) by fma, then hsum256, then the k tail as one fma per
/// term. The chain depends only on k, so batch=1 and batch=N score a row
/// identically. The tail's fma is written out (std::fma) rather than left
/// to contraction, which GCC -O3 may vectorize into a multiply and an add.
inline float dot_simd(const float* x, const float* y, std::int64_t k) {
  __m256 acc = _mm256_setzero_ps();
  std::int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk), _mm256_loadu_ps(y + kk),
                          acc);
  float total = hsum256(acc);
  for (; kk < k; ++kk) total = std::fma(x[kk], y[kk], total);
  return total;
}

/// Ends four dot_simd chains that share the A row `x` and run against the
/// four B rows from `b` (row stride k): hsum256 of each accumulator, the
/// tail [kk, k) as one fma per term, then c[q] += — dot_simd's sequence
/// for each element, run in the four lanes of one __m128.
inline void finish_x4(__m256 s0, __m256 s1, __m256 s2, __m256 s3,
                      const float* x, const float* b, float* c,
                      std::int64_t kk, std::int64_t k) {
  __m128 total = hsum256_x4(s0, s1, s2, s3);
  for (; kk < k; ++kk)
    total = _mm_fmadd_ps(
        _mm_set1_ps(x[kk]),
        _mm_setr_ps(b[kk], b[k + kk], b[2 * k + kk], b[3 * k + kk]), total);
  _mm_storeu_ps(c, _mm_add_ps(_mm_loadu_ps(c), total));
}

/// C[0..1][0..3] += two A rows against four B rows (row stride k): the
/// eight dot_simd accumulators of a 2x4 block in flight at once, with 6
/// loads per 8 fmas where one dot_simd needs 2 per fma.
inline void dot_tile_2x4(const float* a0, const float* a1, const float* b,
                         float* c0, float* c1, std::int64_t k) {
  const float* b1 = b + k;
  const float* b2 = b + 2 * k;
  const float* b3 = b + 3 * k;
  __m256 s00 = _mm256_setzero_ps(), s01 = s00, s02 = s00, s03 = s00;
  __m256 s10 = s00, s11 = s00, s12 = s00, s13 = s00;
  std::int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 x0 = _mm256_loadu_ps(a0 + kk);
    const __m256 x1 = _mm256_loadu_ps(a1 + kk);
    __m256 y = _mm256_loadu_ps(b + kk);
    s00 = _mm256_fmadd_ps(x0, y, s00);
    s10 = _mm256_fmadd_ps(x1, y, s10);
    y = _mm256_loadu_ps(b1 + kk);
    s01 = _mm256_fmadd_ps(x0, y, s01);
    s11 = _mm256_fmadd_ps(x1, y, s11);
    y = _mm256_loadu_ps(b2 + kk);
    s02 = _mm256_fmadd_ps(x0, y, s02);
    s12 = _mm256_fmadd_ps(x1, y, s12);
    y = _mm256_loadu_ps(b3 + kk);
    s03 = _mm256_fmadd_ps(x0, y, s03);
    s13 = _mm256_fmadd_ps(x1, y, s13);
  }
  finish_x4(s00, s01, s02, s03, a0, b, c0, kk, k);
  finish_x4(s10, s11, s12, s13, a1, b, c1, kk, k);
}

/// C[0][0..3] += one A row against four B rows: dot_tile_2x4 for a lone
/// row, four chains in flight.
inline void dot_tile_1x4(const float* a0, const float* b, float* c0,
                         std::int64_t k) {
  __m256 s0 = _mm256_setzero_ps(), s1 = s0, s2 = s0, s3 = s0;
  std::int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 x0 = _mm256_loadu_ps(a0 + kk);
    s0 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(b + kk), s0);
    s1 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(b + k + kk), s1);
    s2 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(b + 2 * k + kk), s2);
    s3 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(b + 3 * k + kk), s3);
  }
  finish_x4(s0, s1, s2, s3, a0, b, c0, kk, k);
}

/// Exact int32 dot of u8 × s8 rows: 16-wide widening madd, lane reduce,
/// scalar tail. Integer addition is associative, so any grouping equals
/// the scalar twin bit for bit.
inline std::int32_t dot_u8s8(const std::uint8_t* x, const std::int8_t* y,
                             std::int64_t k) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    const __m256i xv = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + kk)));
    const __m256i yv = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + kk)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int32_t total = 0;
  for (std::int32_t lane : lanes) total += lane;
  for (; kk < k; ++kk)
    total += static_cast<std::int32_t>(x[kk]) * static_cast<std::int32_t>(y[kk]);
  return total;
}

}  // namespace

bool compiled() { return true; }

void avx2_gemm_rows(const float* a, const float* b, float* c, std::int64_t r0,
                    std::int64_t r1, std::int64_t k, std::int64_t n) {
  for (std::int64_t k0 = 0; k0 < k; k0 += kKc) {
    const std::int64_t k1 = std::min(k, k0 + kKc);
    for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
      const std::int64_t j1 = std::min(n, j0 + kNc);
      std::int64_t i = r0;
      for (; i + 2 <= r1; i += 2)
        row2_block(a + i * k, a + (i + 1) * k, b, c + i * n, c + (i + 1) * n,
                   k0, k1, j0, j1, n);
      if (i < r1) row_block(a + i * k, b, c + i * n, k0, k1, j0, j1, n);
    }
  }
}

void avx2_gemm_nt_rows(const float* a, const float* b, float* c,
                       std::int64_t r0, std::int64_t r1, std::int64_t k,
                       std::int64_t n) {
  // Rows in pairs against groups of four B rows, a lone last row in 1x4
  // tiles, and the n mod 4 last columns through dot_simd. Every element
  // runs dot_simd's chain whichever of these it lands in, so grouping,
  // like sharding, cannot change a bit.
  const std::int64_t n4 = n - n % 4;
  std::int64_t i = r0;
  for (; i + 2 <= r1; i += 2)
    for (std::int64_t j = 0; j < n4; j += 4)
      dot_tile_2x4(a + i * k, a + (i + 1) * k, b + j * k, c + i * n + j,
                   c + (i + 1) * n + j, k);
  if (i < r1)
    for (std::int64_t j = 0; j < n4; j += 4)
      dot_tile_1x4(a + i * k, b + j * k, c + i * n + j, k);
  for (i = r0; i < r1; ++i)
    for (std::int64_t j = n4; j < n; ++j)
      c[i * n + j] += dot_simd(a + i * k, b + j * k, k);
}

void avx2_int8_gemm_nt_rows(const std::uint8_t* a, const std::int8_t* b,
                            std::int32_t* c, std::int64_t r0, std::int64_t r1,
                            std::int64_t k, std::int64_t n,
                            const std::int32_t* za,
                            const std::int32_t* b_rowsum) {
  for (std::int64_t i = r0; i < r1; ++i) {
    const std::uint8_t* arow = a + i * k;
    std::int32_t* crow = c + i * n;
    const std::int32_t zai = za != nullptr ? za[i] : 0;
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = dot_u8s8(arow, b + j * k, k);
      if (za != nullptr) acc -= zai * b_rowsum[j];
      crow[j] = acc;
    }
  }
}

// -- Gate activations ----------------------------------------------------------
// Elementwise, so every lane runs the same op sequence on its own value and
// a span's tail goes through the same sequence under a lane mask: an
// element's bits depend only on its value. Clamps put x second in
// _mm256_min_ps/_mm256_max_ps, which return the second operand when either
// is NaN, so NaN reaches the output; ordered compares are false on NaN, so
// no mask below selects a constant for it.

namespace {

/// exp(x) for x <= 0, by Cephes' expf: x = n·ln2 + r with n = round(x·log2e)
/// and ln2 split in two for an exact-enough r, a degree-7 polynomial in r,
/// then the exponent bits of 2^n. Below -87 (where 2^n would leave the
/// normal range) the result is 0.
inline __m256 exp_nonpositive(__m256 x) {
  const __m256 floor_arg = _mm256_set1_ps(-87.0F);
  const __m256 xc = _mm256_max_ps(floor_arg, x);
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(xc, _mm256_set1_ps(1.44269504088896341F)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375F), xc);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4F), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4F);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3F));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3F));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2F));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1F));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1F));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0F));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  const __m256 e = _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
  return _mm256_andnot_ps(_mm256_cmp_ps(x, floor_arg, _CMP_LT_OQ), e);
}

/// sigmoid_scalar's split: t = exp(-|x|), then 1/(1+t) for x >= 0 and
/// t/(1+t) below, so neither side divides by an overflowed exp.
inline __m256 sigmoid8(__m256 x) {
  const __m256 t = exp_nonpositive(_mm256_or_ps(x, _mm256_set1_ps(-0.0F)));
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 num =
      _mm256_blendv_ps(one, t, _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LT_OQ));
  return _mm256_div_ps(num, _mm256_add_ps(one, t));
}

/// tanh by |x|, with x's sign put back: Cephes' tanhf odd polynomial
/// a + a·a²·P(a²) below 0.625, where 1 - 2/(e^{2a}+1) would cancel, and
/// (1-t)/(1+t) with t = exp(-2a) from there up.
inline __m256 tanh8(__m256 x) {
  const __m256 a = _mm256_andnot_ps(_mm256_set1_ps(-0.0F), x);
  const __m256 z = _mm256_mul_ps(a, a);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3F);
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(2.06390887954e-2F));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-5.37397155531e-2F));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(1.33314422036e-1F));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-3.33332819422e-1F));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), a, a);
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 t = exp_nonpositive(_mm256_mul_ps(_mm256_set1_ps(-2.0F), a));
  const __m256 large =
      _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
  const __m256 mag = _mm256_blendv_ps(
      large, small, _mm256_cmp_ps(a, _mm256_set1_ps(0.625F), _CMP_LT_OQ));
  return _mm256_or_ps(mag, _mm256_and_ps(x, _mm256_set1_ps(-0.0F)));
}

/// Applies `op` in place over x[0..n): whole vectors, then the tail under
/// a lane mask (dead lanes load 0 and are never stored).
template <typename Op>
inline void map_inplace(float* x, std::int64_t n, Op op) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(x + i, op(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i mask = tail_mask(n - i);
    _mm256_maskstore_ps(x + i, mask, op(_mm256_maskload_ps(x + i, mask)));
  }
}

}  // namespace

void avx2_sigmoid(float* x, std::int64_t n) { map_inplace(x, n, sigmoid8); }

void avx2_tanh(float* x, std::int64_t n) { map_inplace(x, n, tanh8); }

}  // namespace mdl::gemm::simd

#else  // !MDL_HAVE_AVX2 — stubs so the library links on baseline builds;
       // the dispatcher never routes here (cpu::simd_gemm_supported()).

namespace mdl::gemm::simd {

bool compiled() { return false; }

void avx2_gemm_rows(const float*, const float*, float*, std::int64_t,
                    std::int64_t, std::int64_t, std::int64_t) {
  MDL_FAIL("AVX2 GEMM kernels were not compiled into this build");
}

void avx2_gemm_nt_rows(const float*, const float*, float*, std::int64_t,
                       std::int64_t, std::int64_t, std::int64_t) {
  MDL_FAIL("AVX2 GEMM kernels were not compiled into this build");
}

void avx2_int8_gemm_nt_rows(const std::uint8_t*, const std::int8_t*,
                            std::int32_t*, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, const std::int32_t*,
                            const std::int32_t*) {
  MDL_FAIL("AVX2 GEMM kernels were not compiled into this build");
}

void avx2_sigmoid(float*, std::int64_t) {
  MDL_FAIL("AVX2 GEMM kernels were not compiled into this build");
}

void avx2_tanh(float*, std::int64_t) {
  MDL_FAIL("AVX2 GEMM kernels were not compiled into this build");
}

}  // namespace mdl::gemm::simd

#endif  // MDL_HAVE_AVX2
