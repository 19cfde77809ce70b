// Raw-pointer row-slab kernels implemented in gemm_simd_avx2.cpp — the one
// translation unit built with -mavx2 -mfma (per-file, so the rest of the
// tree stays baseline-ISA). Keep this header free of heavy inline code:
// anything inline here would be compiled with vector flags and could be
// picked by the linker for baseline TUs (the classic per-file-SIMD ODR
// trap), so it declares plain functions only.
//
// Determinism contract (what lets mdl::serve batch without changing bits):
// every kernel computes each output element by a fixed operation sequence
// that depends only on (k, n, the element's operand values) — never on m,
// the row index, blocking, or the thread count. Rows are independent, so
// callers may shard [r0, r1) freely.
//
//   - avx2_gemm_rows:     C[i,j] += fma-chain over ascending k (8-lane
//     broadcast-A across j; j-remainder uses masked loads of the same fma
//     sequence). Differs from the scalar chain only by FMA contraction —
//     ULP-bounded, pinned by tests/test_gemm_diff.cpp.
//   - avx2_gemm_nt_rows:  per-element 8-lane dot over k with a fixed-order
//     horizontal reduction (lane l accumulates terms k ≡ l mod 8), then
//     the k tail as one fma per term. 2x4 and 1x4 register tiles run
//     several elements' chains side by side without changing any.
//   - avx2_int8_gemm_nt_rows: exact int32 arithmetic (16-wide madd), so it
//     must equal the scalar twin bit for bit on every input.
//   - avx2_sigmoid / avx2_tanh: elementwise, the same op sequence in every
//     lane and, under a lane mask, at the span's tail, so an output
//     depends only on its own input — never on the span length, the
//     element's position or the batch. ULP-bounded against the scalar
//     sigmoid_scalar / std::tanh, never bit-identical; NaN propagates and
//     ±inf saturates (tests/test_gemm_diff.cpp pins both).
//
// All entry points MDL_FAIL when the build lacks AVX2 support
// (mdl::cpu::simd_gemm_supported() is the caller-side gate).
#pragma once

#include <cstdint>

namespace mdl::gemm::simd {

/// True when this build compiled the AVX2 kernels (CMake MDL_HAVE_AVX2).
bool compiled();

/// Row slab [r0, r1) of C += A @ B; A is [m,k], B is [k,n], row-major.
void avx2_gemm_rows(const float* a, const float* b, float* c,
                    std::int64_t r0, std::int64_t r1, std::int64_t k,
                    std::int64_t n);

/// Row slab [r0, r1) of C += A @ B^T; A is [m,k], B is [n,k], row-major.
void avx2_gemm_nt_rows(const float* a, const float* b, float* c,
                       std::int64_t r0, std::int64_t r1, std::int64_t k,
                       std::int64_t n);

/// Row slab [r0, r1) of the quantized product
///   C[i,j] = sum_k A[i,k] * B[j,k]  -  za[i] * b_rowsum[j]
/// with A unsigned 8-bit (asymmetric, per-row zero point za), B signed
/// 8-bit (symmetric), C int32. `za` may be null (symmetric A); `b_rowsum`
/// is required when `za` is non-null (b_rowsum[j] = sum_k B[j,k]).
void avx2_int8_gemm_nt_rows(const std::uint8_t* a, const std::int8_t* b,
                            std::int32_t* c, std::int64_t r0, std::int64_t r1,
                            std::int64_t k, std::int64_t n,
                            const std::int32_t* za,
                            const std::int32_t* b_rowsum);

/// x[i] = 1 / (1 + exp(-x[i])) in place over x[0..n). Below x = -87 the
/// result is 0, where sigmoid_scalar goes on into the subnormals.
void avx2_sigmoid(float* x, std::int64_t n);

/// x[i] = tanh(x[i]) in place over x[0..n).
void avx2_tanh(float* x, std::int64_t n);

}  // namespace mdl::gemm::simd
