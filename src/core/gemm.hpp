// Blocked, register-tiled, thread-parallel dense GEMM kernels.
//
// Every dense product in mobiledl (matmul / matmul_acc / matmul_tn /
// matmul_nt / matvec, declared in tensor.hpp) runs on the kernels in
// gemm.cpp. The _acc forms and matvec are defined there too: each checks
// its shapes once and picks the kernel suite for the current mode(), the
// one place in the library where a suite is chosen. The suites themselves
// are file-local; this header exports the mode API, the int8 product and
// the reference oracle. The design is constrained by the library's
// determinism guarantees (mdl::sim replay and mdl::ckpt resume are
// bit-identity tests): results must not depend on the thread count or on
// whether the blocked or the naive path ran.
//
// Accumulation policy (the library-wide contract, see DESIGN.md):
//   every output element is a single float32 accumulation chain over
//   k = 0, 1, ..., K-1 — one multiply-add per term, in ascending-k order,
//   starting from the destination value (0 for the non-accumulating
//   entry points).
//
// The blocked kernels preserve that chain exactly:
//   - cache blocking over K processes k-blocks in ascending order and runs
//     ascending-k inside each block, so the per-element term order is the
//     naive order;
//   - the micro-kernel unrolls K by 4 with an explicit scalar accumulator
//     (`cj += a0*b0[j]; cj += a1*b1[j]; ...`), which vectorizes across j
//     without reassociating the per-element chain;
//   - thread parallelism shards C row panels: a row is computed start to
//     finish by exactly one worker, so panel boundaries and worker count
//     never touch the arithmetic.
// Hence tiled == naive == tiled-at-N-threads, bit for bit (the
// tests/test_gemm.cpp equivalence suite enforces this at 1/2/8 threads).
//
// Shapes below the blocking threshold take a direct serial loop (same
// chain; for _tn, _nt and matvec it is the reference loop itself) so small
// recurrent steps (GRU/LSTM gates) pay no tiling or dispatch overhead.
#pragma once

#include <cstdint>
#include <string>

#include "core/tensor.hpp"

namespace mdl::gemm {

/// Kernel selector. Three suites sit behind the public entry points:
///
///   kNaive   — serial reference loops (the canonical ascending-k scalar
///              chain; the equivalence/differential oracle).
///   kBlocked — cache-blocked, register-tiled, thread-parallel scalar
///              kernels. Bit-identical to kNaive by construction.
///   kSimd    — AVX2+FMA micro-kernels for matmul / matmul_nt /
///              matmul_nt_acc (other ops fall back to kBlocked). matmul
///              keeps the ascending-k chain with each term an fma;
///              matmul_nt runs an 8-lane dot per element (fma over k in
///              steps of 8, a fixed-tree hsum256, then the k tail as one
///              fma per term), in 2x4/1x4 register tiles that leave each
///              element's chain as it is alone. Float results are
///              ULP-bounded against the scalar chain, never bit-identical;
///              int8 results are exact.
///
/// Selection: MDL_GEMM=naive|blocked|simd overrides everything (any other
/// value is a clean mdl::Error at first use). Without the override, a
/// one-shot CPUID probe (core/cpu_features.hpp) picks kSimd when the build
/// and CPU support AVX2+FMA, else kBlocked. The resolved kernel is logged
/// once through mdl::obs (gemm.kernel.<name> counter + a flight-recorder
/// instant) and exposed via kernel_name() for bench JSONL provenance.
enum class Mode { kNaive, kBlocked, kSimd };
Mode mode();
void set_mode(Mode m);

/// Parses an MDL_GEMM value; throws mdl::Error on anything but
/// naive / blocked / simd. kSimd additionally requires
/// cpu::simd_gemm_supported() — requesting it on an unsupported
/// machine/build is an error, not a silent fallback.
Mode parse_mode(const std::string& value);

/// The MDL_GEMM= / probe resolution step, exposed for tests: env override
/// wins (possibly throwing); otherwise the CPUID probe decides.
Mode resolve_mode(const char* env_value);

/// "naive" / "blocked" / "simd" for the currently selected mode.
const char* kernel_name();
const char* mode_name(Mode m);

// -- Quantized (int8) GEMM ---------------------------------------------------
// Row-major u8 × s8 -> int32 with per-row zero-point correction:
//
//   out[i,j] = sum_k a[i,k] * b[j,k]  -  za[i] * b_rowsum[j]
//
// a is [m,k] unsigned (asymmetric activations, zero point za[i] per row;
// za may be null for symmetric input), b is [n,k] signed (symmetric
// weights), b_rowsum[j] = sum_k b[j,k] (required when za is set; callers
// precompute it once per weight). All arithmetic is exact int32 — the AVX2
// path (mode kSimd) must equal the scalar reference bit for bit, and the
// differential harness enforces exact equality, not a tolerance. k is
// limited to 65793: the largest term is 255 * -128, and 32640*k must fit
// int32. Both this and the reference twin throw beyond it.
void int8_gemm_nt(const std::uint8_t* a, const std::int8_t* b,
                  std::int32_t* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, const std::int32_t* za,
                  const std::int32_t* b_rowsum);

// -- Reference kernels -------------------------------------------------------
// The retained naive loops that define the canonical accumulation order.
// Serial, unblocked, branch-free inner loops. The equivalence suite compares
// the public ops under the blocked suite against these bit for bit;
// MDL_GEMM=naive runs the same loops behind the public ops (the "before"
// baseline for perf evidence).
namespace reference {

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out);
void matvec_acc(const Tensor& a, const Tensor& x, Tensor& out);

/// Scalar twin of int8_gemm_nt — the exact-equality oracle for the AVX2
/// quantized kernel.
void int8_gemm_nt(const std::uint8_t* a, const std::int8_t* b,
                  std::int32_t* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, const std::int32_t* za,
                  const std::int32_t* b_rowsum);

}  // namespace reference

}  // namespace mdl::gemm
