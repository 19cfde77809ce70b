#include "core/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/error.hpp"
#include "core/gemm_simd.hpp"
#include "core/threadpool.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace mdl::gemm {

namespace {

// Tile sizes. kKc * kNc floats of B (128 KiB) stay L2-resident across a row
// panel; a C row segment (kNc floats) stays in L1 while its k-block runs.
constexpr std::int64_t kPanelRows = 32;  ///< rows per parallel shard
constexpr std::int64_t kKc = 256;        ///< k-block (macro kernel)
constexpr std::int64_t kNc = 128;        ///< j-block (macro kernel)

/// FLOP count (2*m*k*n) at and above which the blocked path is used.
constexpr std::int64_t kBlockFlopThreshold = 1LL << 18;
/// FLOP count at and above which row panels are sharded across the shared
/// pool. Below it, even the blocked path runs on the calling thread.
constexpr std::int64_t kParallelFlopThreshold = 1LL << 21;

/// Resolved kernel mode; -1 = not yet resolved. Resolution is lazy (first
/// mode() call) rather than static-init so an invalid MDL_GEMM value can
/// throw a catchable mdl::Error instead of terminating before main().
std::atomic<int> g_mode{-1};

/// The probe/override outcome is logged through mdl::obs exactly once per
/// process, no matter how often the mode is re-resolved or overridden.
std::once_flag g_log_once;

void log_selection(Mode m, bool from_env) {
  std::call_once(g_log_once, [&] {
    const char* name = mode_name(m);
    MDL_OBS_COUNTER_ADD(std::string("gemm.kernel.") + name, 1);
    MDL_OBS_RING_EVENT(obs::EventType::kInstant, "gemm.dispatch", 0,
                       from_env ? "override" : "probe", 1.0, "kernel", name);
    (void)name;
    (void)from_env;
  });
}

// Micro kernel, one C row: crow[j0..j1) += sum_{kk in [k0,k1)} A[i,kk]*B[kk,j].
// K is unrolled by 4 with one explicit scalar chain per j so the compiler
// vectorizes across j; each output element still receives its terms in
// ascending-k order, one multiply-add per term (the canonical chain).
inline void micro_1row(const float* arow, const float* pb, float* crow,
                       std::int64_t k0, std::int64_t k1, std::int64_t j0,
                       std::int64_t j1, std::int64_t n) {
  std::int64_t kk = k0;
  for (; kk + 4 <= k1; kk += 4) {
    const float a0 = arow[kk];
    const float a1 = arow[kk + 1];
    const float a2 = arow[kk + 2];
    const float a3 = arow[kk + 3];
    const float* b0 = pb + kk * n;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    for (std::int64_t j = j0; j < j1; ++j) {
      float cj = crow[j];
      cj += a0 * b0[j];
      cj += a1 * b1[j];
      cj += a2 * b2[j];
      cj += a3 * b3[j];
      crow[j] = cj;
    }
  }
  for (; kk < k1; ++kk) {
    const float a0 = arow[kk];
    const float* b0 = pb + kk * n;
    for (std::int64_t j = j0; j < j1; ++j) crow[j] += a0 * b0[j];
  }
}

// Register tile of two C rows: shares the four B row loads across both
// rows. Each row's accumulation chain is independent and identical to the
// one-row kernel's.
inline void micro_2row(const float* arow0, const float* arow1, const float* pb,
                       float* crow0, float* crow1, std::int64_t k0,
                       std::int64_t k1, std::int64_t j0, std::int64_t j1,
                       std::int64_t n) {
  std::int64_t kk = k0;
  for (; kk + 4 <= k1; kk += 4) {
    const float a00 = arow0[kk];
    const float a01 = arow0[kk + 1];
    const float a02 = arow0[kk + 2];
    const float a03 = arow0[kk + 3];
    const float a10 = arow1[kk];
    const float a11 = arow1[kk + 1];
    const float a12 = arow1[kk + 2];
    const float a13 = arow1[kk + 3];
    const float* b0 = pb + kk * n;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    for (std::int64_t j = j0; j < j1; ++j) {
      const float bj0 = b0[j];
      const float bj1 = b1[j];
      const float bj2 = b2[j];
      const float bj3 = b3[j];
      float c0 = crow0[j];
      c0 += a00 * bj0;
      c0 += a01 * bj1;
      c0 += a02 * bj2;
      c0 += a03 * bj3;
      crow0[j] = c0;
      float c1 = crow1[j];
      c1 += a10 * bj0;
      c1 += a11 * bj1;
      c1 += a12 * bj2;
      c1 += a13 * bj3;
      crow1[j] = c1;
    }
  }
  for (; kk < k1; ++kk) {
    const float a0 = arow0[kk];
    const float a1 = arow1[kk];
    const float* b0 = pb + kk * n;
    for (std::int64_t j = j0; j < j1; ++j) {
      const float bj = b0[j];
      crow0[j] += a0 * bj;
      crow1[j] += a1 * bj;
    }
  }
}

// Blocked macro kernel over a row slab [r0, r1) of C += A @ B. k-blocks run
// outermost and ascending, so every element's terms still arrive in
// ascending-k order; the j-blocking only reorders work *across* elements.
void gemm_rows(const float* pa, const float* pb, float* po, std::int64_t r0,
               std::int64_t r1, std::int64_t k, std::int64_t n) {
  for (std::int64_t k0 = 0; k0 < k; k0 += kKc) {
    const std::int64_t k1 = std::min(k, k0 + kKc);
    for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
      const std::int64_t j1 = std::min(n, j0 + kNc);
      std::int64_t i = r0;
      for (; i + 2 <= r1; i += 2)
        micro_2row(pa + i * k, pa + (i + 1) * k, pb, po + i * n,
                   po + (i + 1) * n, k0, k1, j0, j1, n);
      if (i < r1)
        micro_1row(pa + i * k, pb, po + i * n, k0, k1, j0, j1, n);
    }
  }
}

/// The shared pool when a product of `flops` over rows [0, m) clears the
/// parallel threshold and spans more than one row panel, else nullptr.
ThreadPool* pool_for(std::int64_t m, std::int64_t flops) {
  const std::int64_t panels = (m + kPanelRows - 1) / kPanelRows;
  return flops >= kParallelFlopThreshold && panels > 1 ? shared_pool()
                                                       : nullptr;
}

/// Runs `body(row0, row1)` over [0, m): inline when `pool` is null, else one
/// kPanelRows panel per pool task. Rows are independent in every kernel here
/// and each is computed start to finish by one worker, so sharding never
/// touches the arithmetic.
template <typename Body>
void shard_rows(ThreadPool* pool, std::int64_t m, const Body& body) {
  if (pool == nullptr) {
    body(0, m);
    return;
  }
  const std::int64_t panels = (m + kPanelRows - 1) / kPanelRows;
  parallel_for(pool, static_cast<std::size_t>(panels), [&](std::size_t p) {
    const std::int64_t row0 = static_cast<std::int64_t>(p) * kPanelRows;
    body(row0, std::min(m, row0 + kPanelRows));
  });
}

// C += A @ B on raw row-major buffers, with threshold dispatch: tiny shapes
// run a direct loop (no blocking/dispatch overhead on GRU-step latency),
// mid shapes run the blocked kernel on the calling thread, large shapes
// shard row panels across the shared pool. All three paths produce the same
// per-element accumulation chain, so the choice never changes the bits.
void gemm_dispatch(const float* pa, const float* pb, float* po, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  const std::int64_t flops = 2 * m * k * n;
  if (flops < kBlockFlopThreshold) {
    for (std::int64_t i = 0; i < m; ++i)
      micro_1row(pa + i * k, pb, po + i * n, 0, k, 0, n, n);
    return;
  }
  ThreadPool* pool = pool_for(m, flops);
  if (pool == nullptr) {
    MDL_OBS_COUNTER_ADD("gemm.blocked_calls", 1);
  } else {
    MDL_OBS_COUNTER_ADD("gemm.parallel_calls", 1);
  }
  shard_rows(pool, m, [&](std::int64_t r0, std::int64_t r1) {
    gemm_rows(pa, pb, po, r0, r1, k, n);
  });
}

// Exact element copies, so transposed operands can reuse the one blocked
// kernel without perturbing any accumulation chain.
std::vector<float> pack_transpose(const float* src, std::int64_t rows,
                                  std::int64_t cols) {
  std::vector<float> dst(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  return dst;
}

/// Extents of one product, C[m,n] (+)= A[m,k] x B[k,n] up to layout.
struct Dims {
  std::int64_t m, k, n;
};

/// Operand layouts: A @ B, A^T @ B, A @ B^T, and A @ x (1-D x and out, n = 1).
enum class Op { kNN, kTN, kNT, kMatvec };

/// The one shape check of a product call; returns its extents.
Dims checked_dims(Op op, const Tensor& a, const Tensor& b, const Tensor& out) {
  static constexpr const char* kNames[] = {"matmul_acc", "matmul_tn_acc",
                                           "matmul_nt_acc", "matvec"};
  const bool vec = op == Op::kMatvec;
  const std::size_t rank = vec ? 1 : 2;  // of b and out
  bool ok = a.ndim() == 2 && b.ndim() == rank && out.ndim() == rank;
  Dims d{0, 0, 1};
  if (ok) {
    const std::size_t ak = op == Op::kTN ? 0 : 1;  // the k axis of a
    const std::size_t bk = op == Op::kNT ? 1 : 0;  // the k axis of b
    d.m = a.shape(1 - ak);
    d.k = a.shape(ak);
    if (!vec) d.n = b.shape(1 - bk);
    ok = b.shape(bk) == d.k && out.shape(0) == d.m &&
         (vec || out.shape(1) == d.n);
  }
  MDL_CHECK(ok, "" << kNames[static_cast<int>(op)] << " shape mismatch "
                   << a.shape_str() << " x " << b.shape_str() << " -> "
                   << out.shape_str());
  return d;
}

// -- The canonical scalar chains ---------------------------------------------
// One loop nest per product over the C row slab [r0, r1): kNaive runs them
// over all rows, and the blocked suite runs them for its tiny _tn/_nt
// shapes, its matvec and its int8 product.

void nn_rows(const float* pa, const float* pb, float* po, std::int64_t r0,
             std::int64_t r1, Dims d) {
  // i-k-j loop order: streams through B and C rows, cache friendly. No
  // zero-skip branch — pruned weights run as a compress::CsrMatrix.
  for (std::int64_t i = r0; i < r1; ++i) {
    float* crow = po + i * d.n;
    for (std::int64_t kk = 0; kk < d.k; ++kk) {
      const float aik = pa[i * d.k + kk];
      const float* brow = pb + kk * d.n;
      for (std::int64_t j = 0; j < d.n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void tn_rows(const float* pa, const float* pb, float* po, std::int64_t r0,
             std::int64_t r1, Dims d) {
  // kk-outer order streams A and B rows with no transpose pack; per output
  // element the terms still arrive in ascending-k order, so this matches
  // the i-k-j chain.
  for (std::int64_t kk = 0; kk < d.k; ++kk) {
    const float* arow = pa + kk * d.m;
    const float* brow = pb + kk * d.n;
    for (std::int64_t i = r0; i < r1; ++i) {
      const float aik = arow[i];
      float* crow = po + i * d.n;
      for (std::int64_t j = 0; j < d.n; ++j) crow[j] += aik * brow[j];
    }
  }
}

/// Also matvec: x is a B of one row, and out a C of one column.
void nt_rows(const float* pa, const float* pb, float* po, std::int64_t r0,
             std::int64_t r1, Dims d) {
  // Both operands are row-major along k: one dot per element, no pack.
  for (std::int64_t i = r0; i < r1; ++i) {
    const float* arow = pa + i * d.k;
    for (std::int64_t j = 0; j < d.n; ++j) {
      const float* brow = pb + j * d.k;
      float acc = po[i * d.n + j];
      for (std::int64_t kk = 0; kk < d.k; ++kk) acc += arow[kk] * brow[kk];
      po[i * d.n + j] = acc;
    }
  }
}

void int8_rows(const std::uint8_t* a, const std::int8_t* b, std::int32_t* out,
               std::int64_t r0, std::int64_t r1, std::int64_t k,
               std::int64_t n, const std::int32_t* za,
               const std::int32_t* b_rowsum) {
  for (std::int64_t i = r0; i < r1; ++i) {
    const std::uint8_t* arow = a + i * k;
    std::int32_t* crow = out + i * n;
    const std::int32_t zai = za != nullptr ? za[i] : 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * k;
      std::int32_t acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<std::int32_t>(arow[kk]) *
               static_cast<std::int32_t>(brow[kk]);
      if (za != nullptr) acc -= zai * b_rowsum[j];
      crow[j] = acc;
    }
  }
}

/// Max k for the int8 kernels. The largest term is 255 * -128 = -32640, so
/// k such terms stay within the exact int32 accumulator while
/// 32640 * k <= INT32_MAX. With zero points the result is
/// sum_k (a - za) * b, bounded by the same terms.
constexpr std::int64_t kInt8MaxK =
    std::numeric_limits<std::int32_t>::max() / (255 * 128);
static_assert(kInt8MaxK == 65793);

void check_int8(std::int64_t k, const std::int32_t* za,
                const std::int32_t* b_rowsum) {
  MDL_CHECK(k >= 0 && k <= kInt8MaxK,
            "int8_gemm_nt k=" << k << " exceeds the int32-exact bound "
                              << kInt8MaxK);
  MDL_CHECK(za == nullptr || b_rowsum != nullptr,
            "int8_gemm_nt needs b_rowsum when zero points are supplied");
}

using SimdRowKernel = void (*)(const float*, const float*, float*,
                               std::int64_t, std::int64_t, std::int64_t,
                               std::int64_t);

/// The SIMD suite: one AVX2 row-slab kernel over every row. No small-shape
/// scalar fallback: the SIMD chain must be the chain for every shape, or a
/// row's bits would depend on the batch it rides in.
void simd_product(SimdRowKernel kernel, const float* pa, const float* pb,
                  float* po, Dims d) {
  MDL_OBS_COUNTER_ADD("gemm.simd_calls", 1);
  shard_rows(pool_for(d.m, 2 * d.m * d.k * d.n), d.m,
             [&](std::int64_t r0, std::int64_t r1) {
               kernel(pa, pb, po, r0, r1, d.k, d.n);
             });
}

}  // namespace

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kNaive: return "naive";
    case Mode::kBlocked: return "blocked";
    case Mode::kSimd: return "simd";
  }
  return "unknown";
}

Mode parse_mode(const std::string& value) {
  if (value == "naive") return Mode::kNaive;
  if (value == "blocked") return Mode::kBlocked;
  if (value == "simd") {
    MDL_CHECK(cpu::simd_gemm_supported(),
              "MDL_GEMM=simd requested but this "
                  << (gemm::simd::compiled() ? "CPU lacks AVX2/FMA"
                                             : "build has no AVX2 kernels"));
    return Mode::kSimd;
  }
  MDL_FAIL("unknown MDL_GEMM value `" << value
                                      << "` (expected naive, blocked, "
                                         "or simd)");
}

Mode resolve_mode(const char* env_value) {
  if (env_value != nullptr && *env_value != '\0') {
    const Mode m = parse_mode(env_value);
    log_selection(m, /*from_env=*/true);
    return m;
  }
  const Mode m =
      cpu::simd_gemm_supported() ? Mode::kSimd : Mode::kBlocked;
  log_selection(m, /*from_env=*/false);
  return m;
}

Mode mode() {
  const int m = g_mode.load(std::memory_order_relaxed);
  if (m >= 0) return static_cast<Mode>(m);
  // First use: resolve from MDL_GEMM / CPUID. Concurrent first calls race
  // benignly — both resolve to the same answer (env and CPUID are stable)
  // and the obs log is once-guarded.
  const Mode resolved = resolve_mode(std::getenv("MDL_GEMM"));
  g_mode.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

void set_mode(Mode m) {
  g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}


const char* kernel_name() { return mode_name(mode()); }

void int8_gemm_nt(const std::uint8_t* a, const std::int8_t* b,
                  std::int32_t* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, const std::int32_t* za,
                  const std::int32_t* b_rowsum) {
  check_int8(k, za, b_rowsum);
  const bool use_simd = mode() == Mode::kSimd;
  shard_rows(pool_for(m, 2 * m * k * n), m,
             [&](std::int64_t r0, std::int64_t r1) {
               if (use_simd)
                 simd::avx2_int8_gemm_nt_rows(a, b, out, r0, r1, k, n, za,
                                              b_rowsum);
               else
                 int8_rows(a, b, out, r0, r1, k, n, za, b_rowsum);
             });
}

namespace reference {

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const Dims d = checked_dims(Op::kNN, a, b, out);
  nn_rows(a.data(), b.data(), out.data(), 0, d.m, d);
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const Dims d = checked_dims(Op::kTN, a, b, out);
  tn_rows(a.data(), b.data(), out.data(), 0, d.m, d);
}

void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const Dims d = checked_dims(Op::kNT, a, b, out);
  nt_rows(a.data(), b.data(), out.data(), 0, d.m, d);
}

void matvec_acc(const Tensor& a, const Tensor& x, Tensor& out) {
  const Dims d = checked_dims(Op::kMatvec, a, x, out);
  nt_rows(a.data(), x.data(), out.data(), 0, d.m, d);
}

void int8_gemm_nt(const std::uint8_t* a, const std::int8_t* b,
                  std::int32_t* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, const std::int32_t* za,
                  const std::int32_t* b_rowsum) {
  check_int8(k, za, b_rowsum);
  int8_rows(a, b, out, 0, m, k, n, za, b_rowsum);
}

}  // namespace reference

}  // namespace mdl::gemm

// The public dense products (tensor.hpp): each checks its shapes once, then
// picks the suite for the current gemm::mode(). This is the one place a
// suite is chosen.
namespace mdl {

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const gemm::Dims d = gemm::checked_dims(gemm::Op::kNN, a, b, out);
  switch (gemm::mode()) {
    case gemm::Mode::kNaive:
      gemm::nn_rows(a.data(), b.data(), out.data(), 0, d.m, d);
      break;
    case gemm::Mode::kSimd:
      gemm::simd_product(gemm::simd::avx2_gemm_rows, a.data(), b.data(),
                         out.data(), d);
      break;
    case gemm::Mode::kBlocked:
      gemm::gemm_dispatch(a.data(), b.data(), out.data(), d.m, d.k, d.n);
      break;
  }
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const gemm::Dims d = gemm::checked_dims(gemm::Op::kTN, a, b, out);
  // No SIMD kernel for _tn (a training-only path): kSimd runs the blocked
  // suite. Its tiny shapes skip the transpose pack, whose allocation would
  // dominate GRU/LSTM-step latency.
  if (gemm::mode() == gemm::Mode::kNaive ||
      2 * d.m * d.k * d.n < gemm::kBlockFlopThreshold) {
    gemm::tn_rows(a.data(), b.data(), out.data(), 0, d.m, d);
    return;
  }
  const std::vector<float> at = gemm::pack_transpose(a.data(), d.k, d.m);
  gemm::gemm_dispatch(at.data(), b.data(), out.data(), d.m, d.k, d.n);
}

void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const gemm::Dims d = gemm::checked_dims(gemm::Op::kNT, a, b, out);
  const gemm::Mode mode = gemm::mode();
  if (mode == gemm::Mode::kSimd) {
    gemm::simd_product(gemm::simd::avx2_gemm_nt_rows, a.data(), b.data(),
                       out.data(), d);
    return;
  }
  if (mode == gemm::Mode::kNaive ||
      2 * d.m * d.k * d.n < gemm::kBlockFlopThreshold) {
    gemm::nt_rows(a.data(), b.data(), out.data(), 0, d.m, d);
    return;
  }
  const std::vector<float> bt = gemm::pack_transpose(b.data(), d.n, d.k);
  gemm::gemm_dispatch(a.data(), bt.data(), out.data(), d.m, d.k, d.n);
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  Tensor out({a.shape(0)});
  const gemm::Dims d = gemm::checked_dims(gemm::Op::kMatvec, a, x, out);
  // One dot per row, already a single scalar chain, so kSimd runs the
  // blocked path (vectorizing the dot would change the serve/replay chain
  // for no measured win at these widths), which shards rows; kNaive runs
  // them serially.
  const float* pa = a.data();
  const float* px = x.data();
  float* po = out.data();
  ThreadPool* pool = gemm::mode() == gemm::Mode::kNaive
                         ? nullptr
                         : gemm::pool_for(d.m, 2 * d.m * d.k);
  gemm::shard_rows(pool, d.m, [&](std::int64_t r0, std::int64_t r1) {
    gemm::nt_rows(pa, px, po, r0, r1, d);
  });
  return out;
}

}  // namespace mdl
