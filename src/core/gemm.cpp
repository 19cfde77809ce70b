#include "core/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
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
  const std::int64_t panels = (m + kPanelRows - 1) / kPanelRows;
  ThreadPool* pool =
      flops >= kParallelFlopThreshold && panels > 1 ? shared_pool() : nullptr;
  if (pool == nullptr) {
    MDL_OBS_COUNTER_ADD("gemm.blocked_calls", 1);
    gemm_rows(pa, pb, po, 0, m, k, n);
    return;
  }
  MDL_OBS_COUNTER_ADD("gemm.parallel_calls", 1);
  parallel_for(pool, static_cast<std::size_t>(panels), [&](std::size_t p) {
    const std::int64_t row0 = static_cast<std::int64_t>(p) * kPanelRows;
    const std::int64_t row1 = std::min(m, row0 + kPanelRows);
    gemm_rows(pa, pb, po, row0, row1, k, n);
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

void check_matmul_shapes(const Tensor& a, const Tensor& b, const Tensor& out,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         const char* name) {
  MDL_CHECK(a.ndim() == 2 && b.ndim() == 2 && out.ndim() == 2 &&
                out.shape(0) == m && out.shape(1) == n,
            "" << name << " shape mismatch " << a.shape_str() << " x "
               << b.shape_str() << " -> " << out.shape_str());
  (void)k;
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

void tiled_matmul_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  const std::int64_t n = b.shape(1);
  MDL_CHECK(b.shape(0) == k, "matmul_acc inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_acc");
  gemm_dispatch(a.data(), b.data(), out.data(), m, k, n);
}

void tiled_matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t k = a.shape(0);
  const std::int64_t m = a.shape(1);
  const std::int64_t n = b.shape(1);
  MDL_CHECK(b.shape(0) == k, "matmul_tn inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_tn");
  if (2 * m * k * n < kBlockFlopThreshold) {
    // Tiny shapes: direct kk-outer loop, no transpose packing (the pack
    // allocation dominates GRU/LSTM-step latency). Per element the terms
    // still arrive in ascending-k order — same chain as the packed path.
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* arow = pa + kk * m;
      const float* brow = pb + kk * n;
      for (std::int64_t i = 0; i < m; ++i) {
        const float aik = arow[i];
        float* crow = po + i * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    return;
  }
  const std::vector<float> at = pack_transpose(a.data(), k, m);
  gemm_dispatch(at.data(), b.data(), out.data(), m, k, n);
}

void tiled_matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  const std::int64_t n = b.shape(0);
  MDL_CHECK(b.shape(1) == k, "matmul_nt inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_nt");
  if (2 * m * k * n < kBlockFlopThreshold) {
    // Tiny shapes: both operands are row-major along k, so the dot form is
    // already cache-friendly — skip the transpose packing entirely. One
    // scalar chain per element, ascending k: identical bits.
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = po[i * n + j];
        for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        po[i * n + j] = acc;
      }
    }
    return;
  }
  const std::vector<float> bt = pack_transpose(b.data(), n, k);
  gemm_dispatch(a.data(), bt.data(), out.data(), m, k, n);
}

void tiled_matvec_acc(const Tensor& a, const Tensor& x, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  MDL_CHECK(a.ndim() == 2 && x.ndim() == 1 && x.shape(0) == k &&
                out.ndim() == 1 && out.shape(0) == m,
            "matvec shape mismatch " << a.shape_str() << " x "
                                     << x.shape_str());
  const float* pa = a.data();
  const float* px = x.data();
  float* po = out.data();
  // One dot product per row: a single scalar chain per output element, so
  // row sharding is trivially exact.
  const auto rows = [&](std::int64_t row0, std::int64_t row1) {
    for (std::int64_t i = row0; i < row1; ++i) {
      const float* arow = pa + i * k;
      float acc = po[i];
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * px[kk];
      po[i] = acc;
    }
  };
  const std::int64_t flops = 2 * m * k;
  const std::int64_t panels = (m + kPanelRows - 1) / kPanelRows;
  ThreadPool* pool =
      flops >= kParallelFlopThreshold && panels > 1 ? shared_pool() : nullptr;
  if (pool == nullptr) {
    rows(0, m);
    return;
  }
  parallel_for(pool, static_cast<std::size_t>(panels), [&](std::size_t p) {
    const std::int64_t row0 = static_cast<std::int64_t>(p) * kPanelRows;
    rows(row0, std::min(m, row0 + kPanelRows));
  });
}

namespace {

/// Shards [0, m) row panels of `body(row0, row1)` across the shared pool
/// when `flops` clears the parallel threshold; otherwise runs inline. Used
/// by the SIMD and int8 paths — rows are independent in every kernel here,
/// so sharding never touches the arithmetic.
template <typename Body>
void shard_rows(std::int64_t m, std::int64_t flops, const Body& body) {
  const std::int64_t panels = (m + kPanelRows - 1) / kPanelRows;
  ThreadPool* pool =
      flops >= kParallelFlopThreshold && panels > 1 ? shared_pool() : nullptr;
  if (pool == nullptr) {
    body(0, m);
    return;
  }
  parallel_for(pool, static_cast<std::size_t>(panels), [&](std::size_t p) {
    const std::int64_t row0 = static_cast<std::int64_t>(p) * kPanelRows;
    body(row0, std::min(m, row0 + kPanelRows));
  });
}

}  // namespace

void simd_matmul_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  const std::int64_t n = b.shape(1);
  MDL_CHECK(b.shape(0) == k, "matmul_acc inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_acc");
  MDL_OBS_COUNTER_ADD("gemm.simd_calls", 1);
  // No small-shape scalar fallback: the SIMD chain must be the chain for
  // every shape, or a row's bits would depend on the batch it rides in.
  shard_rows(m, 2 * m * k * n, [&](std::int64_t r0, std::int64_t r1) {
    simd::avx2_gemm_rows(a.data(), b.data(), out.data(), r0, r1, k, n);
  });
}

void simd_matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  const std::int64_t n = b.shape(0);
  MDL_CHECK(b.shape(1) == k, "matmul_nt inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_nt");
  MDL_OBS_COUNTER_ADD("gemm.simd_calls", 1);
  shard_rows(m, 2 * m * k * n, [&](std::int64_t r0, std::int64_t r1) {
    simd::avx2_gemm_nt_rows(a.data(), b.data(), out.data(), r0, r1, k, n);
  });
}

/// Max k for the int8 kernels: 255*127*k must stay below INT32_MAX so the
/// exact int32 accumulator cannot overflow.
static constexpr std::int64_t kInt8MaxK = 66051;

void int8_gemm_nt(const std::uint8_t* a, const std::int8_t* b,
                  std::int32_t* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, const std::int32_t* za,
                  const std::int32_t* b_rowsum) {
  MDL_CHECK(k >= 0 && k <= kInt8MaxK,
            "int8_gemm_nt k=" << k << " exceeds the int32-exact bound "
                              << kInt8MaxK);
  MDL_CHECK(za == nullptr || b_rowsum != nullptr,
            "int8_gemm_nt needs b_rowsum when zero points are supplied");
  const bool use_simd = mode() == Mode::kSimd;
  shard_rows(m, 2 * m * k * n, [&](std::int64_t r0, std::int64_t r1) {
    if (use_simd) {
      simd::avx2_int8_gemm_nt_rows(a, b, out, r0, r1, k, n, za, b_rowsum);
      return;
    }
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
  });
}

namespace reference {

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  const std::int64_t n = b.shape(1);
  MDL_CHECK(b.shape(0) == k, "matmul_acc inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_acc");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // i-k-j loop order: streams through B and C rows, cache friendly. No
  // zero-skip branch — sparse weights go through compress::pruned_matmul.
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = po + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t k = a.shape(0);
  const std::int64_t m = a.shape(1);
  const std::int64_t n = b.shape(1);
  MDL_CHECK(b.shape(0) == k, "matmul_tn inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_tn");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // kk-outer order streams A and B rows; per output element the terms
  // still arrive in ascending-k order, so this matches the i-k-j chain.
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aik = arow[i];
      float* crow = po + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  const std::int64_t n = b.shape(0);
  MDL_CHECK(b.shape(1) == k, "matmul_nt inner dimension mismatch");
  check_matmul_shapes(a, b, out, m, k, n, "matmul_nt");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = po[i * n + j];
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      po[i * n + j] = acc;
    }
  }
}

void matvec_acc(const Tensor& a, const Tensor& x, Tensor& out) {
  const std::int64_t m = a.shape(0);
  const std::int64_t k = a.shape(1);
  MDL_CHECK(a.ndim() == 2 && x.ndim() == 1 && x.shape(0) == k &&
                out.ndim() == 1 && out.shape(0) == m,
            "matvec shape mismatch " << a.shape_str() << " x "
                                     << x.shape_str());
  const float* pa = a.data();
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float acc = po[i];
    for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * px[kk];
    po[i] = acc;
  }
}

void int8_gemm_nt(const std::uint8_t* a, const std::int8_t* b,
                  std::int32_t* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, const std::int32_t* za,
                  const std::int32_t* b_rowsum) {
  MDL_CHECK(za == nullptr || b_rowsum != nullptr,
            "int8_gemm_nt needs b_rowsum when zero points are supplied");
  for (std::int64_t i = 0; i < m; ++i) {
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

}  // namespace reference

}  // namespace mdl::gemm
