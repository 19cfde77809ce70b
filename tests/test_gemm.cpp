// Kernel-equivalence suite for the blocked/parallel GEMM kernels.
//
// The contract under test (gemm.hpp): the public ops under the blocked
// suite produce output BIT-IDENTICAL to the retained naive reference, at
// every thread count.
// This is what lets the deterministic-replay (mdl::sim) and checkpoint
// bit-identity (mdl::ckpt) guarantees survive the parallel kernels.
#include "core/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/gemm_simd.hpp"
#include "core/random.hpp"
#include "core/tensor.hpp"
#include "core/threadpool.hpp"
#include "obs/metrics.hpp"

namespace mdl {
namespace {

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// Restores the shared-pool size on scope exit so tests don't leak their
/// thread-count override into each other.
struct PoolGuard {
  PoolGuard() : saved(shared_pool_threads()) {}
  ~PoolGuard() { set_shared_pool_threads(saved); }
  std::size_t saved;
};

/// Restores the kernel mode on scope exit; optionally switches it for the
/// scope. The equivalence tests below run the public ops under kBlocked,
/// the suite they compare with the reference.
struct ModeGuard {
  ModeGuard() = default;
  explicit ModeGuard(gemm::Mode m) { gemm::set_mode(m); }
  ~ModeGuard() { gemm::set_mode(saved); }
  gemm::Mode saved = gemm::mode();
};

// The sweep: odd sizes, tall/skinny, 1xN, Nx1, and tile-boundary +-1 around
// the panel (32), KC (256) and NC (128) edges; the last entries exceed the
// blocking and parallel flop thresholds so the tiled/parallel paths engage.
struct Shape {
  std::int64_t m, k, n;
};
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> s = {
      {1, 1, 1},    {1, 7, 1},     {1, 5, 64},   {64, 5, 1},  {3, 9, 7},
      {17, 13, 29}, {2, 300, 2},   {100, 3, 5},  {31, 8, 31}, {32, 8, 32},
      {33, 8, 33},  {5, 255, 127}, {5, 256, 128}, {5, 257, 129},
      {63, 64, 65}, {96, 300, 72}, {130, 270, 140}};
  return s;
}

class GemmEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GemmEquivalence, MatmulBitIdenticalToReference) {
  PoolGuard guard;
  ModeGuard blocked(gemm::Mode::kBlocked);
  set_shared_pool_threads(static_cast<std::size_t>(GetParam()));
  Rng rng(42);
  for (const Shape& s : shapes()) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor want({s.m, s.n});
    gemm::reference::matmul_acc(a, b, want);
    Tensor got({s.m, s.n});
    matmul_acc(a, b, got);
    EXPECT_TRUE(bit_identical(want, got))
        << "matmul " << s.m << "x" << s.k << "x" << s.n << " at "
        << GetParam() << " threads";
  }
}

TEST_P(GemmEquivalence, MatmulAccAccumulatesIntoExisting) {
  PoolGuard guard;
  ModeGuard blocked(gemm::Mode::kBlocked);
  set_shared_pool_threads(static_cast<std::size_t>(GetParam()));
  Rng rng(43);
  for (const Shape& s : shapes()) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor want = Tensor::randn({s.m, s.n}, rng);
    Tensor got = want;
    gemm::reference::matmul_acc(a, b, want);
    matmul_acc(a, b, got);
    EXPECT_TRUE(bit_identical(want, got))
        << "matmul_acc " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_P(GemmEquivalence, MatmulTnBitIdenticalToReference) {
  PoolGuard guard;
  ModeGuard blocked(gemm::Mode::kBlocked);
  set_shared_pool_threads(static_cast<std::size_t>(GetParam()));
  Rng rng(44);
  for (const Shape& s : shapes()) {
    const Tensor a = Tensor::randn({s.k, s.m}, rng);  // [k, m]
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor want({s.m, s.n});
    gemm::reference::matmul_tn_acc(a, b, want);
    Tensor got({s.m, s.n});
    matmul_tn_acc(a, b, got);
    EXPECT_TRUE(bit_identical(want, got))
        << "matmul_tn " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_P(GemmEquivalence, MatmulNtBitIdenticalToReference) {
  PoolGuard guard;
  ModeGuard blocked(gemm::Mode::kBlocked);
  set_shared_pool_threads(static_cast<std::size_t>(GetParam()));
  Rng rng(45);
  for (const Shape& s : shapes()) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.n, s.k}, rng);  // [n, k]
    Tensor want({s.m, s.n});
    gemm::reference::matmul_nt_acc(a, b, want);
    Tensor got({s.m, s.n});
    matmul_nt_acc(a, b, got);
    EXPECT_TRUE(bit_identical(want, got))
        << "matmul_nt " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_P(GemmEquivalence, MatvecBitIdenticalToReference) {
  PoolGuard guard;
  ModeGuard blocked(gemm::Mode::kBlocked);
  set_shared_pool_threads(static_cast<std::size_t>(GetParam()));
  Rng rng(46);
  for (const Shape& s : shapes()) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor x = Tensor::randn({s.k}, rng);
    Tensor want({s.m});
    gemm::reference::matvec_acc(a, x, want);
    const Tensor got = matvec(a, x);
    EXPECT_TRUE(bit_identical(want, got)) << "matvec " << s.m << "x" << s.k;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GemmEquivalence,
                         ::testing::Values(1, 2, 8));

TEST(Gemm, ThreadCountsAgreeWithEachOther) {
  // Directly pins the cross-thread-count guarantee: the same product at 1,
  // 2, and 8 threads yields byte-identical buffers.
  PoolGuard guard;
  ModeGuard blocked(gemm::Mode::kBlocked);
  Rng rng(47);
  const Tensor a = Tensor::randn({130, 270}, rng);
  const Tensor b = Tensor::randn({270, 140}, rng);
  std::vector<Tensor> results;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    set_shared_pool_threads(threads);
    Tensor out({130, 140});
    matmul_acc(a, b, out);
    results.push_back(std::move(out));
  }
  EXPECT_TRUE(bit_identical(results[0], results[1]));
  EXPECT_TRUE(bit_identical(results[0], results[2]));
}

TEST(Gemm, PublicKernelsMatchReferenceModes) {
  // matmul/matmul_tn/matmul_nt/matvec produce the same bits in kBlocked and
  // kNaive mode (the MDL_GEMM=naive benchmark baseline is not a different
  // answer, just a slower one). kSimd is deliberately absent here: its float
  // bits are ULP-bounded, not identical — tests/test_gemm_diff.cpp owns that.
  PoolGuard guard;
  set_shared_pool_threads(8);
  Rng rng(48);
  const Tensor a = Tensor::randn({96, 300}, rng);
  const Tensor b = Tensor::randn({300, 72}, rng);
  const Tensor bt = Tensor::randn({72, 300}, rng);
  const Tensor at = Tensor::randn({300, 96}, rng);
  const Tensor x = Tensor::randn({300}, rng);

  const gemm::Mode saved = gemm::mode();
  gemm::set_mode(gemm::Mode::kBlocked);
  const Tensor t1 = matmul(a, b);
  const Tensor t2 = matmul_tn(at, b);
  const Tensor t3 = matmul_nt(a, bt);
  const Tensor t4 = matvec(a, x);
  gemm::set_mode(gemm::Mode::kNaive);
  const Tensor n1 = matmul(a, b);
  const Tensor n2 = matmul_tn(at, b);
  const Tensor n3 = matmul_nt(a, bt);
  const Tensor n4 = matvec(a, x);
  gemm::set_mode(saved);

  EXPECT_TRUE(bit_identical(t1, n1));
  EXPECT_TRUE(bit_identical(t2, n2));
  EXPECT_TRUE(bit_identical(t3, n3));
  EXPECT_TRUE(bit_identical(t4, n4));
}

TEST(Gemm, ZeroExtentShapes) {
  PoolGuard guard;
  ModeGuard blocked(gemm::Mode::kBlocked);
  set_shared_pool_threads(2);
  const Tensor a({0, 5});
  const Tensor b({5, 0});
  Tensor out({0, 0});
  matmul_acc(a, Tensor({5, 0}), out);  // no crash, no write
  EXPECT_EQ(out.size(), 0);
  (void)b;
}

TEST(Gemm, ShapeMismatchThrows) {
  ModeGuard blocked(gemm::Mode::kBlocked);
  Tensor out({2, 2});
  EXPECT_THROW(matmul_acc(Tensor({2, 3}), Tensor({4, 2}), out), Error);
  EXPECT_THROW(matmul_acc(Tensor({2, 4}), Tensor({4, 3}), out), Error);
}

// ----------------------------------------------------------- dispatch

TEST(GemmDispatch, ParseModeAcceptsKnownValuesAndAliases) {
  EXPECT_EQ(gemm::parse_mode("naive"), gemm::Mode::kNaive);
  EXPECT_EQ(gemm::parse_mode("blocked"), gemm::Mode::kBlocked);
  EXPECT_THROW(gemm::parse_mode("tiled"), Error);
  if (cpu::simd_gemm_supported()) {
    EXPECT_EQ(gemm::parse_mode("simd"), gemm::Mode::kSimd);
  } else {
    // Requesting simd without hardware/build support is an error, not a
    // silent fallback — a perf experiment must not quietly measure the
    // wrong kernel.
    EXPECT_THROW(gemm::parse_mode("simd"), Error);
  }
}

TEST(GemmDispatch, ParseModeRejectsUnknownValuesWithCleanError) {
  for (const char* bad : {"avx512", "fast", "SIMD", "", "blocked "}) {
    EXPECT_THROW(gemm::parse_mode(bad), Error) << "value `" << bad << "`";
  }
  try {
    gemm::parse_mode("avx512");
    FAIL() << "expected mdl::Error";
  } catch (const Error& e) {
    // The message names the bad value and the accepted set.
    EXPECT_NE(std::string(e.what()).find("avx512"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("naive"), std::string::npos);
  }
}

TEST(GemmDispatch, EnvOverrideWinsOverProbe) {
  ModeGuard guard;
  // With an override, resolve_mode must return it regardless of what the
  // CPUID probe would pick.
  EXPECT_EQ(gemm::resolve_mode("naive"), gemm::Mode::kNaive);
  EXPECT_EQ(gemm::resolve_mode("blocked"), gemm::Mode::kBlocked);
  // Empty / absent falls through to the probe.
  const gemm::Mode probed = gemm::resolve_mode(nullptr);
  EXPECT_EQ(probed, cpu::simd_gemm_supported() ? gemm::Mode::kSimd
                                               : gemm::Mode::kBlocked);
  EXPECT_EQ(gemm::resolve_mode(""), probed);
}

TEST(GemmDispatch, ProbeIsConsistentWithFeatureFlags) {
  const cpu::Features& f = cpu::features();
  EXPECT_EQ(cpu::simd_gemm_supported(),
            f.avx2 && f.fma && gemm::simd::compiled());
  EXPECT_STREQ(cpu::isa_name(),
               cpu::simd_gemm_supported() ? "avx2" : "scalar");
}

TEST(GemmDispatch, SelectionIsLoggedExactlyOnce) {
#ifdef MDL_OBS_DISABLED
  GTEST_SKIP() << "MDL_OBS_COUNTER_ADD compiles to a no-op in this build";
#endif
  ModeGuard guard;
  // Force at least one resolution, then several more: the obs counter for
  // the selected kernel must not move again (once-per-process logging).
  // The first log in this process belongs to the env/probe resolution
  // (ModeGuard's mode() call forced it), so that's the counter to check —
  // NOT resolve_mode(nullptr), which ignores an MDL_GEMM set for the run.
  const gemm::Mode m = gemm::mode();
  const std::string counter =
      std::string("gemm.kernel.") + gemm::mode_name(m);
  const auto counter_value = [&counter]() -> std::uint64_t {
    for (const auto& c : obs::MetricsRegistry::global().snapshot().counters)
      if (c.name == counter) return c.value;
    return 0;
  };
  const std::uint64_t first = counter_value();
  EXPECT_EQ(first, 1U);
  gemm::resolve_mode(nullptr);
  gemm::resolve_mode("naive");
  gemm::resolve_mode("blocked");
  EXPECT_EQ(counter_value(), first);
}

TEST(GemmDispatch, SimdRunsBlockedTnAndMatvec) {
  // matmul_tn and matvec have no SIMD kernel: under kSimd they run the
  // blocked suite and give its bits, at tiny and at sharded shapes alike.
  if (!cpu::simd_gemm_supported())
    GTEST_SKIP() << "no AVX2+FMA on this machine/build";
  PoolGuard pool;
  set_shared_pool_threads(4);
  Rng rng(49);
  for (const Shape& s : shapes()) {
    const Tensor at = Tensor::randn({s.k, s.m}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor x = Tensor::randn({s.k}, rng);
    const Tensor out0 = Tensor::randn({s.m, s.n}, rng);
    Tensor want_acc = out0;
    Tensor got_acc = out0;
    Tensor want_tn;
    Tensor want_mv;
    {
      ModeGuard blocked(gemm::Mode::kBlocked);
      want_tn = matmul_tn(at, b);
      matmul_tn_acc(at, b, want_acc);
      want_mv = matvec(a, x);
    }
    ModeGuard simd(gemm::Mode::kSimd);
    EXPECT_TRUE(bit_identical(matmul_tn(at, b), want_tn))
        << "matmul_tn " << s.m << "x" << s.k << "x" << s.n;
    matmul_tn_acc(at, b, got_acc);
    EXPECT_TRUE(bit_identical(got_acc, want_acc))
        << "matmul_tn_acc " << s.m << "x" << s.k << "x" << s.n;
    EXPECT_TRUE(bit_identical(matvec(a, x), want_mv))
        << "matvec " << s.m << "x" << s.k;
  }
}

TEST(GemmDispatch, KernelNameTracksMode) {
  ModeGuard guard;
  gemm::set_mode(gemm::Mode::kNaive);
  EXPECT_STREQ(gemm::kernel_name(), "naive");
  gemm::set_mode(gemm::Mode::kBlocked);
  EXPECT_STREQ(gemm::kernel_name(), "blocked");
  if (cpu::simd_gemm_supported()) {
    gemm::set_mode(gemm::Mode::kSimd);
    EXPECT_STREQ(gemm::kernel_name(), "simd");
  }
}

}  // namespace
}  // namespace mdl
