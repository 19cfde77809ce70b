// E12 — supporting microbenchmarks (google-benchmark): the numeric kernels
// the experiments stand on. Useful for spotting performance regressions in
// matmul, the GRU step, sparse matvec, quantization, and tree-ensemble
// prediction. The entropy coder's ratios are reported by perfbench's
// fedavg_round (compress.wire_ratio, ckpt.compress_ratio).
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "compress/int8.hpp"
#include "compress/prune.hpp"
#include "compress/quantize.hpp"
#include "compress/sparse_matrix.hpp"
#include "core/cpu_features.hpp"
#include "core/gemm.hpp"
#include "core/tensor.hpp"
#include "core/threadpool.hpp"
#include "data/synthetic.hpp"
#include "ml/random_forest.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"

namespace {

using namespace mdl;

// items_processed == flops, so google-benchmark's items_per_second column
// IS GFLOP/s (x1e-9). Every matmul bench sets it from the dispatched
// kernel's actual shape work: 2*m*k*n multiply-adds for a fresh product
// AND for the accumulating (`_acc`) entry points — the accumulate is fused
// into the per-term chain (start from the destination value), not a
// separate m*n add pass, so it contributes no extra flops.
std::int64_t gemm_flops(std::int64_t m, std::int64_t k, std::int64_t n) {
  return 2 * m * k * n;
}

/// Applies the kernel-mode benchmark argument; returns false (after
/// flagging the run as skipped) when the mode cannot run here.
bool apply_mode(benchmark::State& state, std::int64_t mode_arg) {
  const auto mode = static_cast<gemm::Mode>(mode_arg);
  if (mode == gemm::Mode::kSimd && !cpu::simd_gemm_supported()) {
    state.SkipWithError("MDL_GEMM=simd unsupported on this machine/build");
    return false;
  }
  gemm::set_mode(mode);
  state.SetLabel(gemm::mode_name(mode));
  return true;
}

struct ModeRestore {
  gemm::Mode saved = gemm::mode();
  ~ModeRestore() { gemm::set_mode(saved); }
};

constexpr std::int64_t kModeNaive = static_cast<std::int64_t>(gemm::Mode::kNaive);
constexpr std::int64_t kModeBlocked =
    static_cast<std::int64_t>(gemm::Mode::kBlocked);
constexpr std::int64_t kModeSimd = static_cast<std::int64_t>(gemm::Mode::kSimd);

// n^3 product through the dispatched kernel at an explicit shared-pool
// size. The 1-thread rows isolate the per-core kernel gain; 2/8-thread
// rows add the row-panel parallel path (only shapes above the flop
// threshold shard). Kernel suite selected by the third argument
// (0=naive, 1=blocked, 2=simd) — the same A/B as MDL_GEMM.
void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto threads = static_cast<std::size_t>(state.range(1));
  ModeRestore restore;
  if (!apply_mode(state, state.range(2))) return;
  const std::size_t saved = shared_pool_threads();
  set_shared_pool_threads(threads);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  set_shared_pool_threads(saved);
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() * gemm_flops(n, n, n));
}
// UseRealTime: with threads > 1 the work runs on pool workers while the
// bench thread blocks, so cpu-time-based G/s would be wildly inflated.
BENCHMARK(BM_Matmul)
    ->ArgsProduct(
        {{32, 64, 128, 256}, {1, 2, 8}, {kModeNaive, kModeBlocked, kModeSimd}})
    ->UseRealTime();

// A @ B^T — the Linear-forward / serve hot path — including the fused
// accumulating form the GRU gates use (out += A @ B^T). Both count
// 2*m*k*n: the accumulate rides the per-element chain for free.
void BM_MatmulNT(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ModeRestore restore;
  if (!apply_mode(state, state.range(1))) return;
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * gemm_flops(n, n, n));
}
BENCHMARK(BM_MatmulNT)->ArgsProduct(
    {{64, 256}, {kModeNaive, kModeBlocked, kModeSimd}});

void BM_MatmulNTAcc(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ModeRestore restore;
  if (!apply_mode(state, state.range(1))) return;
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  for (auto _ : state) {
    matmul_nt_acc(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * gemm_flops(n, n, n));
}
BENCHMARK(BM_MatmulNTAcc)->ArgsProduct(
    {{64, 256}, {kModeNaive, kModeBlocked, kModeSimd}});

// Quantized u8 x s8 -> i32 GEMM with zero-point correction, scalar twin vs
// AVX2. items_per_second here is integer GOP/s (2 int ops per term),
// directly comparable to the float GFLOP/s rows above at the same shape.
void BM_Int8Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ModeRestore restore;
  if (!apply_mode(state, state.range(1))) return;
  Rng rng(14);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(255) - 127);
  std::vector<std::int32_t> za(static_cast<std::size_t>(n), 12);
  std::vector<std::int32_t> rowsum(static_cast<std::size_t>(n), 0);
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t kk = 0; kk < n; ++kk)
      rowsum[static_cast<std::size_t>(j)] += b[j * n + kk];
  std::vector<std::int32_t> out(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    gemm::int8_gemm_nt(a.data(), b.data(), out.data(), n, n, n, za.data(),
                       rowsum.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * gemm_flops(n, n, n));
}
BENCHMARK(BM_Int8Gemm)->ArgsProduct({{64, 256}, {kModeBlocked, kModeSimd}});

// End-to-end layer forward: quantized Int8Linear vs the float Linear it
// was built from, at a serve-sized width. Both report flops of the float
// product they replace, so items_per_second compares directly.
void BM_LinearInferFloat(benchmark::State& state) {
  const std::int64_t width = state.range(0);
  const std::int64_t batch = state.range(1);
  Rng rng(15);
  nn::Linear lin(width, width, rng);
  const Tensor x = Tensor::randn({batch, width}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lin.infer(x));
  }
  state.SetItemsProcessed(state.iterations() * gemm_flops(batch, width, width));
}
BENCHMARK(BM_LinearInferFloat)->ArgsProduct({{256, 512}, {1, 8}});

void BM_LinearInferInt8(benchmark::State& state) {
  const std::int64_t width = state.range(0);
  const std::int64_t batch = state.range(1);
  Rng rng(15);
  nn::Linear lin(width, width, rng);
  const compress::Int8Linear q(lin);
  const Tensor x = Tensor::randn({batch, width}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.infer(x));
  }
  state.SetItemsProcessed(state.iterations() * gemm_flops(batch, width, width));
}
BENCHMARK(BM_LinearInferInt8)->ArgsProduct({{256, 512}, {1, 8}});

// GRU::infer at the DeepMood alnum view shape (T=32, I=4, H=16): the
// per-view encoder cost a serving batch pays.
void BM_GruInfer(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  Rng rng(3);
  const nn::GRU gru(4, 16, rng);
  const Tensor seq = Tensor::randn({32, batch, 4}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gru.infer(seq));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GruInfer)->Arg(1)->Arg(8)->Arg(32);

void BM_GruSequenceForwardBackward(benchmark::State& state) {
  Rng rng(4);
  nn::GRU gru(8, 16, rng);
  const Tensor seq = Tensor::randn({32, 16, 8}, rng);
  const Tensor grad = Tensor::randn({16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gru.forward(seq));
    benchmark::DoNotOptimize(gru.backward(grad));
    gru.zero_grad();
  }
}
BENCHMARK(BM_GruSequenceForwardBackward);

void BM_SparseMatvec(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(5);
  Tensor dense = Tensor::randn({256, 256}, rng);
  compress::prune_by_magnitude(dense, 1.0 - density);
  const compress::CsrMatrix m = compress::CsrMatrix::from_dense(dense);
  const Tensor x = Tensor::randn({256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.matvec(x));
  }
  state.counters["nnz"] = static_cast<double>(m.nnz());
}
BENCHMARK(BM_SparseMatvec)->Arg(10)->Arg(50)->Arg(100);

void BM_DenseMatvec(benchmark::State& state) {
  Rng rng(6);
  const Tensor a = Tensor::randn({256, 256}, rng);
  const Tensor x = Tensor::randn({256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matvec(a, x));
  }
}
BENCHMARK(BM_DenseMatvec);

void BM_QuantizeKmeans(benchmark::State& state) {
  Rng rng(9);
  Tensor t = Tensor::randn({128, 128}, rng);
  compress::prune_by_magnitude(t, 0.8);
  compress::QuantizeConfig cfg;
  cfg.bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::quantize_kmeans(t, cfg));
  }
}
BENCHMARK(BM_QuantizeKmeans)->Arg(4)->Arg(8);

void BM_ForestPredict(benchmark::State& state) {
  Rng rng(10);
  data::SyntheticConfig sc;
  sc.num_samples = 500;
  sc.num_features = 24;
  sc.num_classes = 10;
  const auto ds = data::make_classification(sc, rng);
  ml::ForestConfig fc;
  fc.num_trees = 50;
  ml::RandomForest forest(fc);
  forest.fit(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(ds.features));
  }
  state.SetItemsProcessed(state.iterations() * ds.size());
}
BENCHMARK(BM_ForestPredict);

/// Console reporter that additionally logs one JSONL record per benchmark
/// run when `--json` / MDL_JSON_OUT is active.
class JsonlReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      auto rec = bench::record("kernel");
      rec.add("name", run.benchmark_name());
      rec.add("iterations", static_cast<std::int64_t>(run.iterations));
      rec.add("real_time_ns", run.GetAdjustedRealTime());
      rec.add("cpu_time_ns", run.GetAdjustedCPUTime());
      if (!run.report_label.empty()) rec.add("kernel", run.report_label);
      for (const auto& [cname, counter] : run.counters)
        rec.add(cname, static_cast<double>(counter));
      bench::log(rec);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  mdl::bench::banner("E12", "supporting microbenchmarks",
                     "Numeric-kernel timings (matmul, GRU, sparse matvec, "
                     "quantization,\nforest prediction) via "
                     "google-benchmark.");
  mdl::bench::init_logging(argc, argv);
  // Strip the flags google-benchmark does not understand before handing
  // argv over to it.
  std::vector<char*> bm_args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      ++i;
      continue;
    }
    bm_args.push_back(argv[i]);
  }
  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data()))
    return 1;
  JsonlReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  mdl::bench::log_metrics_snapshot();
  return 0;
}
