// E14 — flight-recorder overhead on the two hottest instrumented paths.
//
// The mdl::obs v2 ring recorder is meant to stay on in production, so its
// cost must be provably small. This bench A/Bs the runtime kill switch
// (FlightRecorder::set_enabled) over two fixed workloads:
//
//   serve — the E13 saturation hot path: a closed-loop burst of split
//     requests through an InferenceServer at max_batch_size=8. Every
//     request crosses ~6 ring events (request/queue/exec async pairs) plus
//     the per-batch span, the densest event traffic in the tree.
//
//   fedavg — a fig2-style FedAvg workload (non-IID shards, E=1): per-round
//     and per-client spans now carry (round<<32|client) tracks.
//
// Repetitions alternate recorder-off/recorder-on so thermal/cache drift
// hits both arms equally; the reported wall time per arm is the minimum
// over reps (standard best-of-N noise floor). Acceptance: overhead_pct
// <= 5 for both workloads. Committed evidence:
// bench/results/BENCH_trace_overhead.jsonl.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "core/threadpool.hpp"
#include "data/synthetic.hpp"
#include "federated/fedavg.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "obs/flight.hpp"
#include "serve/server.hpp"

namespace {

using namespace mdl;

constexpr std::int64_t kRepDim = 512;

split::SplitInference make_model(Rng& rng) {
  auto local = std::make_unique<nn::Sequential>();
  local->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  local->emplace<nn::Tanh>();
  auto cloud = std::make_unique<nn::Sequential>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, 8, rng);
  return split::SplitInference(std::move(local), std::move(cloud));
}

std::vector<serve::InferenceRequest> make_requests(std::int64_t n, Rng& rng) {
  std::vector<serve::InferenceRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    serve::InferenceRequest req;
    req.kind = serve::RequestKind::kSplit;
    req.representation = Tensor({1, kRepDim});
    for (std::int64_t f = 0; f < kRepDim; ++f)
      req.representation[f] = static_cast<float>(rng.uniform(-2.0, 2.0));
    req.noise_seed = rng.next_u64();
    reqs.push_back(std::move(req));
  }
  return reqs;
}

double run_serve_once(const split::SplitInference& model,
                      const std::vector<serve::InferenceRequest>& reqs) {
  serve::ServeConfig cfg;
  cfg.max_batch_size = 8;
  cfg.perturb.nullification_rate = 0.1;
  cfg.perturb.laplace_scale = 0.1;
  serve::InferenceServer server(nullptr, &model, cfg);
  server.pause();
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(reqs.size());
  for (const auto& r : reqs) futures.push_back(server.submit(r));
  const auto start = std::chrono::steady_clock::now();
  server.resume();
  for (auto& f : futures) f.get();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct FedWorkload {
  data::TabularSplit split;
  std::vector<data::TabularDataset> shards;
  federated::ModelFactory factory;
  federated::FedAvgConfig cfg;
};

FedWorkload make_fed_workload() {
  Rng rng(271);
  data::SyntheticConfig sc;
  sc.num_samples = bench::scaled(1500, 400);
  sc.num_features = 24;
  sc.num_classes = 10;
  sc.class_sep = 2.8;
  const data::TabularDataset dataset = data::make_classification(sc, rng);
  FedWorkload w;
  w.split = data::train_test_split(dataset, 0.2, rng);
  w.shards = data::partition_dirichlet(w.split.train, 10, 0.3, rng);
  w.factory = federated::mlp_factory(24, 32, 10);
  w.cfg.rounds = bench::scaled(12, 4);
  w.cfg.clients_per_round = 5;
  w.cfg.local_epochs = 1;
  w.cfg.batch_size = 16;
  w.cfg.server_lr = 0.3;
  return w;
}

double run_fedavg_once(const FedWorkload& w) {
  // Fresh trainer per rep: same seeds, same shards, bit-identical work.
  federated::FedAvgTrainer trainer(w.factory, w.shards, w.cfg);
  const auto start = std::chrono::steady_clock::now();
  trainer.run(w.split.test);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Alternates off/on reps of `run`, reports best-of-N per arm and the
/// relative overhead of recording.
template <typename Fn>
void measure(const char* workload, std::int64_t reps, const Fn& run) {
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  // One untimed warmup rep: fault in code pages and let allocators settle,
  // so the first timed arm doesn't eat the cold-start cost alone.
  rec.set_enabled(false);
  run();
  double best_off = std::numeric_limits<double>::infinity();
  double best_on = best_off;
  for (std::int64_t i = 0; i < reps; ++i) {
    rec.set_enabled(false);
    best_off = std::min(best_off, run());
    rec.set_enabled(true);
    best_on = std::min(best_on, run());
  }
  const double overhead_pct = 100.0 * (best_on - best_off) / best_off;
  std::cout << "  " << std::setw(8) << workload << "  off "
            << std::fixed << std::setprecision(4) << best_off << "s  on "
            << best_on << "s  overhead " << std::showpos
            << std::setprecision(2) << overhead_pct << "%" << std::noshowpos
            << std::defaultfloat << "\n";
  bench::log(bench::record("overhead")
                 .add("workload", workload)
                 .add("reps", reps)
                 .add("wall_off_s", best_off)
                 .add("wall_on_s", best_on)
                 .add("overhead_pct", overhead_pct)
                 .add("ring_capacity", static_cast<std::int64_t>(
                                           rec.capacity_per_thread()))
                 .add("events_retained",
                      static_cast<std::int64_t>(rec.retained()))
                 .add("threads", static_cast<std::int64_t>(
                                     shared_pool_threads())));
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::banner(
      "E14", "flight-recorder overhead",
      "Wall-time cost of the always-on ring recorder (best-of-N,\n"
      "alternating recorder off/on) over the serve saturation burst and a\n"
      "fig2-style FedAvg run. Acceptance: <= 5% on both.");

  const std::int64_t reps = bench::scaled(5, 3);
  std::cout << "best-of-" << reps << " per arm, MDL_THREADS="
            << shared_pool_threads() << ":\n";

  {
    Rng rng(2025);
    const split::SplitInference model = make_model(rng);
    const std::vector<serve::InferenceRequest> reqs =
        make_requests(bench::scaled(512, 96), rng);
    measure("serve", reps, [&] { return run_serve_once(model, reqs); });
  }
  {
    const FedWorkload w = make_fed_workload();
    measure("fedavg", reps, [&] { return run_fedavg_once(w); });
  }

  obs::FlightRecorder::global().set_enabled(true);
  bench::log_metrics_snapshot();
  std::cout << "\ndone.\n";
  return 0;
}
