// E13 — mdl::serve batched inference throughput.
//
// Two phases over one split-inference server (512-wide cloud half, the
// Fig. 3 deployment the paper puts behind a private cloud endpoint):
//
//   saturation — a closed-loop burst of pre-staged requests per
//     max_batch_size in {1, 2, 4, 8, 16}. max_batch_size=1 is the
//     sequential baseline; larger batches amortize the per-request
//     dispatch overhead and reuse each weight tile across the batch rows
//     inside one mdl::gemm call, which is where the single-core speedup
//     comes from (no thread-count tricks: results are honest on a 1-core
//     container).
//
//   offered_load — an open-loop sweep: requests arrive at a fixed rate
//     with a latency deadline, and the server sheds what it cannot serve
//     in time. Reports goodput, shed fraction and latency percentiles per
//     offered load (the data behind a serving capacity curve).
//
// JSONL via --json / MDL_JSON_OUT; committed evidence lives in
// bench/results/BENCH_serve_*.jsonl.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "compress/int8.hpp"
#include "compress/prune.hpp"
#include "core/threadpool.hpp"
#include "mobile/cost_model.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/split_client.hpp"
#include "split/degradation.hpp"

namespace {

using namespace mdl;

constexpr std::int64_t kRepDim = 512;

std::unique_ptr<nn::Sequential> make_local(Rng& rng) {
  auto local = std::make_unique<nn::Sequential>();
  local->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  local->emplace<nn::Tanh>();
  return local;
}

std::unique_ptr<nn::Sequential> make_cloud(Rng& rng) {
  auto cloud = std::make_unique<nn::Sequential>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, 8, rng);
  return cloud;
}

serve::InferenceRequest make_request(Rng& rng) {
  serve::InferenceRequest req;
  req.kind = serve::RequestKind::kSplit;
  req.representation = Tensor({1, kRepDim});
  for (std::int64_t i = 0; i < kRepDim; ++i)
    req.representation[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  req.noise_seed = rng.next_u64();
  return req;
}

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Percentiles percentiles(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1));
    return v[idx];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

serve::ServeConfig base_config(std::int64_t max_batch) {
  serve::ServeConfig cfg;
  cfg.max_batch_size = max_batch;
  cfg.perturb.nullification_rate = 0.1;
  cfg.perturb.laplace_scale = 0.1;
  return cfg;
}

double run_saturation(const split::SplitInference& model,
                      const std::vector<serve::InferenceRequest>& reqs,
                      std::int64_t max_batch, double baseline_rps,
                      const char* event = "saturation") {
  serve::InferenceServer server(nullptr, &model, base_config(max_batch));
  server.pause();
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(reqs.size());
  for (const auto& r : reqs) futures.push_back(server.submit(r));

  const auto start = std::chrono::steady_clock::now();
  server.resume();
  std::vector<double> latencies;
  double mean_occupancy = 0.0;
  latencies.reserve(futures.size());
  for (auto& f : futures) {
    const serve::InferenceResult r = f.get();
    latencies.push_back(r.latency_us);
    mean_occupancy += static_cast<double>(r.batch_size);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  mean_occupancy /= static_cast<double>(futures.size());

  const double rps = static_cast<double>(reqs.size()) / wall_s;
  const double speedup = baseline_rps > 0.0 ? rps / baseline_rps : 1.0;
  const Percentiles lat = percentiles(latencies);
  std::cout << "  batch " << std::setw(2) << max_batch << "  "
            << std::setw(8) << static_cast<std::int64_t>(rps) << " req/s"
            << "  occupancy " << std::fixed << std::setprecision(2)
            << mean_occupancy << "  p50 " << std::setprecision(0)
            << lat.p50 << "us  p99 " << lat.p99 << "us  speedup "
            << std::setprecision(2) << speedup << "x\n"
            << std::defaultfloat;
  bench::log(bench::record(event)
                 .add("max_batch_size", max_batch)
                 .add("requests", static_cast<std::int64_t>(reqs.size()))
                 .add("throughput_rps", rps)
                 .add("mean_occupancy", mean_occupancy)
                 .add("p50_us", lat.p50)
                 .add("p95_us", lat.p95)
                 .add("p99_us", lat.p99)
                 .add("speedup_vs_sequential", speedup)
                 .add("threads", static_cast<std::int64_t>(
                                     shared_pool_threads()))
                 .add("wall_s", wall_s));
  return rps;
}

void run_offered_load(const split::SplitInference& model,
                      const std::vector<serve::InferenceRequest>& reqs,
                      double offered_rps) {
  serve::ServeConfig cfg = base_config(8);
  cfg.default_deadline_us = 20'000;
  serve::InferenceServer server(nullptr, &model, cfg);

  const auto gap =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / offered_rps));
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(reqs.size());
  const auto start = std::chrono::steady_clock::now();
  auto next = start;
  for (const auto& r : reqs) {
    std::this_thread::sleep_until(next);
    next += gap;
    futures.push_back(server.submit(r));
  }

  std::vector<double> ok_latencies;
  std::int64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const serve::InferenceResult r = f.get();
    if (r.status == serve::RequestStatus::kOk) {
      ++ok;
      ok_latencies.push_back(r.latency_us);
    } else {
      ++shed;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double goodput = static_cast<double>(ok) / wall_s;
  const double shed_frac =
      static_cast<double>(shed) / static_cast<double>(reqs.size());
  const Percentiles lat = percentiles(ok_latencies);
  std::cout << "  offered " << std::setw(6)
            << static_cast<std::int64_t>(offered_rps) << " req/s  goodput "
            << std::setw(6) << static_cast<std::int64_t>(goodput)
            << " req/s  shed " << std::fixed << std::setprecision(1)
            << 100.0 * shed_frac << "%  p50 " << std::setprecision(0)
            << lat.p50 << "us  p99 " << lat.p99 << "us\n"
            << std::defaultfloat;
  bench::log(bench::record("offered_load")
                 .add("offered_rps", offered_rps)
                 .add("requests", static_cast<std::int64_t>(reqs.size()))
                 .add("goodput_rps", goodput)
                 .add("shed_fraction", shed_frac)
                 .add("deadline_us", cfg.default_deadline_us)
                 .add("p50_us", lat.p50)
                 .add("p95_us", lat.p95)
                 .add("p99_us", lat.p99)
                 .add("wall_s", wall_s));
}

std::uint64_t counter_value(const char* name) {
  return mdl::obs::MetricsRegistry::global().counter(name).value();
}

// "Before" cell: raw submits against a chaotic server, no retries, no
// fallback — what the split path looked like without the fault-tolerance
// layer. Availability is whatever fraction the cloud happened to answer.
void run_chaos_direct(const split::SplitInference& model,
                      const std::vector<serve::InferenceRequest>& reqs,
                      double fail_prob) {
  serve::ServeConfig cfg = base_config(8);
  cfg.fault.seed = 404;
  cfg.fault.batch_fail_prob = fail_prob;
  serve::InferenceServer server(nullptr, &model, cfg);

  server.pause();
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(reqs.size());
  for (const auto& r : reqs) futures.push_back(server.submit(r));
  const auto start = std::chrono::steady_clock::now();
  server.resume();
  std::int64_t ok = 0, error = 0, other = 0;
  for (auto& f : futures) {
    switch (f.get().status) {
      case serve::RequestStatus::kOk: ++ok; break;
      case serve::RequestStatus::kError: ++error; break;
      default: ++other; break;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto n = static_cast<double>(reqs.size());
  const double availability = static_cast<double>(ok) / n;
  std::cout << "  fail " << std::setw(4) << std::fixed << std::setprecision(0)
            << 100.0 * fail_prob << "%  no fallback:  answered " << std::setw(5)
            << std::setprecision(1) << 100.0 * availability << "%  ("
            << ok << " ok, " << error << " error, " << other << " other)\n"
            << std::defaultfloat;
  bench::log(bench::record("chaos_direct")
                 .add("fail_prob", fail_prob)
                 .add("requests", static_cast<std::int64_t>(reqs.size()))
                 .add("ok", ok)
                 .add("error", error)
                 .add("other", other)
                 .add("availability", availability)
                 .add("goodput_rps", static_cast<double>(ok) / wall_s)
                 .add("wall_s", wall_s));
}

// "After" cell: the same chaotic server behind a SplitClient with retries
// and the on-device degradation ladder. Every request is answered; the
// JSONL records where the answers came from and that the client counters
// reconcile exactly (requests == cloud_ok + fallbacks).
void run_chaos_client(const split::SplitInference& model,
                      const split::DegradationLadder& ladder,
                      std::int64_t n, double fail_prob) {
  serve::ServeConfig cfg = base_config(8);
  cfg.fault.seed = 404;
  cfg.fault.batch_fail_prob = fail_prob;
  serve::InferenceServer server(nullptr, &model, cfg);

  mobile::InferencePlanner planner(mobile::DeviceProfile::mobile_soc(),
                                   mobile::DeviceProfile::cloud_server(),
                                   mobile::NetworkModel::wifi());
  serve::SplitClientConfig ccfg;
  ccfg.timeout_us = 50'000;
  ccfg.max_attempts = 3;
  ccfg.backoff_base_us = 100;
  ccfg.seed = 404;
  serve::SplitClient client(&server, &model, &ladder, std::move(planner),
                            ccfg);

  const std::uint64_t req0 = counter_value("client.requests");
  const std::uint64_t ok0 = counter_value("client.cloud_ok");
  const std::uint64_t fb0 = counter_value("client.fallbacks");
  const std::uint64_t retry0 = counter_value("client.retries");

  Rng rng(77);
  std::int64_t cloud = 0, fallback = 0;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(n));
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor rep({1, kRepDim});
    for (std::int64_t d = 0; d < kRepDim; ++d)
      rep[d] = static_cast<float>(rng.uniform(-2.0, 2.0));
    const serve::ClientOutcome out =
        client.infer_representation(rep, rng.next_u64());
    (out.served_by == serve::ServedBy::kCloud ? cloud : fallback) += 1;
    latencies.push_back(out.latency_us);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::int64_t requests =
      static_cast<std::int64_t>(counter_value("client.requests") - req0);
  const std::int64_t cloud_ok =
      static_cast<std::int64_t>(counter_value("client.cloud_ok") - ok0);
  const std::int64_t fallbacks =
      static_cast<std::int64_t>(counter_value("client.fallbacks") - fb0);
  const std::int64_t retries =
      static_cast<std::int64_t>(counter_value("client.retries") - retry0);
  const bool reconciled =
      requests == n && cloud_ok == cloud && fallbacks == fallback &&
      cloud + fallback == n;
  const Percentiles lat = percentiles(latencies);
  std::cout << "  fail " << std::setw(4) << std::fixed << std::setprecision(0)
            << 100.0 * fail_prob << "%  with ladder:  answered 100.0%  ("
            << cloud << " cloud, " << fallback << " fallback, " << retries
            << " retries)  p99 " << lat.p99 << "us  counters "
            << (reconciled ? "reconciled" : "MISMATCH") << "\n"
            << std::defaultfloat;
  bench::log(bench::record("chaos_client")
                 .add("fail_prob", fail_prob)
                 .add("requests", n)
                 .add("served_cloud", cloud)
                 .add("served_fallback", fallback)
                 .add("retries", retries)
                 .add("availability", 1.0)
                 .add("counters_reconciled", reconciled ? 1 : 0)
                 .add("counter_requests", requests)
                 .add("counter_cloud_ok", cloud_ok)
                 .add("counter_fallbacks", fallbacks)
                 .add("goodput_rps", static_cast<double>(n) / wall_s)
                 .add("p50_us", lat.p50)
                 .add("p99_us", lat.p99)
                 .add("wall_s", wall_s));
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::banner(
      "E13", "mdl::serve throughput",
      "Dynamic batching vs sequential execution for split-inference\n"
      "requests (512-wide cloud half), then an offered-load sweep with a\n"
      "20ms deadline showing goodput and shedding under pressure.");

  Rng rng(2025);
  // One float cloud half, and its int8-quantized deployment form (same
  // trained weights; the serve executor runs Int8Linear::infer through the
  // integer GEMM).
  auto cloud = make_cloud(rng);
  auto cloud_int8 = compress::int8_quantize_mlp(*cloud);
  // Degradation ladder for the chaos phase: compressed stand-ins for the
  // same cloud half, built before the float half moves into the model.
  split::DegradationLadder ladder;
  ladder.add_stage("device-pruned", compress::sparse_deploy_mlp(*cloud));
  ladder.add_stage("device-int8", compress::int8_quantize_mlp(*cloud));
  const split::SplitInference model(make_local(rng), std::move(cloud));
  const split::SplitInference model_int8(make_local(rng),
                                         std::move(cloud_int8));
  const std::int64_t burst = bench::scaled(512, 96);
  std::vector<serve::InferenceRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(burst));
  for (std::int64_t i = 0; i < burst; ++i) reqs.push_back(make_request(rng));

  std::cout << "saturation (closed-loop burst of " << burst
            << " requests, MDL_THREADS=" << shared_pool_threads()
            << ", gemm=" << gemm::kernel_name() << "):\n";
  double baseline = 0.0;
  for (const std::int64_t batch : {1, 2, 4, 8, 16}) {
    const double rps = run_saturation(model, reqs, batch, baseline);
    if (batch == 1) baseline = rps;
  }

  std::cout << "\nsaturation, int8-quantized cloud half (same weights, "
               "integer GEMM):\n";
  double baseline_int8 = 0.0;
  for (const std::int64_t batch : {1, 2, 4, 8, 16}) {
    const double rps = run_saturation(model_int8, reqs, batch, baseline_int8,
                                      "saturation_int8");
    if (batch == 1) baseline_int8 = rps;
  }

  const std::int64_t sweep_n = bench::scaled(400, 80);
  std::vector<serve::InferenceRequest> sweep_reqs(
      reqs.begin(), reqs.begin() + std::min<std::int64_t>(sweep_n, burst));
  while (static_cast<std::int64_t>(sweep_reqs.size()) < sweep_n)
    sweep_reqs.push_back(make_request(rng));
  std::cout << "\noffered-load sweep (" << sweep_n
            << " requests per load, 20ms deadline):\n";
  for (const double load : {200.0, 500.0, 1000.0, 2000.0, 4000.0})
    run_offered_load(model, sweep_reqs, load);

  // Chaos sweep: injected batch-failure rates {0, 1, 10}% (seeded, so the
  // fault schedule is reproducible), before/after the fault-tolerance
  // layer. "Before" is raw submits — availability tracks 1 - fail rate.
  // "After" is the SplitClient with retries + the degradation ladder —
  // availability is 1.0 by construction, and the JSONL shows where the
  // answers came from and that the client counters reconcile exactly.
  const std::int64_t chaos_n = bench::scaled(256, 64);
  std::vector<serve::InferenceRequest> chaos_reqs(
      reqs.begin(), reqs.begin() + std::min<std::int64_t>(chaos_n, burst));
  while (static_cast<std::int64_t>(chaos_reqs.size()) < chaos_n)
    chaos_reqs.push_back(make_request(rng));
  std::cout << "\nchaos sweep (" << chaos_n
            << " requests per cell, seeded fault injection):\n";
  for (const double fail : {0.0, 0.01, 0.10}) {
    run_chaos_direct(model, chaos_reqs, fail);
    run_chaos_client(model, ladder, chaos_n, fail);
  }

  bench::log_metrics_snapshot();
  std::cout << "\ndone.\n";
  return 0;
}
