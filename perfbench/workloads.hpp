// The four benchmark workloads (see README.md for why each exists):
//   keystroke_serve  DeepMood sessions as kMultiView requests to mdl::serve
//   split_serve      Fig. 3 kSplit uploads to a 512-wide float cloud half
//   fedavg_round     FedAvg rounds over a virtual population, with a wire
//                    codec, a fault-free SimNetwork and per-round checkpoints
//   keystroke_train  MultiViewTrainer epochs at batch 32 + held-out accuracy
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/multiview_model.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "split/split_inference.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where traced runs write their span table and flight-recorder dump, and
  /// where fedavg_round keeps its checkpoint directory.
  std::string out_dir = ".";
  Clock::time_point process_start = Clock::now();
};

const std::vector<std::string>& workload_names();

/// Runs one workload: end-to-end metrics when !trace, per-layer metrics when
/// trace. Output checks land in the result's attempted/failed counts.
Result run_workload(const Options& options);

// -- Serving pieces, exposed for the self-tests ------------------------------

/// A server plus a pool of pre-generated requests and the sequential
/// reference logits (InferenceServer::score) of every pooled request.
struct ServeFixture {
  std::unique_ptr<mdl::apps::MultiViewModel> multiview;
  std::unique_ptr<mdl::split::SplitInference> split;
  std::vector<mdl::serve::InferenceRequest> pool;
  std::vector<mdl::Tensor> reference;
  std::unique_ptr<mdl::serve::InferenceServer> server;
  /// Kernel thread ids of the threads the server started (its executor and
  /// counter sampler), so the benchmark can move them between CPUs.
  std::vector<int> server_threads;
};

/// Builds the fixture of "keystroke_serve" or "split_serve" from `seed`.
std::unique_ptr<ServeFixture> make_serve_fixture(const std::string& workload,
                                                 std::uint64_t seed,
                                                 std::size_t pool_size);

/// Per-request figures of one open-loop phase.
struct OpenLoopStats {
  std::vector<double> due_s;       ///< due time, seconds from phase start
  /// From each request's due time until the server completed it: generator
  /// lag + InferenceResult::latency_us.
  std::vector<double> latency_us;
  std::vector<double> lag_us;      ///< how late the generator submitted
  std::vector<double> submit_us;   ///< duration of the submit() call
  /// Client-observed time minus latency_us: delivering the completion to
  /// the in-process client (the collector thread).
  std::vector<double> completion_us;
  std::vector<double> queue_wait_us, exec_us, batch_size;
  std::int64_t sent = 0, ok = 0, failed = 0;
};

/// Poisson arrivals at `rate_per_s` for `seconds`, every result checked
/// against the reference logits.
OpenLoopStats run_open_loop(ServeFixture& fx, double rate_per_s,
                            double seconds, std::uint64_t seed);

/// Copies the open-loop figures into the serve.* / loadgen.* metrics.
void set_open_loop_metrics(const OpenLoopStats& s, Result& r);

}  // namespace perfbench
