#include "workloads.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "ckpt/archive.hpp"
#include "compress/wire.hpp"
#include "core/threadpool.hpp"
#include "data/keystroke.hpp"
#include "federated/fedavg.hpp"
#include "federated/population.hpp"
#include "fusion/fusion.hpp"
#include "nn/activations.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "sim/sim_network.hpp"

namespace perfbench {

namespace {

using namespace mdl;
namespace fs = std::filesystem;

// -- Workload constants ------------------------------------------------------

constexpr int kSetupRepeats = 5;

// Serving: a pool of distinct pre-generated requests, cycled by the load.
constexpr std::size_t kPoolSize = 512;
constexpr double kOpenLoopRate = 2000.0;  // req/s, Poisson arrivals
constexpr std::size_t kClosedWindow = 32;  // 4 x default max_batch_size
constexpr std::int64_t kWarmupRequests = 256;
constexpr std::int64_t kRepDim = 512;      // split_serve representation
constexpr auto kResultTimeout = std::chrono::seconds(30);
// Latency percentiles and rates are taken per window of this many seconds
// and reported at the best decile over windows: host contention on a shared
// machine comes in episodes of a few seconds that slow some windows by up to
// 1.5x, while a slower program slows all of them.
constexpr double kRateWindowS = 0.5;
// Single-threaded work (the serving executor, the training loop) moves to the
// next CPU after this many seconds (see CpuRotation).
constexpr double kRotateS = 2.0;
constexpr double kTailWindowS = 0.5;
constexpr double kLatencyAcrossWindows = 0.1;
constexpr double kRateAcrossWindows = 0.9;
// Traced runs alternate untraced and traced segments at least this often.
constexpr int kOverheadPairs = 3;
constexpr double kOverheadSegmentS = 0.5;

// fedavg_round.
constexpr std::uint64_t kFedClients = 10000;
constexpr std::int64_t kFedFeatures = 24, kFedClasses = 10, kFedHidden = 128;
constexpr std::int64_t kFedCohort = 16, kFedLocalEpochs = 5, kFedBatch = 16;
// Every client holds this many examples, so a round's work does not depend
// on the seed.
constexpr std::int64_t kFedShardExamples = 32;
constexpr std::int64_t kFedRounds = 10;  // per episode; warm-up is one too
constexpr std::int64_t kFedTestExamples = 1000;
constexpr double kFedAccuracyFloor = 0.5;

// keystroke_train.
constexpr std::int64_t kTrainUsers = 16, kTrainSessionsPerUser = 40;
constexpr std::int64_t kTrainBatch = 32;
constexpr std::int64_t kTrainEpisodeEpochs = 8;  // then held-out accuracy
constexpr double kTrainAccuracyFloor = 0.55;

volatile float g_sink = 0.0F;
void sink(const Tensor& t) {
  if (t.size() > 0) g_sink = t[0];
}

double peak_rss_mb() {
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// Kernel thread ids of this process's threads (empty without /proc).
std::vector<int> thread_ids() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator("/proc/self/task", ec))
    ids.push_back(std::stoi(e.path().filename().string()));
  return ids;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Runs `make` kSetupRepeats times (once when tracing) and records the
/// median set-up time as setup_s; the first set-up is timed from process
/// start. Returns the last fixture.
template <typename Make>
auto timed_setups(const Options& o, Result& r, Make make) {
  const int reps = o.trace ? 1 : kSetupRepeats;
  std::vector<double> secs;
  decltype(make()) fixture;
  for (int i = 0; i < reps; ++i) {
    fixture.reset();
    const Clock::time_point t0 = i == 0 ? o.process_start : Clock::now();
    fixture = make();
    secs.push_back(seconds_since(t0));
  }
  r.set("setup_s", percentile(secs, 0.5));
  return fixture;
}

/// Durations of a phase's operations (rounds, epochs) and the examples each
/// one trained, stamped with its end time for the windowed statistics.
struct Timeline {
  Clock::time_point start = Clock::now();
  std::vector<double> end_s, dur_us, examples;

  void add(Clock::time_point t0, Clock::time_point t1, double trained) {
    end_s.push_back(us_between(start, t1) / 1e6);
    dur_us.push_back(us_between(t0, t1));
    examples.push_back(trained);
  }
  double tail(double q) const {
    return windowed_percentile(end_s, dur_us, kTailWindowS, q,
                               kLatencyAcrossWindows);
  }
  /// Examples per second of operation time, per kTailWindowS window, at the
  /// best decile over windows.
  double examples_per_s() const {
    std::map<std::int64_t, std::pair<double, double>> windows;
    for (std::size_t i = 0; i < dur_us.size(); ++i) {
      auto& [n, us] =
          windows[static_cast<std::int64_t>(end_s[i] / kTailWindowS)];
      n += examples[i];
      us += dur_us[i];
    }
    std::vector<double> rate;
    for (const auto& [w, nu] : windows)
      if (nu.second > 0.0) rate.push_back(nu.first / (nu.second / 1e6));
    return percentile(std::move(rate), kRateAcrossWindows);
  }
};

/// Moves single-threaded work over the allowed CPUs in turn. A thread that
/// stays on one vCPU for a whole run gets that vCPU's speed, and on a shared
/// host the vCPUs differ: pinned in turn on a 4-vCPU VM, the split_serve
/// executor gave 10.7k req/s on one of them and 14.3-15.4k on the others,
/// and in another pass one optimizer step took 4.4 ms on three of them and
/// 5.8 ms on the fourth.
/// Visiting every CPU, the best decile over a run's windows does not depend
/// on which one another tenant slowed. Restores the original affinity of
/// every thread it pinned when destroyed.
class CpuRotation {
 public:
  /// `tids` are kernel thread ids, 0 for the calling thread. With
  /// `caller_elsewhere`, the calling thread runs on the other CPUs.
  CpuRotation(std::vector<int> tids, bool caller_elsewhere)
      : tids_(std::move(tids)), caller_elsewhere_(caller_elsewhere) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (turns_ == 0) return;
    for (const int tid : tids_) pin(tid, cpus_);
    if (caller_elsewhere_) pin(0, cpus_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the threads to the next CPU; a no-op with fewer than two CPUs.
  void next() {
    if (cpus_.size() < 2 || tids_.empty()) return;
    const int cpu = cpus_[turns_++ % cpus_.size()];
    for (const int tid : tids_)
      if (!pin(tid, {cpu}))
        throw std::runtime_error("cannot pin thread " + std::to_string(tid));
    if (caller_elsewhere_) {
      std::vector<int> others;
      for (const int c : cpus_)
        if (c != cpu) others.push_back(c);
      pin(0, others);
    }
  }

 private:
  static bool pin(int tid, const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    return sched_setaffinity(tid, sizeof set, &set) == 0;
  }

  std::vector<int> tids_;
  bool caller_elsewhere_;
  std::vector<int> cpus_;
  std::size_t turns_ = 0;
};

void tally_requests(Result& r, const char* phase, std::int64_t sent,
                    std::int64_t ok, std::int64_t failed) {
  r.attempted += sent;
  r.failed += failed;
  if (failed > 0)
    r.failures.push_back(std::string(phase) + ": " + std::to_string(failed) +
                         " of " + std::to_string(sent) +
                         " requests not kOk or not bit-identical to score()");
  r.check(accounting_ok(sent, ok, failed),
          std::string(phase) + ": sent != ok + failed");
}

// -- Serving -----------------------------------------------------------------

/// Waits for one result; false when the future never resolves.
bool take(std::future<serve::InferenceResult>& f, serve::InferenceResult& out) {
  if (f.wait_for(kResultTimeout) != std::future_status::ready) return false;
  out = f.get();
  return true;
}

struct ClosedLoopStats {
  double throughput = 0.0;             ///< completions per second
  std::vector<double> window_rate;     ///< completions/s per kRateWindowS
  std::vector<double> batch_exec_us;   ///< one sample per executed batch
  std::vector<double> batch_size;      ///< one sample per executed batch
  std::int64_t sent = 0, ok = 0, failed = 0;
};

/// Keeps `window` requests outstanding until `seconds` pass or `max_sent`
/// requests went out, then drains. Throughput counts completions inside the
/// window only.
ClosedLoopStats run_closed_loop(ServeFixture& fx, std::size_t window,
                                double seconds,
                                std::int64_t max_sent = INT64_MAX) {
  ClosedLoopStats s;
  std::deque<std::pair<std::size_t, std::future<serve::InferenceResult>>> q;
  std::size_t next = 0;
  const auto submit_one = [&] {
    const std::size_t idx = next++ % fx.pool.size();
    Span span("serve.submit");
    q.emplace_back(idx, fx.server->submit(fx.pool[idx]));
    ++s.sent;
  };
  for (std::size_t i = 0; i < window; ++i) submit_one();

  const auto start = Clock::now();
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto last = start;
  std::int64_t batch_left = 0;
  std::vector<double> done_s;  // completions inside the window
  while (!q.empty()) {
    auto [idx, fut] = std::move(q.front());
    q.pop_front();
    serve::InferenceResult r;
    if (take(fut, r) && serve_result_ok(r, fx.reference[idx])) {
      ++s.ok;
      // Requests of one batch complete consecutively and share exec_us.
      if (batch_left <= 0) {
        s.batch_exec_us.push_back(r.exec_us);
        s.batch_size.push_back(static_cast<double>(r.batch_size));
        batch_left = r.batch_size;
      }
      --batch_left;
    } else {
      ++s.failed;
    }
    const auto now = Clock::now();
    if (now < end && s.sent < max_sent) {
      last = now;
      done_s.push_back(us_between(start, now) / 1e6);
      submit_one();
    }
  }
  // Median completion rate over the whole windows of the phase.
  const double elapsed = us_between(start, last) / 1e6;
  const auto windows = static_cast<std::size_t>(elapsed / kRateWindowS);
  if (windows == 0) {
    s.throughput = elapsed > 0.0 ? static_cast<double>(done_s.size()) / elapsed
                                 : 0.0;
    return s;
  }
  s.window_rate.assign(windows, 0.0);
  for (const double t : done_s) {
    const auto w = static_cast<std::size_t>(t / kRateWindowS);
    if (w < windows) s.window_rate[w] += 1.0 / kRateWindowS;
  }
  s.throughput = percentile(s.window_rate, kRateAcrossWindows);
  return s;
}

/// The closed loop in kRotateS segments, the server's threads moving to the
/// next CPU for each and the client running on the others.
ClosedLoopStats run_closed_loop_rotating(ServeFixture& fx, double seconds) {
  CpuRotation rotation(fx.server_threads, true);
  ClosedLoopStats all;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    rotation.next();
    const ClosedLoopStats s = run_closed_loop(
        fx, kClosedWindow, std::min(kRotateS, seconds - seconds_since(start)));
    all.window_rate.insert(all.window_rate.end(), s.window_rate.begin(),
                           s.window_rate.end());
    all.batch_exec_us.insert(all.batch_exec_us.end(), s.batch_exec_us.begin(),
                             s.batch_exec_us.end());
    all.batch_size.insert(all.batch_size.end(), s.batch_size.begin(),
                          s.batch_size.end());
    all.sent += s.sent;
    all.ok += s.ok;
    all.failed += s.failed;
  }
  all.throughput = percentile(all.window_rate, kRateAcrossWindows);
  return all;
}

std::unique_ptr<nn::Sequential> split_local(Rng& rng) {
  auto local = std::make_unique<nn::Sequential>();
  local->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  local->emplace<nn::Tanh>();
  return local;
}

std::unique_ptr<nn::Sequential> split_cloud(Rng& rng) {
  auto cloud = std::make_unique<nn::Sequential>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, kRepDim, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(kRepDim, 8, rng);
  return cloud;
}

apps::MultiViewConfig deepmood_mvm(const data::KeystrokeSimulator& sim) {
  return apps::deepmood_config(sim.view_dims(), sim.seq_lens(),
                               fusion::FusionKind::kMultiviewMachine);
}

/// Standalone modules with the keystroke workloads' shapes: the model's
/// infer/forward/backward, each view's GRU encoder, the MVM head, Adam.
void keystroke_probes(std::uint64_t seed, Result& r) {
  const data::KeystrokeSimulator sim;
  Rng rng(seed ^ 0x6b657973ULL);
  apps::MultiViewModel model(deepmood_mvm(sim), rng);
  const std::vector<std::int64_t> dims = sim.view_dims();
  const std::vector<std::int64_t> lens = sim.seq_lens();
  const auto views_for = [&](std::int64_t batch) {
    std::vector<Tensor> views;
    for (std::size_t p = 0; p < dims.size(); ++p)
      views.push_back(Tensor::randn({lens[p], batch, dims[p]}, rng));
    return views;
  };
  const std::vector<Tensor> v1 = views_for(1), v8 = views_for(8),
                            v32 = views_for(kTrainBatch);

  const double b1 = probe_us("apps.infer.b1", 50, 1000,
                             [&] { sink(model.infer(v1)); });
  r.set("apps.infer_us.b1", b1);
  r.set("apps.infer_us.b8", probe_us("apps.infer.b8", 20, 300,
                                     [&] { sink(model.infer(v8)); }));
  r.set("apps.gflops",
        static_cast<double>(model.flops_per_example()) / (b1 * 1e3));

  static const char* const kGruSpan[] = {"nn.gru_infer.alnum",
                                         "nn.gru_infer.special",
                                         "nn.gru_infer.accel"};
  static const char* const kGruMetric[] = {"nn.gru_infer_us.alnum",
                                           "nn.gru_infer_us.special",
                                           "nn.gru_infer_us.accel"};
  const std::int64_t hidden = model.config().hidden;
  for (std::size_t p = 0; p < dims.size() && p < 3; ++p) {
    nn::GRU gru(dims[p], hidden, rng);
    r.set(kGruMetric[p], probe_us(kGruSpan[p], 50, 1000,
                                  [&] { sink(gru.infer(v1[p])); }));
  }
  const auto head = fusion::make_fusion(
      fusion::FusionKind::kMultiviewMachine,
      std::vector<std::int64_t>(dims.size(), hidden),
      model.config().fusion_capacity, model.config().classes, rng);
  std::vector<Tensor> hs;
  for (std::size_t p = 0; p < dims.size(); ++p)
    hs.push_back(Tensor::randn({1, hidden}, rng));
  r.set("fusion.infer_us", probe_us("fusion.infer", 50, 2000,
                                    [&] { sink(head->infer(hs)); }));

  r.set("apps.forward_us.b32", probe_us("apps.forward.b32", 5, 100, [&] {
          sink(model.forward(v32));
        }));
  std::vector<std::int64_t> labels(static_cast<std::size_t>(kTrainBatch));
  for (auto& y : labels) y = rng.uniform_int(2);
  nn::SoftmaxCrossEntropy loss;
  std::vector<double> bwd;
  for (int i = 0; i < 105; ++i) {
    loss.forward(model.forward(v32), labels);
    model.zero_grad();
    const Tensor grad = loss.backward();
    Span span("apps.backward.b32");
    const auto t0 = Clock::now();
    model.backward(grad);
    if (i >= 5) bwd.push_back(us_between(t0, Clock::now()));
  }
  r.set("apps.backward_us.b32", percentile(bwd, 0.5));
  nn::Adam adam(model.parameters(), 0.01);
  r.set("nn.adam_step_us",
        probe_us("nn.adam_step", 5, 200, [&] { adam.step(); }));

  const data::MultiViewDataset ds = sim.mood_dataset(4, 16, rng);
  std::vector<std::size_t> idx(static_cast<std::size_t>(kTrainBatch));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  r.set("data.batch_us", probe_us("data.batch", 5, 200, [&] {
          sink(data::make_batch(ds, idx).views[0]);
        }));
}

/// Standalone cloud half and perturbation at split_serve's shapes.
void split_probes(ServeFixture& fx, std::uint64_t seed, Result& r) {
  Rng rng(seed ^ 0x73706c74ULL);
  const split::PerturbConfig& cfg = fx.server->config().perturb;
  const Tensor& rep = fx.pool[0].representation;
  r.set("split.perturb_us", probe_us("split.perturb", 50, 2000, [&] {
          sink(fx.split->perturb(rep, cfg, rng));
        }));
  std::vector<Tensor> rows;
  for (std::size_t i = 0; i < 8; ++i) rows.push_back(fx.pool[i].representation);
  const Tensor b8 = Tensor::concat_rows(rows);
  r.set("split.cloud_infer_us.b1", probe_us("split.cloud_infer.b1", 50, 1000, [&] {
          sink(fx.split->cloud_infer(rep));
        }));
  const double t8 = probe_us("split.cloud_infer.b8", 20, 500,
                             [&] { sink(fx.split->cloud_infer(b8)); });
  r.set("split.cloud_infer_us.b8", t8);

  // Operation count and bytes moved of the b8 cloud pass, from tensor sizes:
  // each Linear reads its weights, bias and input rows and writes its output.
  nn::Sequential& cloud = fx.split->cloud();
  double bytes = 0.0;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    if (const auto* lin = dynamic_cast<const nn::Linear*>(&cloud.layer(i))) {
      const double in = static_cast<double>(lin->in_features());
      const double out = static_cast<double>(lin->out_features());
      bytes += 4.0 * (in * out + out) + 4.0 * 8.0 * (in + out);
    }
  }
  r.set("gemm.gflops.cloud",
        8.0 * static_cast<double>(cloud.flops_per_example()) / (t8 * 1e3));
  r.set("gemm.bytes_moved.cloud", bytes);
}

/// Runs `segment(traced)` alternately untraced and traced, pair after pair,
/// until `seconds` pass and at least kOverheadPairs pairs ran; each call
/// returns the mean time of one of its operations. Returns the median over
/// pairs of the traced slowdown in percent. Leaves tracing on.
double open_loop_latency(const OpenLoopStats& s, double q) {
  return windowed_percentile(s.due_s, s.latency_us, kTailWindowS, q,
                             kLatencyAcrossWindows);
}

template <typename Segment>
double alternate_overhead_pct(double seconds, Segment segment) {
  std::vector<double> pct;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds ||
         pct.size() < static_cast<std::size_t>(kOverheadPairs)) {
    set_tracing(false);
    const double plain = segment(false);
    set_tracing(true);
    const double traced = segment(true);
    pct.push_back(plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0);
  }
  return percentile(std::move(pct), 0.5);
}

Result run_serve(const Options& o) {
  Result r;
  // The executor runs the model on its own thread. With a GEMM pool beside
  // it, the pool workers and the in-process client competed for the cores:
  // on a 4-vCPU VM a 3-thread pool made the keystroke_serve closed loop
  // spread 0.26 of its median over five runs, against 0.07 on the executor
  // alone. An explicit MDL_THREADS still wins.
  if (std::getenv("MDL_THREADS") == nullptr) set_shared_pool_threads(1);
  const auto fx = timed_setups(o, r, [&] {
    auto f = make_serve_fixture(o.workload, o.seed, kPoolSize);
    const ClosedLoopStats warm =
        run_closed_loop(*f, kClosedWindow, 60.0, kWarmupRequests);
    tally_requests(r, "warm-up", warm.sent, warm.ok, warm.failed);
    return f;
  });

  if (!o.trace) {
    const OpenLoopStats open =
        run_open_loop(*fx, kOpenLoopRate, o.seconds / 3, o.seed);
    const ClosedLoopStats closed =
        run_closed_loop_rotating(*fx, o.seconds * 2 / 3);
    tally_requests(r, "open loop", open.sent, open.ok, open.failed);
    tally_requests(r, "closed loop", closed.sent, closed.ok, closed.failed);
    r.set("latency_p50_us", open_loop_latency(open, 0.5));
    r.set("throughput_per_s", closed.throughput);
    r.set("peak_rss_mb", peak_rss_mb());
    r.note("open_loop_rate", kOpenLoopRate, "req/s");
    r.note("open_loop_requests", static_cast<double>(open.sent), "count");
    r.note("latency_p50_us", r.values["latency_p50_us"], "us");
    r.note("latency_p90_us", open_loop_latency(open, 0.9), "us");
    r.note("latency_p99_us", open_loop_latency(open, 0.99), "us");
    r.note("loadgen.lag_p99_us", percentile(open.lag_us, 0.99), "us");
    r.note("closed_loop_window", static_cast<double>(kClosedWindow), "requests");
    r.note("throughput_rps", closed.throughput, "req/s");
    r.note("serve.batch_size", mean(closed.batch_size), "count");
    return r;
  }

  // Traced run: closed-loop segments alternately untraced and traced (the
  // overhead), the open loop traced, then standalone probes of the layers
  // the requests run through.
  std::vector<double> exec_us, batch_size;
  const double overhead =
      alternate_overhead_pct(o.seconds / 2, [&](bool traced) {
        const ClosedLoopStats c =
            run_closed_loop(*fx, kClosedWindow, kOverheadSegmentS);
        tally_requests(r, "closed loop", c.sent, c.ok, c.failed);
        if (traced) {
          exec_us.insert(exec_us.end(), c.batch_exec_us.begin(),
                         c.batch_exec_us.end());
          batch_size.insert(batch_size.end(), c.batch_size.begin(),
                            c.batch_size.end());
        }
        return 1e6 / c.throughput;
      });
  const OpenLoopStats open =
      run_open_loop(*fx, kOpenLoopRate, o.seconds / 4, o.seed);
  tally_requests(r, "open loop", open.sent, open.ok, open.failed);
  if (o.workload == "keystroke_serve")
    keystroke_probes(o.seed, r);
  else
    split_probes(*fx, o.seed, r);
  set_tracing(false);

  set_open_loop_metrics(open, r);
  r.set("latency_p99_us", open_loop_latency(open, 0.99));
  r.set("serve.exec_us", percentile(exec_us, 0.5));
  r.set("serve.batch_size", mean(batch_size));
  r.set("obs.trace_overhead_pct", overhead);
  // A request's time from its due time until the client holds the result:
  // generator lag, queue wait and batch execution; the rest (submit
  // bookkeeping and completion delivery) is unexplained.
  const double lat = mean(open.latency_us) + mean(open.completion_us);
  const double explained =
      mean(open.lag_us) + mean(open.queue_wait_us) + mean(open.exec_us);
  r.set("trace.explained_pct", lat > 0.0 ? 100.0 * explained / lat : 0.0);
  return r;
}

// -- fedavg_round ------------------------------------------------------------

/// Forwards to a VirtualPopulation and counts the examples it hands out.
/// shard() runs on the trainer's pool workers; each call is one data.shard
/// span.
class CountingPopulation final : public federated::ClientPopulation {
 public:
  explicit CountingPopulation(federated::VirtualPopulationConfig config)
      : inner_(config) {}

  std::size_t size() const override { return inner_.size(); }
  std::int64_t shard_size(std::size_t client) const override {
    return inner_.shard_size(client);
  }
  const data::TabularDataset& shard(
      std::size_t client, data::TabularDataset& scratch) const override {
    Span span("data.shard");
    const data::TabularDataset& d = inner_.shard(client, scratch);
    examples_.fetch_add(d.size(), std::memory_order_relaxed);
    return d;
  }
  std::uint64_t fingerprint() const override { return inner_.fingerprint(); }
  const char* kind() const override { return inner_.kind(); }

  const federated::VirtualPopulation& inner() const { return inner_; }
  std::int64_t examples() const {
    return examples_.load(std::memory_order_relaxed);
  }

 private:
  federated::VirtualPopulation inner_;
  mutable std::atomic<std::int64_t> examples_{0};
};

struct FedFixture {
  std::shared_ptr<CountingPopulation> population;
  data::TabularDataset test;
  compress::QuantizedWireCodec codec;
  std::unique_ptr<sim::SimNetwork> net;
  federated::ModelFactory factory;
  std::string ckpt_dir;
  std::uint64_t seed = 0;

  FedFixture() = default;
  FedFixture(const FedFixture&) = delete;
  FedFixture& operator=(const FedFixture&) = delete;
  ~FedFixture() {
    std::error_code ec;
    fs::remove_all(ckpt_dir, ec);
  }
};

/// What one FedAvgTrainer::run produced.
struct Episode {
  std::vector<double> ckpt_bytes;
  double accuracy = 0.0;
  std::uint64_t ledger_total = 0, raw_total = 0;
  std::uint64_t counter_up = 0, counter_down = 0;
  std::int64_t rounds = 0;
  std::vector<float> final_params;
};

/// One FedAvgTrainer::run of kFedRounds rounds; each round's duration goes to
/// `rounds_tl`, measured between consecutive on_round callbacks (the first
/// from the start of run()).
Episode run_episode(FedFixture& fx, Result& r, Timeline& rounds_tl) {
  std::error_code ec;
  fs::remove_all(fx.ckpt_dir, ec);
  Episode ep;
  federated::FedAvgConfig cfg;
  cfg.rounds = kFedRounds;
  cfg.clients_per_round = kFedCohort;
  cfg.local_epochs = kFedLocalEpochs;
  cfg.batch_size = kFedBatch;
  cfg.seed = fx.seed;
  cfg.checkpoint.dir = fx.ckpt_dir;
  cfg.checkpoint.compress = true;
  std::vector<federated::RoundStats> seen;
  Clock::time_point prev;
  std::int64_t served = 0;  // examples handed out before this round
  cfg.on_round = [&](const federated::RoundStats& s) {
    const auto now = Clock::now();
    const std::int64_t total = fx.population->examples();
    rounds_tl.add(prev, now,
                  static_cast<double>((total - served) * kFedLocalEpochs));
    served = total;
    const fs::path ck = fs::path(fx.ckpt_dir) / ("ckpt." + std::to_string(s.round));
    std::error_code size_ec;
    const auto size = fs::file_size(ck, size_ec);
    ep.ckpt_bytes.push_back(size_ec ? 0.0 : static_cast<double>(size));
    seen.push_back(s);
    prev = Clock::now();
  };
  federated::FedAvgTrainer trainer(fx.factory, fx.population, cfg);
  trainer.attach_network(fx.net.get());
  trainer.attach_wire_codec(&fx.codec);

  const std::uint64_t up0 = counter_value("sim.bytes_up_compressed");
  const std::uint64_t down0 = counter_value("sim.bytes_down_compressed");
  {
    Span span("federated.run");
    served = fx.population->examples();
    prev = Clock::now();
    trainer.run(fx.test);
  }
  ep.counter_up = counter_value("sim.bytes_up_compressed") - up0;
  ep.counter_down = counter_value("sim.bytes_down_compressed") - down0;
  const federated::CommLedger& ledger = trainer.ledger();
  ep.ledger_total = ledger.total();
  ep.raw_total = ledger.bytes_up_raw + ledger.bytes_down_raw;
  ep.rounds = static_cast<std::int64_t>(seen.size());
  ep.accuracy = seen.empty() ? 0.0 : seen.back().test_accuracy;
  ep.final_params = nn::flatten_values(trainer.global_model().parameters());

  r.attempted += ep.rounds;
  r.check(ep.rounds == kFedRounds, "fedavg: episode ran " +
                                   std::to_string(ep.rounds) + " of " +
                                   std::to_string(kFedRounds) + " rounds");
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const federated::RoundStats& s = seen[i];
    const bool ok = loss_ok(s.train_loss) && !s.aborted && !s.rolled_back &&
                    s.clients_delivered == kFedCohort &&
                    ep.ckpt_bytes[i] > 0.0;
    if (!ok) {
      ++r.failed;
      r.failures.push_back("fedavg: round " + std::to_string(s.round) +
                           " aborted, rolled back, lost a client, had a "
                           "non-finite loss or left no checkpoint");
    }
  }
  r.check(ledger_matches(ep.ledger_total, ep.counter_up, ep.counter_down),
          "fedavg: ledger total != sim.bytes_* counter deltas");
  r.check(accuracy_ok(ep.accuracy, kFedAccuracyFloor),
          "fedavg: accuracy " + std::to_string(ep.accuracy) + " below floor");
  return ep;
}

std::unique_ptr<FedFixture> make_fed_fixture(const Options& o, Result& r) {
  auto fx = std::make_unique<FedFixture>();
  fx->seed = o.seed;
  federated::VirtualPopulationConfig vc;
  vc.population_seed = o.seed;
  vc.num_clients = kFedClients;
  vc.num_features = kFedFeatures;
  vc.num_classes = kFedClasses;
  vc.min_examples = kFedShardExamples;
  vc.max_examples = kFedShardExamples;
  fx->population = std::make_shared<CountingPopulation>(vc);
  fx->test = fx->population->inner().test_set(kFedTestExamples);
  sim::FaultPlan plan;
  plan.seed = o.seed;
  fx->net = std::make_unique<sim::SimNetwork>(plan);
  fx->factory = federated::mlp_factory(kFedFeatures, kFedHidden, kFedClasses);
  fx->ckpt_dir = (fs::path(o.out_dir) /
                  ("fedavg-ckpt-" + std::to_string(::getpid())))
                     .string();
  Timeline warmup;
  run_episode(*fx, r, warmup);
  return fx;
}

/// Whole episodes run until a phase's time is up (at least one).
struct Rounds {
  Timeline timeline;
  Episode first, last;
};

/// Every episode replays the same seed, so all of them must agree exactly.
void check_replay(const Episode& first, const Episode& e, Result& r) {
  r.check(e.accuracy == first.accuracy &&
              e.ledger_total == first.ledger_total &&
              e.ckpt_bytes == first.ckpt_bytes &&
              e.final_params == first.final_params,
          "fedavg: a replayed episode diverged from the first");
}

Rounds run_episodes(FedFixture& fx, double seconds, Result& r) {
  Rounds out;
  out.first = run_episode(fx, r, out.timeline);
  out.last = out.first;
  while (seconds_since(out.timeline.start) < seconds) {
    out.last = run_episode(fx, r, out.timeline);
    check_replay(out.first, out.last, r);
  }
  return out;
}

/// Figures of the round that do not depend on timing: bytes and accuracy.
void set_round_figures(const Episode& e, Result& r) {
  const double rounds = static_cast<double>(std::max<std::int64_t>(e.rounds, 1));
  r.set("wire_bytes_per_round", static_cast<double>(e.ledger_total) / rounds);
  r.set("ckpt_bytes_per_round", mean(e.ckpt_bytes));
  r.set("accuracy", e.accuracy);
  r.set("sim.bytes_up", static_cast<double>(e.counter_up) / rounds);
  r.set("sim.bytes_down", static_cast<double>(e.counter_down) / rounds);
  r.set("compress.wire_ratio",
        e.ledger_total > 0 ? static_cast<double>(e.raw_total) /
                                 static_cast<double>(e.ledger_total)
                           : 0.0);
}

Result run_fedavg(const Options& o) {
  Result r;
  const auto fx = timed_setups(o, r, [&] { return make_fed_fixture(o, r); });

  if (!o.trace) {
    const Rounds run = run_episodes(*fx, o.seconds, r);
    r.set("latency_p50_us", run.timeline.tail(0.5));
    r.note("round_p90_ms", run.timeline.tail(0.9) / 1e3, "ms");
    r.set("throughput_per_s", run.timeline.examples_per_s());
    r.set("peak_rss_mb", peak_rss_mb());
    set_round_figures(run.last, r);
    r.note("rounds", static_cast<double>(run.timeline.dur_us.size()), "count");
    r.note("round_p50_ms", r.values["latency_p50_us"] / 1e3, "ms");
    r.note("round_p99_ms", run.timeline.tail(0.99) / 1e3, "ms");
    r.note("train_examples_per_s", r.values["throughput_per_s"], "examples/s");
    r.note("wire_bytes_per_round", r.values["wire_bytes_per_round"], "bytes");
    r.note("ckpt_bytes_per_round", r.values["ckpt_bytes_per_round"], "bytes");
    r.note("accuracy", r.values["accuracy"], "fraction");
    return r;
  }

  // Traced run: episodes alternately untraced and traced (the overhead), then
  // standalone probes at the round's shapes.
  Timeline traced;
  std::optional<Episode> first;
  Episode last;
  const double overhead = alternate_overhead_pct(o.seconds, [&](bool on) {
    Timeline t;
    Episode e = run_episode(*fx, r, t);
    if (!first) first = e;
    check_replay(*first, e, r);
    if (on) {
      traced.dur_us.insert(traced.dur_us.end(), t.dur_us.begin(),
                           t.dur_us.end());
      last = std::move(e);
    }
    return mean(t.dur_us);
  });
  const auto shard = layer_totals()["data.shard"];

  // Standalone probes at the round's shapes.
  Rng rng(o.seed ^ 0x66656461ULL);
  std::unique_ptr<nn::Sequential> model = fx->factory(rng);
  const auto params = model->parameters();
  std::vector<double> sgd;
  data::TabularDataset scratch;
  for (int i = 0; i < 64; ++i) {
    const auto client = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(kFedClients)));
    const data::TabularDataset& d =
        fx->population->inner().shard(client, scratch);
    nn::unflatten_into_values(last.final_params, params);
    Span span("federated.local_sgd");
    const auto t0 = Clock::now();
    federated::local_sgd(*model, d, kFedLocalEpochs, kFedBatch, 0.1, rng);
    sgd.push_back(us_between(t0, Clock::now()));
  }
  const double local_sgd_us = percentile(sgd, 0.5);
  const double eval_us = probe_us("federated.eval", 3, 50, [&] {
    g_sink = static_cast<float>(federated::evaluate_accuracy(*model, fx->test));
  });
  const std::vector<float>& w = last.final_params;
  const double wire_us = probe_us("compress.wire_encode", 20, 500, [&] {
    g_sink = static_cast<float>(fx->codec.encode_dense(w).size());
  });
  const ckpt::PayloadWriter payload = [&](BinaryWriter& bw) {
    bw.write_f32_vector(w);
  };
  const double encode_us = probe_us("ckpt.encode", 10, 200, [&] {
    g_sink = static_cast<float>(ckpt::encode_archive(payload, true).size());
  });
  const std::string probe_path =
      (fs::path(fx->ckpt_dir) / "probe.ckpt").string();
  const double save_us = probe_us("ckpt.save", 5, 100, [&] {
    ckpt::save_archive(probe_path, payload, true);
  });
  set_tracing(false);

  r.set("data.shard_us", percentile(shard.samples_us, 0.5));
  r.set("federated.local_sgd_us", local_sgd_us);
  r.set("federated.eval_us", eval_us);
  r.set("compress.wire_encode_us", wire_us);
  r.set("ckpt.encode_us", encode_us);
  r.set("ckpt.save_us", save_us);
  r.set("ckpt.compress_ratio",
        static_cast<double>(ckpt::encode_archive(payload, false).size()) /
            static_cast<double>(ckpt::encode_archive(payload, true).size()));
  set_round_figures(last, r);
  const double traced_mean = mean(traced.dur_us);
  r.set("latency_p99_us", percentile(traced.dur_us, 0.99));
  r.set("obs.trace_overhead_pct", overhead);
  // Round model: clients train in parallel over min(pool threads, cohort)
  // workers (shard + local SGD + upload encode each); the broadcast encode,
  // evaluation and checkpoint save run on the round's thread.
  const double workers = static_cast<double>(std::clamp<std::size_t>(
      shared_pool_threads(), 1, static_cast<std::size_t>(kFedCohort)));
  const double shard_per_round =
      shard.self_us / static_cast<double>(traced.dur_us.size());
  const double parallel =
      (shard_per_round +
       static_cast<double>(kFedCohort) * (local_sgd_us + wire_us)) /
      workers;
  const double explained = parallel + wire_us + eval_us + save_us;
  r.set("trace.explained_pct",
        traced_mean > 0.0 ? 100.0 * explained / traced_mean : 0.0);
  return r;
}

// -- keystroke_train ---------------------------------------------------------

/// Training runs in episodes: a fresh model from the same seed trains
/// kTrainEpisodeEpochs epochs, is evaluated on the held-out set (untimed), and
/// is replaced. Every run then performs the same sequence of steps however
/// fast the machine is, and each episode must replay the first exactly.
struct TrainFixture {
  /// The training set in consecutive slices of kTrainBatch sessions; one
  /// MultiViewTrainer::train call on a slice is one optimizer step.
  std::vector<data::MultiViewDataset> batches;
  data::MultiViewDataset test;
  apps::MultiViewConfig config;
  std::uint64_t seed = 0;
  std::unique_ptr<apps::MultiViewModel> model;
  std::unique_ptr<apps::MultiViewTrainer> trainer;  // holds *model
  std::int64_t step = 0;  ///< steps into the current episode
  double loss = 0.0;      ///< of the latest step
  /// Held-out accuracy and last loss of the first finished episode.
  std::optional<std::pair<double, double>> first_episode;

  void start_episode() {
    trainer.reset();
    Rng init(seed ^ 0x696e6974ULL);
    model = std::make_unique<apps::MultiViewModel>(config, init);
    apps::MultiViewTrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = kTrainBatch;
    tc.seed = seed;
    trainer = std::make_unique<apps::MultiViewTrainer>(*model, tc);
    step = 0;
  }
  std::int64_t episode_steps() const {
    return kTrainEpisodeEpochs * static_cast<std::int64_t>(batches.size());
  }
};

void finish_episode(TrainFixture& fx, Result& r) {
  const double accuracy = fx.trainer->evaluate(fx.test).accuracy;
  r.check(accuracy_ok(accuracy, kTrainAccuracyFloor),
          "keystroke_train: held-out accuracy " + std::to_string(accuracy) +
              " below floor");
  if (!fx.first_episode) fx.first_episode.emplace(accuracy, fx.loss);
  r.check(fx.first_episode == std::pair(accuracy, fx.loss),
          "keystroke_train: a replayed episode diverged from the first");
  fx.start_episode();
}

/// One optimizer step on the next slice into `steps`.
void train_step(TrainFixture& fx, Result& r, Timeline& steps) {
  if (fx.step == fx.episode_steps()) finish_episode(fx, r);
  const data::MultiViewDataset& batch =
      fx.batches[static_cast<std::size_t>(fx.step) % fx.batches.size()];
  {
    Span span("apps.train_step");
    const auto t0 = Clock::now();
    fx.loss = fx.trainer->train(batch);
    steps.add(t0, Clock::now(), static_cast<double>(batch.size()));
  }
  ++fx.step;
  ++r.attempted;
  if (!loss_ok(fx.loss)) {
    ++r.failed;
    r.failures.push_back("keystroke_train: non-finite loss at step " +
                         std::to_string(fx.step));
  }
}

/// Trains until `seconds` pass and at least one episode was evaluated,
/// moving to the next CPU every kRotateS seconds.
Timeline run_steps(TrainFixture& fx, double seconds, Result& r) {
  Timeline steps;
  CpuRotation rotation({0}, false);
  auto turn = steps.start;
  while (seconds_since(steps.start) < seconds || !fx.first_episode) {
    if (Clock::now() >= turn) {
      rotation.next();
      turn = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(kRotateS));
    }
    train_step(fx, r, steps);
  }
  return steps;
}

std::unique_ptr<TrainFixture> make_train_fixture(const Options& o, Result& r) {
  auto fx = std::make_unique<TrainFixture>();
  const data::KeystrokeSimulator sim;
  Rng rng(o.seed);
  const data::MultiViewDataset ds =
      sim.mood_dataset(kTrainUsers, kTrainSessionsPerUser, rng);
  data::MultiViewSplit split = data::train_test_split(ds, 0.25, rng);
  data::MultiViewScaler scaler;
  scaler.fit(split.train);
  scaler.apply(split.train);
  scaler.apply(split.test);
  for (std::size_t begin = 0; begin < split.train.examples.size();
       begin += kTrainBatch) {
    std::vector<std::size_t> idx;
    for (std::size_t i = begin; i < std::min(split.train.examples.size(),
                                             begin + kTrainBatch);
         ++i)
      idx.push_back(i);
    fx->batches.push_back(split.train.subset(idx));
  }
  fx->test = std::move(split.test);
  fx->config = deepmood_mvm(sim);
  fx->seed = o.seed;
  // Warm-up: one epoch of a throw-away episode.
  fx->start_episode();
  Timeline warmup;
  for (std::size_t i = 0; i < fx->batches.size(); ++i)
    train_step(*fx, r, warmup);
  fx->start_episode();
  return fx;
}

Result run_train(const Options& o) {
  Result r;
  // A batch-32 step is too small to split across cores: on a 4-vCPU VM the
  // pool's cross-core wake-ups made a step take 4.7-7 ms, depending on where
  // the workers ran, against a steady 4.4 ms on one thread. An explicit
  // MDL_THREADS still wins.
  if (std::getenv("MDL_THREADS") == nullptr) set_shared_pool_threads(1);
  const auto fx = timed_setups(o, r, [&] { return make_train_fixture(o, r); });

  if (!o.trace) {
    const Timeline steps = run_steps(*fx, o.seconds, r);
    r.set("latency_p50_us", steps.tail(0.5));
    r.note("step_p90_ms", steps.tail(0.9) / 1e3, "ms");
    r.note("step_p99_ms", steps.tail(0.99) / 1e3, "ms");
    r.set("throughput_per_s", steps.examples_per_s());
    r.set("peak_rss_mb", peak_rss_mb());
    r.note("steps", static_cast<double>(steps.dur_us.size()), "count");
    r.note("step_p50_ms", r.values["latency_p50_us"] / 1e3, "ms");
    r.note("train_examples_per_s", r.values["throughput_per_s"], "examples/s");
    r.note("accuracy", fx->first_episode->first, "fraction");
    return r;
  }

  // Traced run: epochs alternately untraced and traced (the overhead), then
  // standalone probes of the model's layers at batch 32.
  Timeline traced;
  const double overhead = alternate_overhead_pct(o.seconds, [&](bool on) {
    Timeline t;
    for (std::size_t i = 0; i < fx->batches.size(); ++i)
      train_step(*fx, r, t);
    if (on)
      traced.dur_us.insert(traced.dur_us.end(), t.dur_us.begin(),
                           t.dur_us.end());
    return mean(t.dur_us);
  });
  run_steps(*fx, 0.0, r);
  keystroke_probes(o.seed, r);
  set_tracing(false);
  r.set("accuracy", fx->first_episode->first);
  r.set("latency_p99_us", percentile(traced.dur_us, 0.99));
  r.set("obs.trace_overhead_pct", overhead);
  // Step model: gather + forward + backward + Adam at batch 32.
  const double step_us = r.values["data.batch_us"] +
                         r.values["apps.forward_us.b32"] +
                         r.values["apps.backward_us.b32"] +
                         r.values["nn.adam_step_us"];
  const double step = mean(traced.dur_us);
  r.set("trace.explained_pct", step > 0.0 ? 100.0 * step_us / step : 0.0);
  return r;
}

}  // namespace

// -- Serving pieces (public for the self-tests) ------------------------------

std::unique_ptr<ServeFixture> make_serve_fixture(const std::string& workload,
                                                 std::uint64_t seed,
                                                 std::size_t pool_size) {
  auto fx = std::make_unique<ServeFixture>();
  Rng rng(seed);
  fx->pool.reserve(pool_size);
  if (workload == "keystroke_serve") {
    const data::KeystrokeSimulator sim;
    fx->multiview =
        std::make_unique<apps::MultiViewModel>(deepmood_mvm(sim), rng);
    std::vector<data::UserProfile> users;
    for (int u = 0; u < 16; ++u) users.push_back(sim.sample_user(rng));
    for (std::size_t i = 0; i < pool_size; ++i) {
      data::MultiViewExample ex = sim.generate_session(
          users[i % users.size()], rng.bernoulli(0.5) ? 1 : 0, rng);
      serve::InferenceRequest req;
      req.kind = serve::RequestKind::kMultiView;
      req.views = std::move(ex.views);
      fx->pool.push_back(std::move(req));
    }
  } else if (workload == "split_serve") {
    auto local = split_local(rng);
    auto cloud = split_cloud(rng);
    fx->split = std::make_unique<split::SplitInference>(std::move(local),
                                                        std::move(cloud));
    for (std::size_t i = 0; i < pool_size; ++i) {
      const Tensor x = Tensor::rand({1, kRepDim}, rng, -2.0F, 2.0F);
      serve::InferenceRequest req;
      req.kind = serve::RequestKind::kSplit;
      req.representation = fx->split->local_infer(x);
      req.noise_seed = rng.next_u64();
      fx->pool.push_back(std::move(req));
    }
  } else {
    throw std::invalid_argument("not a serving workload: " + workload);
  }
  const std::vector<int> before = thread_ids();
  fx->server = std::make_unique<serve::InferenceServer>(
      fx->multiview.get(), fx->split.get(), serve::ServeConfig{});
  for (const int tid : thread_ids())
    if (std::find(before.begin(), before.end(), tid) == before.end())
      fx->server_threads.push_back(tid);
  fx->reference.reserve(pool_size);
  for (const serve::InferenceRequest& req : fx->pool)
    fx->reference.push_back(fx->server->score(req));
  return fx;
}

OpenLoopStats run_open_loop(ServeFixture& fx, double rate_per_s,
                            double seconds, std::uint64_t seed) {
  struct Pending {
    std::size_t idx = 0;
    Clock::time_point due, submitted;
    double submit_us = 0.0;
    std::future<serve::InferenceResult> fut;
  };
  OpenLoopStats s;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> inbox;  // guarded by mu
  bool closed = false;        // guarded by mu

  // The collector takes results in submission order and stamps each
  // completion when the client sees it. Only it writes s's per-request
  // vectors and ok/failed; the generator writes s.sent.
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !inbox.empty(); });
        if (inbox.empty()) return;
        p = std::move(inbox.front());
        inbox.pop_front();
      }
      serve::InferenceResult r;
      bool good = false;
      try {
        good = take(p.fut, r) && serve_result_ok(r, fx.reference[p.idx]);
      } catch (const std::exception&) {
        good = false;
      }
      const auto done = Clock::now();
      if (!good) {
        ++s.failed;
        continue;
      }
      ++s.ok;
      const double lag_us = us_between(p.due, p.submitted);
      s.due_s.push_back(us_between(start, p.due) / 1e6);
      s.latency_us.push_back(lag_us + r.latency_us);
      s.lag_us.push_back(lag_us);
      s.submit_us.push_back(p.submit_us);
      s.queue_wait_us.push_back(r.queue_wait_us);
      s.exec_us.push_back(r.exec_us);
      s.completion_us.push_back(us_between(p.submitted, done) - r.latency_us);
      s.batch_size.push_back(static_cast<double>(r.batch_size));
    }
  });
  const auto close = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_one();
    collector.join();
  };

  try {
    Rng arrivals(seed ^ 0x6f70656eULL);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    std::size_t i = 0;
    for (auto due = start; due < end;
         due += std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(arrivals.exponential(rate_per_s)))) {
      std::this_thread::sleep_until(due);
      Pending p;
      p.idx = i++ % fx.pool.size();
      p.due = due;
      p.submitted = Clock::now();
      {
        Span span("serve.submit");
        p.fut = fx.server->submit(fx.pool[p.idx]);
      }
      p.submit_us = us_between(p.submitted, Clock::now());
      ++s.sent;
      {
        const std::lock_guard<std::mutex> lock(mu);
        inbox.push_back(std::move(p));
      }
      cv.notify_one();
    }
  } catch (...) {
    close();
    throw;
  }
  close();
  return s;
}

void set_open_loop_metrics(const OpenLoopStats& s, Result& r) {
  r.set("serve.submit_us", percentile(s.submit_us, 0.5));
  r.set("serve.queue_wait_us.p50", percentile(s.queue_wait_us, 0.5));
  r.set("serve.queue_wait_us.p99", percentile(s.queue_wait_us, 0.99));
  r.set("serve.completion_us", percentile(s.completion_us, 0.5));
  r.set("loadgen.lag_p99_us", percentile(s.lag_us, 0.99));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "keystroke_serve", "split_serve", "fedavg_round", "keystroke_train"};
  return names;
}

Result run_workload(const Options& o) {
  Result r;
  if (o.workload == "keystroke_serve" || o.workload == "split_serve")
    r = run_serve(o);
  else if (o.workload == "fedavg_round")
    r = run_fedavg(o);
  else if (o.workload == "keystroke_train")
    r = run_train(o);
  else
    throw std::invalid_argument("unknown workload: " + o.workload);
  // Layers a workload never calls read 0 in the per-layer table.
  if (o.trace)
    for (const MetricSpec& spec : per_layer_metrics())
      r.values.emplace(spec.name, 0.0);
  return r;
}

}  // namespace perfbench
