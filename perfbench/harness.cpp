#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/gemm.hpp"
#include "core/threadpool.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())) - 1.0);
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double windowed_percentile(const std::vector<double>& t_s,
                           const std::vector<double>& values, double window_s,
                           double q, double across) {
  std::map<std::int64_t, std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size() && i < t_s.size(); ++i)
    windows[static_cast<std::int64_t>(std::floor(t_s[i] / window_s))]
        .push_back(values[i]);
  if (windows.empty()) return 0.0;
  const double min_count = 0.5 * static_cast<double>(values.size()) /
                           static_cast<double>(windows.size());
  std::vector<double> per_window;
  for (auto& [w, v] : windows)
    if (static_cast<double>(v.size()) >= min_count)
      per_window.push_back(percentile(std::move(v), q));
  return percentile(std::move(per_window), across);
}

// -- Metrics -----------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"latency_p50_us", "us"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"serve.submit_us", "us"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.exec_us", "us"},
      {"serve.batch_size", "count"},
      {"serve.completion_us", "us"},
      {"loadgen.lag_p99_us", "us"},
      {"apps.infer_us.b1", "us"},
      {"apps.infer_us.b8", "us"},
      {"nn.gru_infer_us.alnum", "us"},
      {"nn.gru_infer_us.special", "us"},
      {"nn.gru_infer_us.accel", "us"},
      {"fusion.infer_us", "us"},
      {"apps.forward_us.b32", "us"},
      {"apps.backward_us.b32", "us"},
      {"nn.adam_step_us", "us"},
      {"data.batch_us", "us"},
      {"apps.gflops", "GFLOP/s"},
      {"split.perturb_us", "us"},
      {"split.cloud_infer_us.b1", "us"},
      {"split.cloud_infer_us.b8", "us"},
      {"gemm.gflops.cloud", "GFLOP/s"},
      {"gemm.bytes_moved.cloud", "bytes"},
      {"data.shard_us", "us"},
      {"federated.local_sgd_us", "us"},
      {"federated.eval_us", "us"},
      {"compress.wire_encode_us", "us"},
      {"compress.wire_ratio", "ratio"},
      {"ckpt.encode_us", "us"},
      {"ckpt.save_us", "us"},
      {"ckpt.compress_ratio", "ratio"},
      {"sim.bytes_up", "bytes"},
      {"sim.bytes_down", "bytes"},
      {"wire_bytes_per_round", "bytes"},
      {"ckpt_bytes_per_round", "bytes"},
      {"accuracy", "fraction"},
      {"latency_p99_us", "us"},
      {"obs.trace_overhead_pct", "pct"},
      {"trace.explained_pct", "pct"},
  };
  return specs;
}

void Result::note(const std::string& name, double value,
                  const std::string& unit) {
  std::ostringstream os;
  os.precision(6);
  os << value << ' ' << unit;
  notes.emplace_back(name, os.str());
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
  return ok;
}

void print_result_json(std::ostream& os, Result& r,
                       const std::vector<MetricSpec>& specs) {
  std::ostringstream metrics;
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = r.values.find(spec.name);
    double value = 0.0;
    if (it == r.values.end() || !std::isfinite(it->second)) {
      r.check(false,
              std::string("metric ") + spec.name + " missing or not finite");
    } else {
      value = it->second;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics << (first ? "" : ", ") << '"' << spec.name
            << "\": {\"value\": " << buf << ", \"unit\": \"" << spec.unit
            << "\"}";
    first = false;
  }
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(r.attempted, 1)
     << ", \"failed\": " << r.failed << ", \"metrics\": {" << metrics.str()
     << "}}" << std::endl;
}

// -- Output checks -----------------------------------------------------------

bool bit_identical(const mdl::Tensor& a, const mdl::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

bool serve_result_ok(const mdl::serve::InferenceResult& r,
                     const mdl::Tensor& reference) {
  if (r.status != mdl::serve::RequestStatus::kOk) return false;
  if (!bit_identical(r.logits, reference)) return false;
  return r.argmax == reference.argmax_rows().front();
}

bool accounting_ok(std::int64_t sent, std::int64_t ok, std::int64_t failed) {
  return sent > 0 && ok >= 0 && failed >= 0 && sent == ok + failed;
}

bool ledger_matches(std::uint64_t ledger_total, std::uint64_t counter_up,
                    std::uint64_t counter_down) {
  return ledger_total == counter_up + counter_down;
}

bool loss_ok(double loss) { return std::isfinite(loss) && loss >= 0.0; }

bool accuracy_ok(double accuracy, double floor) {
  return std::isfinite(accuracy) && accuracy >= floor && accuracy <= 1.0;
}

// -- Benchmark-side spans ----------------------------------------------------

namespace {

struct Frame {
  const char* name;
  Clock::time_point start;
  double child_us;
};

struct ThreadSpans {
  std::vector<Frame> stack;
  std::unordered_map<const char*, LayerTotals> totals;
};

std::atomic<bool> g_tracing{false};
std::mutex g_threads_mu;
std::vector<std::shared_ptr<ThreadSpans>> g_threads;  // guarded by g_threads_mu

ThreadSpans& thread_spans() {
  thread_local const std::shared_ptr<ThreadSpans> spans = [] {
    auto s = std::make_shared<ThreadSpans>();
    const std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(s);
    return s;
  }();
  return *spans;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::map<std::string, LayerTotals> layer_totals() {
  std::map<std::string, LayerTotals> merged;
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (const auto& [name, lt] : t->totals) {
      LayerTotals& m = merged[name];
      m.calls += lt.calls;
      m.total_us += lt.total_us;
      m.self_us += lt.self_us;
      m.samples_us.insert(m.samples_us.end(), lt.samples_us.begin(),
                          lt.samples_us.end());
    }
  }
  return merged;
}

Span::Span(const char* name) {
  if (!tracing()) return;
  active_ = true;
  thread_spans().stack.push_back({name, Clock::now(), 0.0});
  mdl::obs::FlightRecorder::global().emit(mdl::obs::EventType::kBegin, name);
}

Span::~Span() {
  if (!active_) return;
  ThreadSpans& t = thread_spans();
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const double dur = us_between(f.start, Clock::now());
  mdl::obs::FlightRecorder::global().emit(mdl::obs::EventType::kEnd, f.name);
  LayerTotals& lt = t.totals[f.name];
  ++lt.calls;
  lt.total_us += dur;
  lt.self_us += dur - f.child_us;
  lt.samples_us.push_back(dur);
  if (!t.stack.empty()) t.stack.back().child_us += dur;
}

// -- Provenance --------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

double host_steal_pct() {
  static std::uint64_t last_total = 0, last_steal = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  std::uint64_t field[8] = {};
  in >> cpu;
  for (std::uint64_t& f : field) in >> f;
  if (!in || cpu != "cpu") return -1.0;
  const std::uint64_t total =
      std::accumulate(std::begin(field), std::end(field), std::uint64_t{0});
  const std::uint64_t steal = field[7];
  const double pct = total > last_total
                         ? 100.0 * static_cast<double>(steal - last_steal) /
                               static_cast<double>(total - last_total)
                         : 0.0;
  last_total = total;
  last_steal = steal;
  return pct;
}

std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            const std::string& git_sha, bool traced,
                            double steal_pct) {
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(workload) << "\", \"seed\": "
     << seed << ", \"trace\": " << (traced ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"gemm_kernel\": \""
     << mdl::gemm::kernel_name()
     << "\", \"shared_pool_threads\": " << mdl::shared_pool_threads()
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"obs_enabled\": " << (mdl::obs::kEnabled ? "true" : "false")
     << ", \"git_sha\": \"" << json_escape(git_sha)
     << "\", \"host_steal_pct\": " << steal_pct << '}';
  return os.str();
}

}  // namespace perfbench
