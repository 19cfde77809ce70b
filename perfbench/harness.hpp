// Shared pieces of the repository benchmark: timing statistics, the result
// object and its JSON printer, the output checks, the benchmark-side trace
// spans, and run provenance.
//
// Everything here sits outside the library: spans wrap the benchmark's own
// calls into mdl::serve / apps / split / federated / compress / ckpt, and the
// checks judge only what those public APIs return.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "serve/request.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Splits samples into consecutive `window_s` windows by their time stamp
/// `t_s[i]` (seconds from the phase start), takes the q-th percentile inside
/// each window that holds at least half the mean window count, and returns
/// the `across`-th percentile over those windows — so a few disturbed
/// seconds of a run cannot move the figure.
double windowed_percentile(const std::vector<double>& t_s,
                           const std::vector<double>& values, double window_s,
                           double q, double across);

// -- Metrics -----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports each of them (--trace 0).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics: every workload reports each of them (--trace 1); a
/// layer the workload never calls reads 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// What one workload run produced. `attempted` counts operations (requests,
/// rounds, epochs) plus output checks; `failed` counts non-kOk results,
/// failed checks and exceptions.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> failures;     ///< one line per failed check
  /// Human-readable figures printed above the JSON line (the names of the
  /// workload's own vocabulary, e.g. round_p50_ms, wire_bytes_per_round).
  std::vector<std::pair<std::string, std::string>> notes;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& name, double value, const std::string& unit);
  /// Records the outcome of one check: counts it as attempted, and as failed
  /// with `what` when `ok` is false.
  bool check(bool ok, const std::string& what);
  bool correct() const { return failed == 0 && failures.empty(); }
};

/// Writes the one-line JSON result for `specs`: every spec must have a
/// finite value in `r.values`; a missing or non-finite one is recorded as a
/// failure and printed as 0 so the line stays valid JSON.
void print_result_json(std::ostream& os, Result& r,
                       const std::vector<MetricSpec>& specs);

// -- Output checks -----------------------------------------------------------

/// True when both tensors have the same shape and bit-identical floats.
bool bit_identical(const mdl::Tensor& a, const mdl::Tensor& b);

/// Judges one served result against the sequential reference logits of the
/// same request: kOk, bit-identical logits, and an argmax that matches.
bool serve_result_ok(const mdl::serve::InferenceResult& r,
                     const mdl::Tensor& reference);

/// Every submitted request reached exactly one terminal state.
bool accounting_ok(std::int64_t sent, std::int64_t ok, std::int64_t failed);

/// The trainer's ledger and the sim.bytes_* counter deltas bill the same
/// bytes.
bool ledger_matches(std::uint64_t ledger_total, std::uint64_t counter_up,
                    std::uint64_t counter_down);

bool loss_ok(double loss);
bool accuracy_ok(double accuracy, double floor);

// -- Benchmark-side spans ----------------------------------------------------

/// Aggregate of every span of one name, across threads.
struct LayerTotals {
  std::int64_t calls = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus the time covered by child spans
  std::vector<double> samples_us;
};

/// Turns span recording on or off (off by default). While on, every Span
/// also emits a begin/end pair into obs::FlightRecorder::global().
void set_tracing(bool on);
bool tracing();

/// Merges every thread's span totals. Call when no traced thread is inside a
/// span (after the workload's threads joined).
std::map<std::string, LayerTotals> layer_totals();

/// RAII span around one call into a layer. `name` must be a string literal.
/// A no-op unless tracing is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Runs `fn` `warmup` times untimed, then `iters` times inside a span named
/// `name`; returns the median call time in microseconds.
template <typename Fn>
double probe_us(const char* name, int warmup, int iters, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Span span(name);
    const auto t0 = Clock::now();
    fn();
    samples.push_back(us_between(t0, Clock::now()));
  }
  return percentile(std::move(samples), 0.5);
}

// -- Provenance --------------------------------------------------------------

/// Share of all CPU time, in percent, that the hypervisor gave to other
/// guests (the "steal" column of /proc/stat) since the previous call; the
/// first call measures from boot. -1 when /proc/stat cannot be read.
double host_steal_pct();

/// One-line JSON object describing where a result came from. `steal_pct`
/// is host_steal_pct() over the run.
std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            const std::string& git_sha, bool traced,
                            double steal_pct);

}  // namespace perfbench
