// mdl::obs — lock-cheap metrics substrate (counters, gauges, histograms).
//
// The hot path is a single relaxed atomic operation: instrumentation sites
// resolve their metric once (function-local static reference, one registry
// lookup under a mutex) and then only touch atomics. Histograms use fixed
// bucket bounds so `observe` is a binary search plus two atomic adds;
// quantiles (p50/p95/p99) are computed at snapshot time by linear
// interpolation inside the owning bucket.
//
// Compile with -DMDL_OBS_DISABLED to reduce every MDL_OBS_* instrumentation
// macro to a no-op (arguments are not evaluated); the classes themselves
// stay fully functional so exporters and tests keep working.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mdl::obs {

/// False when the library was built with -DMDL_OBS_DISABLED.
#ifdef MDL_OBS_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Monotonically increasing event count (tasks completed, bytes sent, ...).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, last test accuracy, epsilon, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bounds are upper edges (ascending), with an
/// implicit +inf overflow bucket. Thread-safe; `observe` is wait-free up to
/// the atomic adds.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Approximate quantile (q in [0, 1]) by linear interpolation within the
  /// bucket holding the target rank; 0 when empty. Values in the overflow
  /// bucket report the last finite bound (a deliberate underestimate).
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, one entry per bound plus the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

  /// n bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t n);
  /// n bounds: start, start+step, start+2*step, ... (small bounded ranges
  /// such as batch occupancy, where exponential buckets over-resolve).
  static std::vector<double> linear_bounds(double start, double step,
                                           std::size_t n);
  /// Default latency bounds in microseconds: 1us .. ~17s, factor 2.
  static const std::vector<double>& default_latency_bounds_us();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one metric; callers read the fields directly.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
};

/// Full registry snapshot, sorted by metric name within each kind.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Named metric registry. Lookup (registration) takes a mutex; returned
/// references stay valid for the registry's lifetime, so callers cache them
/// and the hot path never locks. A name registered as one kind cannot be
/// re-requested as another (throws mdl::Error).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by the MDL_OBS_* macros and TraceSpan.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Empty `bounds` selects default_latency_bounds_us(). Bounds are fixed at
  /// first registration; later calls with different bounds get the original.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds = {});

  MetricsSnapshot snapshot() const;

  /// Lightweight gauge sweep for the flight-recorder counter sampler: the
  /// current value of every registered gauge, keyed by a pointer into the
  /// registry's own name storage (stable for the registry's lifetime, so
  /// ring events may hold it without copying).
  std::vector<std::pair<const char*, double>> sample_gauges() const;

  /// Zeroes every metric (registrations and cached references stay valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Records elapsed wall time (microseconds) into a histogram on destruction.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram& hist);
  ~ScopedTimerUs();
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram& hist_;
  std::uint64_t start_ns_;
};

}  // namespace mdl::obs

#define MDL_OBS_CONCAT_IMPL_(a, b) a##b
#define MDL_OBS_CONCAT_(a, b) MDL_OBS_CONCAT_IMPL_(a, b)

// Instrumentation macros: one-time registry lookup per site, then a relaxed
// atomic per hit. Under MDL_OBS_DISABLED they expand to nothing and their
// arguments are NOT evaluated.
#ifndef MDL_OBS_DISABLED

#define MDL_OBS_COUNTER_ADD(name, delta)                        \
  do {                                                          \
    static ::mdl::obs::Counter& mdl_obs_site_ =                 \
        ::mdl::obs::MetricsRegistry::global().counter(name);    \
    mdl_obs_site_.add(delta);                                   \
  } while (0)

#define MDL_OBS_GAUGE_SET(name, v)                              \
  do {                                                          \
    static ::mdl::obs::Gauge& mdl_obs_site_ =                   \
        ::mdl::obs::MetricsRegistry::global().gauge(name);      \
    mdl_obs_site_.set(v);                                       \
  } while (0)

#define MDL_OBS_GAUGE_ADD(name, delta)                          \
  do {                                                          \
    static ::mdl::obs::Gauge& mdl_obs_site_ =                   \
        ::mdl::obs::MetricsRegistry::global().gauge(name);      \
    mdl_obs_site_.add(delta);                                   \
  } while (0)

#define MDL_OBS_HISTOGRAM_OBSERVE(name, v)                      \
  do {                                                          \
    static ::mdl::obs::Histogram& mdl_obs_site_ =               \
        ::mdl::obs::MetricsRegistry::global().histogram(name);  \
    mdl_obs_site_.observe(v);                                   \
  } while (0)

/// Times the rest of the enclosing scope into histogram `name` (us).
#define MDL_OBS_TIMER_US(name)                                             \
  static ::mdl::obs::Histogram& MDL_OBS_CONCAT_(mdl_obs_hist_, __LINE__) = \
      ::mdl::obs::MetricsRegistry::global().histogram(name);               \
  ::mdl::obs::ScopedTimerUs MDL_OBS_CONCAT_(mdl_obs_timer_, __LINE__)(     \
      MDL_OBS_CONCAT_(mdl_obs_hist_, __LINE__))

#else  // MDL_OBS_DISABLED

#define MDL_OBS_COUNTER_ADD(name, delta) \
  do {                                   \
  } while (0)
#define MDL_OBS_GAUGE_SET(name, v) \
  do {                             \
  } while (0)
#define MDL_OBS_GAUGE_ADD(name, delta) \
  do {                                 \
  } while (0)
#define MDL_OBS_HISTOGRAM_OBSERVE(name, v) \
  do {                                     \
  } while (0)
#define MDL_OBS_TIMER_US(name) \
  do {                         \
  } while (0)

#endif  // MDL_OBS_DISABLED
