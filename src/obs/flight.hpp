// mdl::obs v2 — the flight recorder: always-on, low-overhead per-event
// tracing into per-thread ring buffers, exported as Chrome trace-event JSON
// (loadable in chrome://tracing or https://ui.perfetto.dev).
//
// Design:
//   - Every thread that emits gets its own fixed-capacity ring of 64-byte
//     TraceEvents. The hot path is: one relaxed enabled check, a
//     busy/draining handshake (two seq_cst atomic ops), a slot write, and a
//     head increment — no locks, no allocation after the first event.
//   - Rings overwrite oldest-first when full (flight-recorder drop policy:
//     the newest window of events always survives; a wrapped ring may leave
//     unmatched begin/end events at the seam, which the exporter and
//     scripts/trace_report.py tolerate).
//   - dump() excludes writers with a Dekker-style handshake (writers set a
//     per-ring `busy` flag before checking the global `draining` flag), so
//     a dump taken while other threads trace is race-free; events emitted
//     during the dump are dropped and counted.
//   - Event `name` / arg-key / arg-string fields are stored as `const
//     char*` and must point at string literals or other process-lifetime
//     storage (metric registry keys qualify; stack buffers do not).
//
// Dump triggers:
//   - FlightRecorder::global().dump_to_file(path)    — on demand;
//   - MDL_TRACE_OUT=<path> in the environment        — dump at exit;
//   - install_crash_handler(path)                    — dump from a fatal
//     signal (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL), then re-raise. The
//     ckpt::TrainerGuard arms this next to its checkpoint directory so a
//     crash leaves a readable timeline beside the `ckpt.<round>` archives.
//
// Under -DMDL_OBS_DISABLED every MDL_OBS_RING_* / MDL_OBS_SPAN* macro
// compiles to nothing (arguments unevaluated); the classes stay functional
// so exporters and tests keep working and still emit valid (empty) traces.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mdl::obs {

enum class EventType : std::uint8_t {
  kBegin,       ///< thread-scoped span open  (Chrome "B")
  kEnd,         ///< thread-scoped span close (Chrome "E")
  kAsyncBegin,  ///< track-scoped span open   (Chrome "b", id = track)
  kAsyncEnd,    ///< track-scoped span close  (Chrome "e", id = track)
  kInstant,     ///< point event              (Chrome "i", thread scope)
  kCounter,     ///< sampled counter value    (Chrome "C")
};

/// One fixed-size trace event. `name`/`num_key`/`str_key`/`str_val` must
/// outlive the recorder (string literals / registry keys).
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< steady-clock ns since recorder start
  std::uint64_t track = 0;   ///< request id / (round<<32|client) / 0
  const char* name = nullptr;
  const char* num_key = nullptr;  ///< optional numeric arg key
  double num_val = 0.0;
  const char* str_key = nullptr;  ///< optional string arg key
  const char* str_val = nullptr;
  std::uint32_t tid = 0;  ///< registration index of the emitting thread
  EventType type = EventType::kInstant;
};

/// Encodes a (round, client) pair as one 64-bit track id, so federated
/// events group per simulated client in the exported trace.
constexpr std::uint64_t track_round_client(std::int64_t round,
                                           std::size_t client) {
  return (static_cast<std::uint64_t>(round) << 32) |
         (static_cast<std::uint64_t>(client) & 0xFFFFFFFFULL);
}
/// Track id for a whole round (client slot saturated).
constexpr std::uint64_t track_round(std::int64_t round) {
  return (static_cast<std::uint64_t>(round) << 32) | 0xFFFFFFFFULL;
}

class FlightRecorder {
 public:
  /// `capacity_per_thread` = events retained per emitting thread before
  /// oldest-first overwrite; 0 reads MDL_TRACE_RING_EVENTS (default 16384).
  explicit FlightRecorder(std::size_t capacity_per_thread = 0);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder used by the MDL_OBS_RING_* macros and TraceSpan.
  /// Never destroyed (dump-at-exit must outlive static teardown). On first
  /// use it reads MDL_TRACE_OUT and, when set, registers an at-exit dump
  /// and the fatal-signal crash handler for that path.
  static FlightRecorder& global();

  /// Records one event into the calling thread's ring. Near-free when
  /// disabled. `name` (and arg keys/values) must be process-lifetime
  /// strings. Thread-safe; wait-free against other writers.
  void emit(EventType type, const char* name, std::uint64_t track = 0,
            const char* num_key = nullptr, double num_val = 0.0,
            const char* str_key = nullptr, const char* str_val = nullptr);

  /// Runtime kill switch (the overhead bench A/Bs this). Events emitted
  /// while disabled are simply not recorded.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Labels the calling thread in the exported trace ("serve.executor",
  /// "obs.sampler", ...). Must be a process-lifetime string.
  void set_thread_label(const char* label);

  /// Copies out every retained event, oldest-first per thread, merged and
  /// sorted by timestamp. Excludes concurrent writers via the drain
  /// handshake; events emitted during the copy are dropped.
  std::vector<TraceEvent> drain_snapshot();

  /// Writes the full Chrome trace-event JSON document ({"traceEvents":[...]}).
  void write_chrome_trace(std::ostream& os);
  /// write_chrome_trace to `path` (throws mdl::Error on open failure).
  void dump_to_file(const std::string& path);

  /// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers that dump the
  /// global recorder to `path` (last call wins) and re-raise. Idempotent.
  static void install_crash_handler(const std::string& path);

  /// Events discarded because their thread's ring wrapped.
  std::uint64_t dropped_overwritten() const;
  /// Total events currently retained across all rings.
  std::size_t retained() const;
  std::size_t capacity_per_thread() const { return capacity_; }

  /// Steady-clock ns since this recorder was constructed (exported ts base).
  std::uint64_t now_ns() const;

 private:
  struct ThreadRing;
  ThreadRing* ring_for_this_thread();

  std::uint64_t id_ = 0;  ///< unique per recorder; keys the TLS ring cache
  std::size_t capacity_ = 0;
  std::uint64_t start_ns_ = 0;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> draining_{false};
  mutable std::mutex register_mu_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

}  // namespace mdl::obs

#ifndef MDL_OBS_DISABLED

/// Raw event into the global recorder: MDL_OBS_RING_EVENT(type, name,
/// track[, num_key, num_val[, str_key, str_val]]).
#define MDL_OBS_RING_EVENT(...) \
  ::mdl::obs::FlightRecorder::global().emit(__VA_ARGS__)

#define MDL_OBS_RING_BEGIN(name, track) \
  MDL_OBS_RING_EVENT(::mdl::obs::EventType::kBegin, name, track)
#define MDL_OBS_RING_END(name, track) \
  MDL_OBS_RING_EVENT(::mdl::obs::EventType::kEnd, name, track)
#define MDL_OBS_ASYNC_BEGIN(name, track) \
  MDL_OBS_RING_EVENT(::mdl::obs::EventType::kAsyncBegin, name, track)
#define MDL_OBS_ASYNC_END(name, track) \
  MDL_OBS_RING_EVENT(::mdl::obs::EventType::kAsyncEnd, name, track)
#define MDL_OBS_INSTANT(name, track) \
  MDL_OBS_RING_EVENT(::mdl::obs::EventType::kInstant, name, track)
#define MDL_OBS_COUNTER_SAMPLE(name, value)                          \
  MDL_OBS_RING_EVENT(::mdl::obs::EventType::kCounter, name, 0,       \
                     "value", static_cast<double>(value))

#else  // MDL_OBS_DISABLED

#define MDL_OBS_RING_EVENT(...) \
  do {                          \
  } while (0)
#define MDL_OBS_RING_BEGIN(name, track) \
  do {                                  \
  } while (0)
#define MDL_OBS_RING_END(name, track) \
  do {                                \
  } while (0)
#define MDL_OBS_ASYNC_BEGIN(name, track) \
  do {                                   \
  } while (0)
#define MDL_OBS_ASYNC_END(name, track) \
  do {                                 \
  } while (0)
#define MDL_OBS_INSTANT(name, track) \
  do {                               \
  } while (0)
#define MDL_OBS_COUNTER_SAMPLE(name, value) \
  do {                                      \
  } while (0)

#endif  // MDL_OBS_DISABLED
