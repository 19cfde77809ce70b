#include "obs/flight.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <thread>

#include "core/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mdl::obs {

namespace {

/// TLS ring cache: one entry per recorder this thread has emitted into.
/// Keyed by a process-unique recorder id so a destroyed (test) recorder can
/// never be confused with a later one at the same address.
struct TlsSlot {
  std::uint64_t recorder_id = 0;
  void* ring = nullptr;
};
thread_local std::vector<TlsSlot> t_ring_cache;

std::atomic<std::uint64_t> g_next_recorder_id{1};

/// Set while a fatal-signal dump is in progress: drain becomes fully
/// best-effort (bounded spins, try-lock) because the process is dying.
std::atomic<bool> g_in_crash{false};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t capacity_from_env() {
  if (const char* env = std::getenv("MDL_TRACE_RING_EVENTS")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v > 0) return std::max<std::size_t>(8, static_cast<std::size_t>(v));
  }
  return 16384;  // ~1 MiB of 64-byte events per emitting thread
}

const char* phase_of(EventType t) {
  switch (t) {
    case EventType::kBegin: return "B";
    case EventType::kEnd: return "E";
    case EventType::kAsyncBegin: return "b";
    case EventType::kAsyncEnd: return "e";
    case EventType::kInstant: return "i";
    case EventType::kCounter: return "C";
  }
  return "i";
}

/// Chrome "cat" field: the subsystem prefix of the event name ("serve.queue"
/// -> "serve"). Async begin/end match on (cat, id), so all of one request's
/// spans group under its request-id track.
std::string cat_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? "mdl" : s.substr(0, dot);
}

std::string hex_id(std::uint64_t v) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void render_event(const TraceEvent& e, std::ostream& os) {
  const bool async =
      e.type == EventType::kAsyncBegin || e.type == EventType::kAsyncEnd;
  os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
     << cat_of(e.name) << "\",\"ph\":\"" << phase_of(e.type)
     << "\",\"ts\":" << json_number(static_cast<double>(e.ts_ns) / 1e3)
     << ",\"pid\":1,\"tid\":" << e.tid;
  if (async) os << ",\"id\":\"" << hex_id(e.track) << "\"";
  if (e.type == EventType::kInstant) os << ",\"s\":\"t\"";

  std::string args;
  const auto key = [&args](const std::string& k) {
    if (!args.empty()) args += ',';
    args += '"';
    args += json_escape(k);
    args += "\":";
  };
  const auto str_value = [&args](const std::string& v) {
    args += '"';
    args += json_escape(v);
    args += '"';
  };
  if (e.type == EventType::kCounter) {
    key(e.num_key != nullptr ? e.num_key : "value");
    args += json_number(e.num_val);
  } else {
    if (!async && e.track != 0) {
      key("track");
      str_value(hex_id(e.track));
    }
    if (e.num_key != nullptr) {
      key(e.num_key);
      args += json_number(e.num_val);
    }
    if (e.str_key != nullptr && e.str_val != nullptr) {
      key(e.str_key);
      str_value(e.str_val);
    }
  }
  if (!args.empty()) os << ",\"args\":{" << args << "}";
  os << "}";
}

}  // namespace

struct FlightRecorder::ThreadRing {
  ThreadRing(std::size_t capacity, std::uint32_t tid_)
      : slots(capacity), tid(tid_) {}

  std::vector<TraceEvent> slots;
  /// Total events ever written; slot index is head % capacity. The release
  /// store in emit() publishes the slot write to drain_snapshot().
  std::atomic<std::uint64_t> head{0};
  /// Drain handshake flag: set (seq_cst) around the slot write so a dump
  /// never reads a half-written event.
  std::atomic<int> busy{0};
  std::atomic<const char*> label{nullptr};
  std::uint32_t tid = 0;
};

FlightRecorder::FlightRecorder(std::size_t capacity_per_thread)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity_per_thread > 0 ? capacity_per_thread
                                        : capacity_from_env()),
      start_ns_(steady_now_ns()) {}

FlightRecorder::~FlightRecorder() = default;

std::uint64_t FlightRecorder::now_ns() const {
  return steady_now_ns() - start_ns_;
}

FlightRecorder::ThreadRing* FlightRecorder::ring_for_this_thread() {
  for (const TlsSlot& slot : t_ring_cache)
    if (slot.recorder_id == id_)
      return static_cast<ThreadRing*>(slot.ring);
  std::lock_guard lock(register_mu_);
  rings_.push_back(std::make_unique<ThreadRing>(
      capacity_, static_cast<std::uint32_t>(rings_.size())));
  ThreadRing* ring = rings_.back().get();
  t_ring_cache.push_back({id_, ring});
  return ring;
}

void FlightRecorder::emit(EventType type, const char* name,
                          std::uint64_t track, const char* num_key,
                          double num_val, const char* str_key,
                          const char* str_val) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  MDL_CHECK(name != nullptr && *name != '\0',
            "trace event name must be non-empty");
  ThreadRing* ring = ring_for_this_thread();

  // Dekker-style handshake with drain_snapshot(): announce the write first,
  // then check for an in-progress dump. Either the dumper's draining store
  // is ordered before our busy store (we see it and drop the event), or our
  // busy store is first (the dumper waits for busy == 0, which we only
  // store after the slot write completes).
  ring->busy.store(1, std::memory_order_seq_cst);
  if (draining_.load(std::memory_order_seq_cst)) {
    ring->busy.store(0, std::memory_order_release);
    return;
  }
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  TraceEvent& e = ring->slots[head % capacity_];
  e.ts_ns = now_ns();
  e.track = track;
  e.name = name;
  e.num_key = num_key;
  e.num_val = num_val;
  e.str_key = str_key;
  e.str_val = str_val;
  e.tid = ring->tid;
  e.type = type;
  ring->head.store(head + 1, std::memory_order_release);
  ring->busy.store(0, std::memory_order_release);
}

void FlightRecorder::set_thread_label(const char* label) {
  ring_for_this_thread()->label.store(label, std::memory_order_relaxed);
}

std::vector<TraceEvent> FlightRecorder::drain_snapshot() {
  std::vector<TraceEvent> out;
  draining_.store(true, std::memory_order_seq_cst);

  std::unique_lock lock(register_mu_, std::defer_lock);
  if (!lock.try_lock()) {
    // A crashing thread may hold the registration mutex; a crash dump
    // proceeds best-effort rather than deadlocking.
    if (g_in_crash.load(std::memory_order_relaxed)) {
      draining_.store(false, std::memory_order_seq_cst);
      return out;
    }
    lock.lock();
  }
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    // Wait out a writer mid-slot. The critical section is a handful of
    // stores, so this resolves in nanoseconds; a crash dump gives up after
    // a bounded spin (reading a torn event is better than hanging).
    for (std::uint64_t spins = 0;
         ring->busy.load(std::memory_order_seq_cst) != 0; ++spins) {
      if (g_in_crash.load(std::memory_order_relaxed) && spins > 1000000)
        break;
      std::this_thread::yield();
    }
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min<std::uint64_t>(head, static_cast<std::uint64_t>(capacity_));
    out.reserve(out.size() + static_cast<std::size_t>(n));
    for (std::uint64_t i = head - n; i < head; ++i)
      out.push_back(ring->slots[i % capacity_]);
  }
  lock.unlock();
  draining_.store(false, std::memory_order_seq_cst);

  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

void FlightRecorder::write_chrome_trace(std::ostream& os) {
  const std::vector<TraceEvent> events = drain_snapshot();

  std::vector<std::pair<std::uint32_t, const char*>> labels;
  {
    std::unique_lock lock(register_mu_, std::defer_lock);
    if (lock.try_lock()) {
      for (const std::unique_ptr<ThreadRing>& ring : rings_) {
        const char* label = ring->label.load(std::memory_order_relaxed);
        if (label != nullptr) labels.emplace_back(ring->tid, label);
      }
    }
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, label] : labels) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << json_escape(label) << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    render_event(e, os);
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void FlightRecorder::dump_to_file(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  MDL_CHECK(out.is_open(), "cannot open trace output file " << path);
  write_chrome_trace(out);
}

std::uint64_t FlightRecorder::dropped_overwritten() const {
  std::uint64_t dropped = 0;
  std::lock_guard lock(register_mu_);
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > capacity_) dropped += head - capacity_;
  }
  return dropped;
}

std::size_t FlightRecorder::retained() const {
  std::size_t n = 0;
  std::lock_guard lock(register_mu_);
  for (const std::unique_ptr<ThreadRing>& ring : rings_)
    n += static_cast<std::size_t>(std::min<std::uint64_t>(
        ring->head.load(std::memory_order_relaxed), capacity_));
  return n;
}

namespace {

/// Crash/at-exit dump destinations. Leaked so they survive static teardown.
std::string* g_exit_dump_path = nullptr;
std::string* g_crash_dump_path = nullptr;

void dump_at_exit() {
  if (g_exit_dump_path == nullptr) return;
  try {
    FlightRecorder::global().dump_to_file(*g_exit_dump_path);
  } catch (...) {
    // An exit-time dump must never turn a clean exit into a failure.
  }
}

void crash_signal_handler(int sig) {
  static std::atomic<bool> dumping{false};
  bool expected = false;
  if (dumping.compare_exchange_strong(expected, true) &&
      g_crash_dump_path != nullptr) {
    g_in_crash.store(true, std::memory_order_relaxed);
    // Not async-signal-safe (allocates, does file I/O) — deliberately
    // best-effort: the process is already dying, and a partially written
    // timeline beats none. See DESIGN.md §Tracing.
    try {
      FlightRecorder::global().dump_to_file(*g_crash_dump_path);
    } catch (...) {
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void FlightRecorder::install_crash_handler(const std::string& path) {
  if (g_crash_dump_path == nullptr) g_crash_dump_path = new std::string;
  *g_crash_dump_path = path;
  static const bool installed = [] {
    for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
      std::signal(sig, crash_signal_handler);
    return true;
  }();
  (void)installed;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = [] {
    // Touch the metrics registry first: its names feed counter-sample
    // events, and constructing it before the atexit registration below
    // guarantees it is destroyed after the exit dump runs.
    MetricsRegistry::global();
    auto* recorder = new FlightRecorder();  // leaked: dumps outlive teardown
    if (const char* out = std::getenv("MDL_TRACE_OUT");
        out != nullptr && *out != '\0') {
      g_exit_dump_path = new std::string(out);
      std::atexit(dump_at_exit);
      install_crash_handler(*g_exit_dump_path);
    }
    return recorder;
  }();
  return *instance;
}

}  // namespace mdl::obs
