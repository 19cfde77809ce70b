// mdl::obs flight-recorder tests.
//
// Covers the ring-buffer drop policy (oldest-first overwrite), concurrent
// writers against a draining reader (the suites are named Flight* so the
// TSan CI stage selects them), the Chrome trace-event JSON contract the
// exporter promises (validated by parsing the output back through
// obs::Json and checking the keys chrome://tracing requires), TraceSpan's
// ring emission riding next to its unchanged histogram path, and the
// counter sampler.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mdl::obs {
namespace {

TEST(FlightRing, RetainsEventsInEmissionOrder) {
  FlightRecorder rec(64);
  rec.emit(EventType::kBegin, "a", 7);
  rec.emit(EventType::kInstant, "b", 7, "n", 1.5);
  rec.emit(EventType::kEnd, "a", 7, nullptr, 0.0, "k", "v");

  const std::vector<TraceEvent> events = rec.drain_snapshot();
  ASSERT_EQ(events.size(), 3U);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].type, EventType::kBegin);
  EXPECT_EQ(events[0].track, 7U);
  EXPECT_STREQ(events[1].num_key, "n");
  EXPECT_DOUBLE_EQ(events[1].num_val, 1.5);
  EXPECT_STREQ(events[2].str_key, "k");
  EXPECT_STREQ(events[2].str_val, "v");
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
  EXPECT_EQ(rec.dropped_overwritten(), 0U);
}

TEST(FlightRing, WrapAroundKeepsNewestWindowInOrder) {
  static const char* kNames[] = {"e0", "e1", "e2", "e3", "e4",
                                 "e5", "e6", "e7", "e8", "e9"};
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.emit(EventType::kInstant, kNames[i], static_cast<std::uint64_t>(i));

  // Flight-recorder drop policy: oldest overwritten, newest 4 survive,
  // still in emission order.
  const std::vector<TraceEvent> events = rec.drain_snapshot();
  ASSERT_EQ(events.size(), 4U);
  for (int i = 0; i < 4; ++i) {
    EXPECT_STREQ(events[static_cast<std::size_t>(i)].name, kNames[6 + i]);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].track,
              static_cast<std::uint64_t>(6 + i));
  }
  EXPECT_EQ(rec.dropped_overwritten(), 6U);
  EXPECT_EQ(rec.retained(), 4U);
}

TEST(FlightRing, DisabledRecorderDropsEventsButExportsValidJson) {
  FlightRecorder rec(64);
  rec.set_enabled(false);
  rec.emit(EventType::kInstant, "ignored");
  EXPECT_EQ(rec.drain_snapshot().size(), 0U);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const Json doc = Json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  EXPECT_EQ(doc.at("traceEvents").size(), 0U);
}

TEST(FlightConcurrency, ParallelWritersAllEventsRetained) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  FlightRecorder rec(kPerThread * 2);  // per-thread rings: no overwrite
  static const char* kThreadNames[] = {"t0", "t1", "t2", "t3"};

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      rec.set_thread_label(kThreadNames[t]);
      for (int i = 0; i < kPerThread; ++i)
        rec.emit(EventType::kInstant, kThreadNames[t],
                 static_cast<std::uint64_t>(i));
    });
  }
  for (auto& w : writers) w.join();

  const std::vector<TraceEvent> events = rec.drain_snapshot();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.dropped_overwritten(), 0U);
  // Per-writer order survives the merge: each thread's tracks ascend.
  for (int t = 0; t < kThreads; ++t) {
    std::uint64_t prev = 0;
    bool first = true;
    for (const TraceEvent& e : events) {
      if (std::string(e.name) != kThreadNames[t]) continue;
      if (!first) {
        EXPECT_GT(e.track, prev);
      }
      prev = e.track;
      first = false;
    }
  }
}

TEST(FlightConcurrency, DrainRacesWritersWithoutCorruption) {
  FlightRecorder rec(256);
  std::vector<std::thread> writers;
  writers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&rec] {
      for (int i = 0; i < 2000; ++i)
        rec.emit(EventType::kInstant, "race", static_cast<std::uint64_t>(i));
    });
  }
  // Concurrent drains: writers hitting a drain window drop (and count)
  // their events instead of racing the reader.
  for (int d = 0; d < 20; ++d) {
    const std::vector<TraceEvent> events = rec.drain_snapshot();
    for (const TraceEvent& e : events) EXPECT_STREQ(e.name, "race");
  }
  for (auto& w : writers) w.join();
  const std::vector<TraceEvent> events = rec.drain_snapshot();
  EXPECT_LE(events.size(), 2U * 256U);
}

TEST(FlightExport, ChromeTraceSatisfiesRequiredKeySchema) {
  FlightRecorder rec(64);
  rec.set_thread_label("main.test");
  rec.emit(EventType::kBegin, "stage.load", 3);
  rec.emit(EventType::kEnd, "stage.load", 3);
  rec.emit(EventType::kAsyncBegin, "serve.request", 0x2A);
  rec.emit(EventType::kAsyncEnd, "serve.request", 0x2A);
  rec.emit(EventType::kInstant, "serve.shed", 0x2A, "waited_us", 12.0,
           "reason", "deadline");
  rec.emit(EventType::kCounter, "serve.queue_depth", 0, "value", 5.0);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const Json doc = Json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 7U);  // 6 events + thread_name metadata

  std::set<std::string> phases;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    ASSERT_TRUE(e.has("name") && e.has("ph") && e.has("pid") && e.has("tid"))
        << out.str();
    const std::string ph = e.at("ph").as_string();
    phases.insert(ph);
    if (ph != "M") {
      ASSERT_TRUE(e.has("ts"));
    }
    if (ph == "b" || ph == "e") {
      // Chrome matches async pairs on cat+id; both are mandatory.
      ASSERT_TRUE(e.has("cat") && e.has("id"));
      EXPECT_EQ(e.at("id").as_string(), "0x2a");
      EXPECT_EQ(e.at("cat").as_string(), "serve");
    }
    if (ph == "M") {
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      EXPECT_EQ(e.at("args").at("name").as_string(), "main.test");
    }
    if (ph == "i") {
      EXPECT_EQ(e.at("args").at("reason").as_string(), "deadline");
    }
    if (ph == "C") {
      EXPECT_DOUBLE_EQ(e.at("args").at("value").as_number(), 5.0);
    }
  }
  EXPECT_EQ(phases,
            (std::set<std::string>{"B", "E", "b", "e", "i", "C", "M"}));
}

TEST(FlightSpan, TraceSpanFeedsRingAndHistogramTogether) {
  FlightRecorder& rec = FlightRecorder::global();
  rec.set_enabled(true);
  MetricsRegistry registry;
  const std::uint64_t track = track_round_client(3, 12);
  const std::uint64_t count_before =
      registry.histogram("span.flight_span_probe").count();
  rec.drain_snapshot();  // not relied upon; keeps the ring small
  { TraceSpan span("flight_span_probe", registry, track); }

  // Histogram path unchanged (v1 contract)...
  EXPECT_EQ(registry.histogram("span.flight_span_probe").count(),
            count_before + 1);
  // ...and the same site now lands a kBegin/kEnd pair on the track.
  int begin = 0, end = 0;
  for (const TraceEvent& e : rec.drain_snapshot()) {
    if (e.track != track) continue;
    if (std::string(e.name) != "flight_span_probe") continue;
    begin += e.type == EventType::kBegin;
    end += e.type == EventType::kEnd;
  }
  EXPECT_EQ(begin, 1);
  EXPECT_EQ(end, 1);
}

TEST(FlightTrack, RoundClientEncodingRoundTrips) {
  EXPECT_EQ(track_round_client(0, 0), 0U);
  EXPECT_EQ(track_round_client(1, 2), (1ULL << 32) | 2ULL);
  EXPECT_EQ(track_round(5), (5ULL << 32) | 0xFFFFFFFFULL);
  // Distinct (round, client) pairs never collide in 64 bits.
  EXPECT_NE(track_round_client(2, 3), track_round_client(3, 2));
  EXPECT_NE(track_round_client(7, 0xFFFFFFFF), track_round(6));
}

TEST(FlightSampler, SweepsGaugesIntoCounterEvents) {
  FlightRecorder& rec = FlightRecorder::global();
  rec.set_enabled(true);
  MetricsRegistry::global().gauge("flight_sampler_probe").set(42.0);
  rec.drain_snapshot();

  CounterSampler sampler(200);  // 0.2ms period
  while (sampler.ticks() == 0) std::this_thread::yield();
  sampler.stop();
  EXPECT_GE(sampler.ticks(), 1U);

  bool saw_probe = false;
  for (const TraceEvent& e : rec.drain_snapshot()) {
    if (e.type != EventType::kCounter) continue;
    if (std::string(e.name) == "flight_sampler_probe") {
      saw_probe = true;
      EXPECT_DOUBLE_EQ(e.num_val, 42.0);
    }
  }
  EXPECT_TRUE(saw_probe);
}

TEST(FlightSampler, StopIsIdempotent) {
  CounterSampler sampler(1000);
  sampler.stop();
  sampler.stop();  // second stop must not hang or crash
}

}  // namespace
}  // namespace mdl::obs
