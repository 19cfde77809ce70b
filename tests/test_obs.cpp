#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/threadpool.hpp"
#include "json_reader.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_logger.hpp"
#include "obs/trace.hpp"

namespace mdl::obs {
namespace {

TEST(Counter, ConcurrentIncrementsFromManyThreads) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddAndConcurrentAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  Gauge depth;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&depth] {
      for (int i = 0; i < 1000; ++i) {
        depth.add(1.0);
        depth.add(-1.0);
      }
    });
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(depth.value(), 0.0);  // balanced ups and downs
}

TEST(Histogram, QuantilesMatchKnownUniformDistribution) {
  // Unit-width buckets over [0, 100): the empirical quantile of the uniform
  // sample 0.5, 1.5, ..., 99.5 is recoverable to within one bucket width.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(static_cast<double>(i));
  Histogram h(bounds);
  for (int i = 0; i < 100; ++i) h.observe(i + 0.5);

  EXPECT_EQ(h.count(), 100U);
  EXPECT_NEAR(h.sum(), 5000.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1.0);
}

TEST(Histogram, OverflowReportsLastFiniteBound) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1000.0);
  h.observe(2000.0);
  EXPECT_EQ(h.count(), 2U);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4U);  // three bounds + overflow
  EXPECT_EQ(buckets[3], 2U);
}

TEST(Histogram, EmptyQuantileIsZeroAndBoundsValidated) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
}

TEST(Histogram, ConcurrentObserve) {
  Histogram h(Histogram::exponential_bounds(1.0, 2.0, 16));
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&h] {
      for (int i = 0; i < 5000; ++i) h.observe(static_cast<double>(i % 100));
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), 20000U);
  std::uint64_t total = 0;
  for (const auto b : h.bucket_counts()) total += b;
  EXPECT_EQ(total, 20000U);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  MetricsRegistry registry;
  registry.counter("dual.name");
  EXPECT_THROW(registry.gauge("dual.name"), Error);
  EXPECT_THROW(registry.histogram("dual.name"), Error);
  // Same kind re-request returns the same object.
  Counter& a = registry.counter("dual.name");
  Counter& b = registry.counter("dual.name");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, SnapshotAndReset) {
  MetricsRegistry registry;
  registry.counter("b.count").add(3);
  registry.counter("a.count").add(1);
  registry.gauge("a.level").set(0.75);
  registry.histogram("a.lat_us").observe(5.0);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2U);
  EXPECT_EQ(snap.counters[0].name, "a.count");  // sorted by name
  EXPECT_EQ(snap.counters[1].value, 3U);
  ASSERT_EQ(snap.gauges.size(), 1U);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.75);
  ASSERT_EQ(snap.histograms.size(), 1U);
  EXPECT_EQ(snap.histograms[0].count, 1U);

  registry.reset();
  const MetricsSnapshot zero = registry.snapshot();
  EXPECT_EQ(zero.counters[1].value, 0U);
  EXPECT_DOUBLE_EQ(zero.gauges[0].value, 0.0);
  EXPECT_EQ(zero.histograms[0].count, 0U);
}

TEST(TraceSpan, NestingBuildsJoinedPaths) {
  MetricsRegistry registry;
  EXPECT_EQ(TraceSpan::depth(), 0U);
  {
    TraceSpan outer("outer", registry);
    EXPECT_EQ(TraceSpan::depth(), 1U);
    EXPECT_EQ(TraceSpan::current_path(), "outer");
    {
      TraceSpan inner("inner", registry);
      EXPECT_EQ(TraceSpan::depth(), 2U);
      EXPECT_EQ(TraceSpan::current_path(), "outer/inner");
    }
    EXPECT_EQ(TraceSpan::current_path(), "outer");
  }
  EXPECT_EQ(TraceSpan::depth(), 0U);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 2U);
  EXPECT_EQ(snap.histograms[0].name, "span.outer");
  EXPECT_EQ(snap.histograms[1].name, "span.outer/inner");
  EXPECT_EQ(snap.histograms[0].count, 1U);
  EXPECT_EQ(snap.histograms[1].count, 1U);
}

TEST(TraceSpan, ReentrantSpansAccumulateInOneHistogram) {
  MetricsRegistry registry;
  for (int i = 0; i < 5; ++i) TraceSpan span("loop", registry);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1U);
  EXPECT_EQ(snap.histograms[0].name, "span.loop");
  EXPECT_EQ(snap.histograms[0].count, 5U);
}

TEST(TraceSpan, PerThreadStacksAreIndependent) {
  MetricsRegistry registry;
  TraceSpan outer("main_thread", registry);
  std::thread other([&registry] {
    EXPECT_EQ(TraceSpan::depth(), 0U);  // does not see the main thread's span
    TraceSpan span("other_thread", registry);
    EXPECT_EQ(TraceSpan::current_path(), "other_thread");
  });
  other.join();
  EXPECT_EQ(TraceSpan::current_path(), "main_thread");
}

TEST(Json, NumberEncodingHandlesNonFinite) {
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(Json, NonFiniteEncodingBumpsHealthCounter) {
  if (!kEnabled)
    GTEST_SKIP() << "counter macro is a no-op under MDL_OBS_DISABLED";
  // Every non-finite value that degrades to JSON null is counted, so a log
  // full of nulls is traceable to a numerical-health problem.
  Counter& c =
      MetricsRegistry::global().counter("health.nonfinite_values");
  const std::uint64_t before = c.value();
  json_number(std::nan(""));
  json_number(-std::numeric_limits<double>::infinity());
  json_number(1.25);  // finite: not counted
  EXPECT_EQ(c.value(), before + 2);
}

TEST(Json, ParseRoundTripsEscapesAndTypes) {
  const Json v = Json::parse(
      R"({"s":"a\"b\n","n":-1.5,"t":true,"f":false,"z":null,"a":[1,2,3]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("s").as_string(), "a\"b\n");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), -1.5);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_TRUE(v.at("z").is_null());
  ASSERT_EQ(v.at("a").size(), 3U);
  EXPECT_DOUBLE_EQ(v.at("a").at(2).as_number(), 3.0);
  EXPECT_THROW(Json::parse("{broken"), Error);
}

TEST(RunLogger, RecordsRenderInInsertionOrderAndParseBack) {
  RunRecord r;
  r.add("experiment", "E0")
      .add("round", static_cast<std::int64_t>(3))
      .add("accuracy", 0.875)
      .add("converged", true)
      .add("epsilon", std::numeric_limits<double>::infinity());
  const std::string line = r.json();
  EXPECT_LT(line.find("\"experiment\""), line.find("\"round\""));
  const Json v = Json::parse(line);
  EXPECT_EQ(v.at("experiment").as_string(), "E0");
  EXPECT_DOUBLE_EQ(v.at("round").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v.at("accuracy").as_number(), 0.875);
  EXPECT_TRUE(v.at("converged").as_bool());
  EXPECT_TRUE(v.at("epsilon").is_null());  // inf has no JSON literal
}

TEST(RunLogger, DisabledWithoutSinkAndWritesOneLinePerRecord) {
  RunLogger logger;
  EXPECT_FALSE(logger.enabled());
  logger.log(RunRecord().add("k", 1));  // silently dropped

  std::ostringstream sink;
  logger.attach(&sink);
  EXPECT_TRUE(logger.enabled());
  logger.log(RunRecord().add("round", 1).add("acc", 0.5));
  logger.log(RunRecord().add("round", 2).add("acc", 0.75));
  logger.close();
  EXPECT_FALSE(logger.enabled());

  std::istringstream lines(sink.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    const Json v = Json::parse(line);
    EXPECT_DOUBLE_EQ(v.at("round").as_number(), static_cast<double>(n + 1));
    ++n;
  }
  EXPECT_EQ(n, 2);
}

// Wiring check: running pool work must advance the global registry when the
// build has instrumentation enabled, and must not register threadpool
// metrics when built with MDL_OBS_DISABLED.
TEST(ObsWiring, ThreadPoolExportsTaskMetrics) {
  auto count_of = [](const char* name) -> std::uint64_t {
    for (const auto& c : MetricsRegistry::global().snapshot().counters)
      if (c.name == name) return c.value;
    return 0;
  };
  const std::uint64_t before = count_of("threadpool.tasks_completed");
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 10; ++i) futs.push_back(pool.submit([] {}));
    for (auto& f : futs) f.get();
  }
  const std::uint64_t after = count_of("threadpool.tasks_completed");
  if (kEnabled) {
    EXPECT_GE(after, before + 10);
  } else {
    EXPECT_EQ(after, 0U);  // site compiled to a no-op, metric never registered
  }
}

}  // namespace
}  // namespace mdl::obs
