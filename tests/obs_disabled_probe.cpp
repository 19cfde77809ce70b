// Compile-time kill-switch probe, built with -DMDL_OBS_DISABLED (see
// tests/CMakeLists.txt). Verifies the two halves of the contract in
// obs/metrics.hpp and obs/flight.hpp:
//
//   1. Every MDL_OBS_* instrumentation macro expands to nothing and its
//      arguments are NOT evaluated — an expression with a side effect
//      passed as a macro argument must leave the side-effect counter
//      untouched.
//   2. The classes stay fully functional: a FlightRecorder still accepts
//      direct emit() calls and still writes a valid Chrome-trace document,
//      so exporters and tooling work in disabled builds.
//
// Plain main() (no gtest): registered with ctest as obs_disabled_probe.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/flight.hpp"
#include "json_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef MDL_OBS_DISABLED
#error "obs_disabled_probe must be compiled with -DMDL_OBS_DISABLED"
#endif

static_assert(!mdl::obs::kEnabled,
              "obs::kEnabled must be false under MDL_OBS_DISABLED");

namespace {

int g_side_effects = 0;

// [[maybe_unused]]: when the macros correctly discard their arguments,
// nothing in this translation unit ever calls these.
[[maybe_unused]] const char* touched_name() {
  ++g_side_effects;
  return "probe.touched";
}

[[maybe_unused]] double touched_value() {
  ++g_side_effects;
  return 1.0;
}

[[maybe_unused]] std::uint64_t touched_track() {
  ++g_side_effects;
  return 7;
}

#define PROBE_CHECK(cond)                                             \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "obs_disabled_probe: FAILED %s (%s:%d)\n", \
                   #cond, __FILE__, __LINE__);                        \
      return EXIT_FAILURE;                                            \
    }                                                                 \
  } while (0)

}  // namespace

int main() {
  // 1. Macro arguments must not be evaluated.
  MDL_OBS_COUNTER_ADD(touched_name(), touched_value());
  MDL_OBS_GAUGE_SET(touched_name(), touched_value());
  MDL_OBS_GAUGE_ADD(touched_name(), touched_value());
  MDL_OBS_HISTOGRAM_OBSERVE(touched_name(), touched_value());
  MDL_OBS_RING_EVENT(::mdl::obs::EventType::kInstant, touched_name(),
                     touched_track());
  MDL_OBS_RING_BEGIN(touched_name(), touched_track());
  MDL_OBS_RING_END(touched_name(), touched_track());
  MDL_OBS_ASYNC_BEGIN(touched_name(), touched_track());
  MDL_OBS_ASYNC_END(touched_name(), touched_track());
  MDL_OBS_INSTANT(touched_name(), touched_track());
  MDL_OBS_COUNTER_SAMPLE(touched_name(), touched_value());
  MDL_OBS_SPAN(touched_name());
  MDL_OBS_SPAN_T(touched_name(), touched_track());
  PROBE_CHECK(g_side_effects == 0);

  // No macro registered anything: the global registry stays empty.
  const mdl::obs::MetricsSnapshot snap =
      mdl::obs::MetricsRegistry::global().snapshot();
  PROBE_CHECK(snap.counters.empty());
  PROBE_CHECK(snap.gauges.empty());
  PROBE_CHECK(snap.histograms.empty());

  // 2. The classes themselves keep working (exporters must not need a
  //    recompile): direct emit() records, and the Chrome-trace export is
  //    valid JSON with the expected document shape.
  mdl::obs::FlightRecorder recorder(16);
  recorder.emit(mdl::obs::EventType::kInstant, "probe.direct", 3);
  PROBE_CHECK(recorder.retained() == 1);

  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const mdl::obs::Json doc = mdl::obs::Json::parse(out.str());
  PROBE_CHECK(doc.is_object());
  PROBE_CHECK(doc.has("traceEvents"));
  PROBE_CHECK(doc.at("traceEvents").size() == 1);
  PROBE_CHECK(doc.at("traceEvents").at(0).at("name").as_string() ==
              "probe.direct");

  // TraceSpan as a class (not via macro) still records its histogram.
  mdl::obs::MetricsRegistry registry;
  { mdl::obs::TraceSpan span("probe_span", registry); }
  PROBE_CHECK(registry.histogram("span.probe_span").count() == 1);

  std::printf("obs_disabled_probe OK: macros inert, classes functional\n");
  return EXIT_SUCCESS;
}
