// Shared helpers for the experiment benches (bench/README in DESIGN.md).
//
// Besides the banner and MDL_QUICK workload scaling, every bench can emit
// one machine-readable JSONL record per round/trial through an
// obs::RunLogger. The sink is selected by `--json <path>` on the command
// line or the MDL_JSON_OUT environment variable (the flag wins); with
// neither, logging is a no-op and benches print only their usual tables.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "ckpt/checkpoint.hpp"
#include "core/gemm.hpp"
#include "core/threadpool.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/run_logger.hpp"

namespace mdl::bench {

/// Version of the bench JSONL record layout, stamped on every record so
/// downstream tooling can detect incompatible dumps. Bump when renaming or
/// re-typing fields that scripts/plots consume.
inline constexpr int kJsonlSchemaVersion = 2;

/// Build provenance baked in by bench/CMakeLists.txt; "unknown"/"" outside
/// a bench target (e.g. when a test includes this header directly).
#ifndef MDL_BUILD_GIT_SHA
#define MDL_BUILD_GIT_SHA "unknown"
#endif
#ifndef MDL_BUILD_TYPE
#define MDL_BUILD_TYPE ""
#endif
#ifndef MDL_BUILD_SANITIZE
#define MDL_BUILD_SANITIZE ""
#endif

namespace detail {

inline std::string& experiment_id() {
  static std::string id;
  return id;
}

inline obs::RunLogger& logger() {
  static obs::RunLogger instance;
  return instance;
}

/// Emits the one-shot "build_info" record as soon as both the sink and the
/// experiment id exist. Benches call banner()/init_logging() in either
/// order, so both call this.
inline void maybe_log_build_info();

}  // namespace detail

/// Banner printed at the top of every experiment bench. Also registers
/// `experiment_id` as the "experiment" field of every JSONL record and, when
/// a JSONL sink is active, writes one "build_info" provenance record (commit,
/// build type, sanitizers, thread count) so every dump is self-describing.
/// Call after init_logging().
inline void banner(const std::string& experiment_id,
                   const std::string& paper_artifact,
                   const std::string& description);

/// Enables JSONL output when `--json <path>` was passed or MDL_JSON_OUT is
/// set. Call once at the top of main(); safe to skip (logging stays off).
inline void init_logging(int argc, char** argv) {
  std::string path;
  if (const char* env = std::getenv("MDL_JSON_OUT")) path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc)
      path = argv[i + 1];
  }
  if (!path.empty()) detail::logger().open(path);
  // Touch the global flight recorder so MDL_TRACE_OUT's at-exit dump is
  // armed even if nothing emits — in particular under MDL_OBS_DISABLED,
  // where the emit macros are no-ops but a requested trace file must
  // still appear (valid and empty).
  obs::FlightRecorder::global();
  detail::maybe_log_build_info();
}

/// True when a JSONL sink is active.
inline bool json_enabled() { return detail::logger().enabled(); }

/// Checkpoint/resume knobs shared by the training benches:
///   --checkpoint-dir <dir>   periodic crash-safe checkpoints under <dir>
///   --resume                 restore the newest verifiable checkpoint first
/// Benches that run several trials should checkpoint each into its own
/// subdirectory (see with_subdir).
struct CheckpointArgs {
  std::string dir;     ///< empty = checkpointing disabled
  bool resume = false;
};

inline CheckpointArgs parse_checkpoint_args(int argc, char** argv) {
  CheckpointArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--checkpoint-dir" && i + 1 < argc) args.dir = argv[i + 1];
    if (arg == "--resume") args.resume = true;
  }
  return args;
}

/// Per-trial checkpoint config: <dir>/<subdir>, disabled when no --checkpoint-dir.
inline ckpt::CheckpointConfig with_subdir(const CheckpointArgs& args,
                                          const std::string& subdir) {
  ckpt::CheckpointConfig cfg;
  if (!args.dir.empty()) {
    cfg.dir = args.dir + "/" + subdir;
    cfg.resume = args.resume;
  }
  return cfg;
}

/// Starts a record pre-populated with the experiment id, event name
/// ("round", "trial", ...), and the JSONL schema version. Add fields, then
/// pass to log().
inline obs::RunRecord record(const std::string& event) {
  obs::RunRecord r;
  r.add("experiment", detail::experiment_id())
      .add("event", event)
      .add("schema_version", kJsonlSchemaVersion);
  return r;
}

/// Writes one JSONL line (no-op without a sink).
inline void log(const obs::RunRecord& r) { detail::logger().log(r); }

/// Stamps the process's current/peak resident-set size onto a record
/// (fig2's per-trial memory). The fields are machine-dependent, so the
/// golden comparator ignores them (tests/test_golden_trace.cpp).
inline obs::RunRecord& add_rss(obs::RunRecord& r) {
  return r
      .add("rss_bytes", static_cast<std::int64_t>(obs::current_rss_bytes()))
      .add("peak_rss_bytes",
           static_cast<std::int64_t>(obs::peak_rss_bytes()));
}

inline void banner(const std::string& experiment_id,
                   const std::string& paper_artifact,
                   const std::string& description) {
  detail::experiment_id() = experiment_id;
  obs::FlightRecorder::global();  // arm MDL_TRACE_OUT (see init_logging)
  std::cout << "==============================================================="
               "=\n"
            << experiment_id << " — " << paper_artifact << '\n'
            << description << '\n'
            << "==============================================================="
               "=\n\n";
  detail::maybe_log_build_info();
}

inline void detail::maybe_log_build_info() {
  static bool logged = false;
  if (logged || !json_enabled() || detail::experiment_id().empty()) return;
  logged = true;
  log(record("build_info")
          .add("git_sha", MDL_BUILD_GIT_SHA)
          .add("build_type", MDL_BUILD_TYPE)
          .add("sanitize", MDL_BUILD_SANITIZE)
          .add("threads", static_cast<std::int64_t>(shared_pool_threads()))
          .add("gemm_kernel", gemm::kernel_name())
          .add("obs_enabled", obs::kEnabled));
}

/// Dumps the global metrics registry as JSONL "metric" records — call at
/// the end of a bench so counters/histograms land next to the run records.
inline void log_metrics_snapshot() {
  if (!json_enabled()) return;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& c : snap.counters)
    log(record("metric").add("name", c.name).add("value", c.value));
  for (const auto& g : snap.gauges)
    log(record("metric").add("name", g.name).add("value", g.value));
  for (const auto& h : snap.histograms)
    log(record("metric")
            .add("name", h.name)
            .add("count", h.count)
            .add("sum", h.sum)
            .add("p50", h.p50)
            .add("p95", h.p95)
            .add("p99", h.p99));
}

/// True when MDL_QUICK is set: benches shrink workloads (used in CI smoke
/// runs); results keep their shape but with more variance.
inline bool quick_mode() { return std::getenv("MDL_QUICK") != nullptr; }

/// Scales a workload knob down in quick mode.
inline std::int64_t scaled(std::int64_t full, std::int64_t quick) {
  return quick_mode() ? quick : full;
}

}  // namespace mdl::bench
