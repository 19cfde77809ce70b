// perfbench — the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//
// Prints human-readable figures, a provenance line, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
// also writes <out-dir>/<workload>.layers.json (span self times) and
// <out-dir>/<workload>.trace.json (the flight-recorder dump). Exits 1 when an
// output check failed, 2 on bad usage or an exception.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "obs/flight.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

void write_layers(const Options& o, const Result& r,
                  const std::string& provenance) {
  const std::filesystem::path dir(o.out_dir);
  std::ofstream out(dir / (o.workload + ".layers.json"));
  out << "{\"provenance\": " << provenance << ",\n \"explained_pct\": "
      << r.values.at("trace.explained_pct")
      << ", \"trace_overhead_pct\": " << r.values.at("obs.trace_overhead_pct")
      << ",\n \"layers\": [";
  bool first = true;
  for (const auto& [name, lt] : layer_totals()) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \"" << name
        << "\", \"calls\": " << lt.calls << ", \"total_us\": " << lt.total_us
        << ", \"self_us\": " << lt.self_us
        << ", \"p50_us\": " << percentile(lt.samples_us, 0.5) << '}';
    first = false;
  }
  out << "\n]}\n";
  mdl::obs::FlightRecorder::global().dump_to_file(
      (dir / (o.workload + ".trace.json")).string());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.process_start = Clock::now();
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      if (i + 1 >= argc) return usage("missing value for " + std::string(arg));
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = value != "0";
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else if (arg == "--git-sha") {
        git_sha = value;
      } else {
        return usage("unknown argument " + std::string(arg));
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric argument");
  }
  if (!have_workload || !have_seed || !(o.seconds > 0.0))
    return usage("--workload, --seed and a positive --seconds are required");

  try {
    std::filesystem::create_directories(o.out_dir);
    host_steal_pct();
    Result r = run_workload(o);
    const std::string prov = provenance_json(o.workload, o.seed, git_sha,
                                             o.trace, host_steal_pct());
    for (const auto& [name, value] : r.notes)
      std::cout << "  " << name << " = " << value << '\n';
    std::cout << "  failed_frac = "
              << static_cast<double>(r.failed) /
                     static_cast<double>(std::max<std::int64_t>(r.attempted, 1))
              << " (" << r.failed << " of " << r.attempted << ")\n";
    if (o.trace) write_layers(o, r, prov);
    std::cout << "provenance " << prov << '\n';
    for (const std::string& f : r.failures)
      std::cout << "CHECK FAILED: " << f << '\n';
    print_result_json(std::cout, r,
                      o.trace ? per_layer_metrics() : end_to_end_metrics());
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << '\n';
    return 2;
  }
}
