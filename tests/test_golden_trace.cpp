// Golden-trace regression tests (ctest label: golden).
//
// Fixed-seed MDL_QUICK runs of the fig2 (federated communication) and fig4
// (DeepMood fusion) benches are compared line-by-line against committed
// JSONL traces under tests/golden/. The comparator is tolerance-aware:
//   - records with event == "metric" are skipped entirely (they carry
//     wall-clock timings and environment-dependent counters), as are
//     "build_info" provenance records (per-commit git SHA);
//   - timing/environment keys (wall_s, wall_s_per_round, threads) are
//     dropped from every record;
//   - integral numbers, strings and bools must match exactly;
//   - fractional numbers (accuracies, losses, simulated seconds/joules)
//     match within rel 1e-4 / abs 1e-6 — loose enough for libm drift
//     across toolchains, tight enough to flag any behavioural change.
//
// Regenerating after an intentional behaviour change:
//   scripts/regen_golden.sh        (or see DESIGN.md §Testing strategy)
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "json_reader.hpp"

namespace mdl {
namespace {

// rss fields are machine-dependent resident-set sizes (bench::add_rss).
const char* const kIgnoredKeys[] = {"wall_s", "wall_s_per_round", "threads",
                                    "rss_bytes", "peak_rss_bytes"};

bool ignored_key(const std::string& key) {
  for (const char* k : kIgnoredKeys)
    if (key == k) return true;
  return false;
}

bool numbers_match(double a, double b) {
  const bool integral_a = std::nearbyint(a) == a;
  const bool integral_b = std::nearbyint(b) == b;
  if (integral_a && integral_b) return a == b;
  return std::fabs(a - b) <= 1e-6 + 1e-4 * std::max(std::fabs(a),
                                                    std::fabs(b));
}

void expect_values_match(const obs::Json& got, const obs::Json& want,
                         const std::string& context);

void expect_objects_match(const obs::Json& got, const obs::Json& want,
                          const std::string& context) {
  for (const auto& [key, want_value] : want.items()) {
    if (ignored_key(key)) continue;
    ASSERT_TRUE(got.has(key)) << context << ": missing key `" << key << "`";
    expect_values_match(got.at(key), want_value, context + "." + key);
  }
  for (const auto& [key, got_value] : got.items()) {
    (void)got_value;
    if (ignored_key(key)) continue;
    EXPECT_TRUE(want.has(key))
        << context << ": unexpected new key `" << key << "`";
  }
}

void expect_values_match(const obs::Json& got, const obs::Json& want,
                         const std::string& context) {
  ASSERT_EQ(static_cast<int>(got.kind()), static_cast<int>(want.kind()))
      << context << ": kind mismatch";
  switch (want.kind()) {
    case obs::Json::Kind::kNull:
      break;
    case obs::Json::Kind::kBool:
      EXPECT_EQ(got.as_bool(), want.as_bool()) << context;
      break;
    case obs::Json::Kind::kNumber:
      EXPECT_TRUE(numbers_match(got.as_number(), want.as_number()))
          << context << ": got " << got.as_number() << ", golden "
          << want.as_number();
      break;
    case obs::Json::Kind::kString:
      EXPECT_EQ(got.as_string(), want.as_string()) << context;
      break;
    case obs::Json::Kind::kArray: {
      ASSERT_EQ(got.size(), want.size()) << context << ": array length";
      for (std::size_t i = 0; i < want.size(); ++i)
        expect_values_match(got.at(i), want.at(i),
                            context + "[" + std::to_string(i) + "]");
      break;
    }
    case obs::Json::Kind::kObject:
      expect_objects_match(got, want, context);
      break;
  }
}

/// Loads a JSONL file, dropping the timing-laden metric snapshot records.
std::vector<obs::Json> load_comparable_records(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::vector<obs::Json> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::Json v = obs::Json::parse(line);
    EXPECT_TRUE(v.is_object()) << line;
    if (v.has("event") && (v.at("event").as_string() == "metric" ||
                           v.at("event").as_string() == "build_info"))
      continue;
    records.push_back(std::move(v));
  }
  return records;
}

void run_golden_check(const std::string& bench_path,
                      const std::string& golden_path,
                      const std::string& tag) {
  const std::string out_path =
      ::testing::TempDir() + "mdl_golden_" + tag + ".jsonl";
  std::remove(out_path.c_str());
  // Goldens are pinned to the scalar blocked suite: the canonical
  // ascending-k chain is stable across machines, while the AVX2 default
  // (fma contraction) is only ULP-close and would drift the recorded
  // floats on CPUs where the probe picks kSimd.
  const std::string cmd = std::string("MDL_QUICK=1 MDL_GEMM=blocked \"") +
                          bench_path + "\" --json \"" + out_path +
                          "\" > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::vector<obs::Json> got = load_comparable_records(out_path);
  const std::vector<obs::Json> want = load_comparable_records(golden_path);
  ASSERT_GT(want.size(), 0U) << "empty golden trace " << golden_path;
  ASSERT_EQ(got.size(), want.size())
      << tag << ": record count drifted from golden";
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_values_match(got[i], want[i],
                        tag + " record " + std::to_string(i));
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
  std::remove(out_path.c_str());
}

TEST(GoldenTrace, Fig2FedavgCommunicationQuick) {
#if !defined(MDL_BENCH_FIG2_PATH) || !defined(MDL_GOLDEN_DIR)
  GTEST_SKIP() << "bench binaries not built in this configuration";
#else
  run_golden_check(MDL_BENCH_FIG2_PATH,
                   std::string(MDL_GOLDEN_DIR) + "/fig2_quick.jsonl", "fig2");
#endif
}

TEST(GoldenTrace, Fig4DeepmoodFusionQuick) {
#if !defined(MDL_BENCH_FIG4_PATH) || !defined(MDL_GOLDEN_DIR)
  GTEST_SKIP() << "bench binaries not built in this configuration";
#else
  run_golden_check(MDL_BENCH_FIG4_PATH,
                   std::string(MDL_GOLDEN_DIR) + "/fig4_quick.jsonl", "fig4");
#endif
}

// The comparator itself must catch perturbations (this is what the golden
// label buys over "the bench ran"): a fractional drift above tolerance or
// an integer off-by-one fails, timing keys and metric records do not.
TEST(GoldenTrace, ComparatorFlagsPerturbations) {
  const obs::Json want = obs::Json::parse(
      R"({"event":"trial","accuracy":0.9,"rounds":7,"wall_s":1.0})");
  const obs::Json same = obs::Json::parse(
      R"({"event":"trial","accuracy":0.90000002,"rounds":7,"wall_s":9.9})");
  expect_values_match(same, want, "tolerant");
  EXPECT_FALSE(::testing::Test::HasFailure());

  const obs::Json drifted = obs::Json::parse(
      R"({"event":"trial","accuracy":0.91,"rounds":7,"wall_s":1.0})");
  const obs::Json off_by_one = obs::Json::parse(
      R"({"event":"trial","accuracy":0.9,"rounds":8,"wall_s":1.0})");
  EXPECT_NONFATAL_FAILURE(expect_values_match(drifted, want, "drift"),
                          "drift.accuracy");
  EXPECT_NONFATAL_FAILURE(expect_values_match(off_by_one, want, "int"),
                          "int.rounds");
}

}  // namespace
}  // namespace mdl
