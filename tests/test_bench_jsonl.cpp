// End-to-end check of the bench JSONL contract: run one real bench binary
// with --json and verify every emitted line parses as a JSON object carrying
// the shared record fields. E11 (tab_mobile_inference) is used because it is
// analytic (cost model only) and finishes in milliseconds.
//
// MDL_BENCH_E11_PATH is injected by tests/CMakeLists.txt when the bench
// target exists in this build; otherwise the test is skipped.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "json_reader.hpp"
#include "obs/metrics.hpp"

namespace mdl {
namespace {

TEST(BenchJsonl, MobileInferenceBenchEmitsValidRecords) {
#ifndef MDL_BENCH_E11_PATH
  GTEST_SKIP() << "bench binaries not built in this configuration";
#else
  const std::string out_path =
      ::testing::TempDir() + "mdl_bench_e11_records.jsonl";
  std::remove(out_path.c_str());
  const std::string cmd = std::string("MDL_QUICK=1 \"") + MDL_BENCH_E11_PATH +
                          "\" --json \"" + out_path + "\" > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(out_path);
  ASSERT_TRUE(in.is_open()) << "bench produced no JSONL file";
  std::string line;
  int total = 0, trials = 0, metrics = 0;
  while (std::getline(in, line)) {
    ++total;
    const obs::Json v = obs::Json::parse(line);  // throws on malformed JSON
    ASSERT_TRUE(v.is_object()) << line;
    ASSERT_TRUE(v.has("experiment")) << line;
    EXPECT_EQ(v.at("experiment").as_string(), "E11");
    ASSERT_TRUE(v.has("event")) << line;
    const std::string& event = v.at("event").as_string();
    if (event == "trial") {
      ++trials;
      EXPECT_TRUE(v.has("model"));
      EXPECT_GT(v.at("device_ms").as_number(), 0.0);
      EXPECT_GT(v.at("cloud_ms").as_number(), 0.0);
      EXPECT_GT(v.at("split_ms").as_number(), 0.0);
      EXPECT_TRUE(v.has("winner"));
    } else if (event == "metric") {
      ++metrics;
      EXPECT_TRUE(v.has("name"));
    }
  }
  std::remove(out_path.c_str());

  EXPECT_GT(total, 0);
  // 3 models x 5 uplinks + the embedded-sensor scenario.
  EXPECT_EQ(trials, 16);
  // The planner spans/counters land in the trailing metrics snapshot when
  // instrumentation is compiled in.
  if (obs::kEnabled) {
    EXPECT_GT(metrics, 0);
  }
#endif
}

}  // namespace
}  // namespace mdl
