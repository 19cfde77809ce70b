#include "mobile/cost_model.hpp"

#include <gtest/gtest.h>

namespace mdl::mobile {
namespace {

InferencePlanner planner(NetworkModel net = NetworkModel::wifi()) {
  return {DeviceProfile::mobile_soc(), DeviceProfile::cloud_server(), net};
}

TEST(CostModel, OnDeviceArithmetic) {
  const auto p = planner();
  const CostEstimate c = p.on_device(2'000'000'000);  // 2 GFLOP
  // 2 GFLOP at 20 GFLOPS = 0.1 s; at 2.5 W = 0.25 J.
  EXPECT_NEAR(c.latency_s, 0.1, 1e-9);
  EXPECT_NEAR(c.device_energy_j, 0.25, 1e-9);
  EXPECT_EQ(c.bytes_up, 0U);
}

TEST(CostModel, CloudArithmetic) {
  NetworkModel net{10.0, 10.0, 0.02};
  const auto p = planner(net);
  const CostEstimate c = p.on_cloud(1'250'000, 4'000'000'000, 125'000);
  // Upload 1.25 MB at 10 Mbps = 1 s; download 0.1 s; server 1 ms; rtt 20 ms.
  EXPECT_NEAR(c.latency_s, 1.0 + 0.1 + 0.001 + 0.02, 1e-6);
  EXPECT_EQ(c.bytes_up, 1'250'000U);
  EXPECT_GT(c.device_energy_j, 0.0);
}

TEST(CostModel, SplitCombinesBothSides) {
  const auto p = planner();
  const CostEstimate c = p.split(100'000'000, 4'000, 2'000'000'000, 400);
  const CostEstimate local_only = p.on_device(100'000'000);
  EXPECT_GT(c.latency_s, local_only.latency_s);
  EXPECT_EQ(c.bytes_up, 4'000U);
}

TEST(CostModel, LowBandwidthFavorsOnDevice) {
  // §III trade-off: big input + slow network -> local wins; fast network +
  // heavy compute -> cloud wins.
  const std::int64_t flops = 500'000'000;      // 0.5 GFLOP model
  const std::uint64_t input_bytes = 2'000'000;  // 2 MB image

  const auto slow = planner(NetworkModel::cellular_3g());
  EXPECT_LT(slow.on_device(flops).latency_s,
            slow.on_cloud(input_bytes, flops, 100).latency_s);

  NetworkModel gigabit{1000.0, 1000.0, 0.005};
  const auto fast = planner(gigabit);
  EXPECT_GT(fast.on_device(flops).latency_s,
            fast.on_cloud(input_bytes, flops, 100).latency_s);
}

TEST(CostModel, SplitReducesUplinkVersusRaw) {
  const auto p = planner(NetworkModel::lte());
  const std::uint64_t raw = 1'000'000;
  const std::uint64_t rep = 32 * 4;  // 32-float representation
  const CostEstimate cloud = p.on_cloud(raw, 1'000'000'000, 100);
  const CostEstimate split = p.split(10'000'000, rep, 990'000'000, 100);
  EXPECT_LT(split.bytes_up, cloud.bytes_up);
  EXPECT_LT(split.latency_s, cloud.latency_s);
}

TEST(CostModel, TransferTimes) {
  NetworkModel net{8.0, 80.0, 0.0};
  EXPECT_NEAR(net.upload_time_s(1'000'000), 1.0, 1e-9);
  EXPECT_NEAR(net.download_time_s(1'000'000), 0.1, 1e-9);
  NetworkModel bad{0.0, 1.0, 0.0};
  EXPECT_THROW(bad.upload_time_s(1), Error);
}

TEST(CostModel, ProfilesSane) {
  const auto phone = DeviceProfile::mobile_soc();
  const auto server = DeviceProfile::cloud_server();
  const auto sensor = DeviceProfile::embedded_sensor();
  EXPECT_GT(server.effective_gflops, phone.effective_gflops);
  EXPECT_GT(phone.effective_gflops, sensor.effective_gflops);
  EXPECT_THROW(InferencePlanner({"x", 0.0, 1.0, 1.0, 0.1},
                                DeviceProfile::cloud_server(),
                                NetworkModel::wifi()),
               Error);
}

TEST(RetryPolicyModel, AttemptAndFallbackProbabilities) {
  RetryPolicy r;
  r.max_attempts = 3;

  // A reliable cloud: exactly one attempt, never a fallback.
  EXPECT_DOUBLE_EQ(r.expected_attempts(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.fallback_prob(0.0), 0.0);

  // A dead cloud: all attempts burned, every request degrades.
  EXPECT_DOUBLE_EQ(r.expected_attempts(1.0), 3.0);
  EXPECT_DOUBLE_EQ(r.fallback_prob(1.0), 1.0);

  // Truncated geometric at p = 0.5: 1 + 0.5 + 0.25 attempts, 1/8 fallback.
  EXPECT_DOUBLE_EQ(r.expected_attempts(0.5), 1.75);
  EXPECT_DOUBLE_EQ(r.fallback_prob(0.5), 0.125);

  // Backoff: base * mult^k, summed over the first k retries.
  r.backoff_base_s = 0.001;
  r.backoff_mult = 2.0;
  EXPECT_DOUBLE_EQ(r.backoff_sum_s(0), 0.0);
  EXPECT_DOUBLE_EQ(r.backoff_sum_s(2), 0.001 + 0.002);
}

TEST(RetryPolicyModel, DegradedSplitRegimes) {
  const auto p = planner();
  const std::int64_t local_flops = 1'000'000;
  const std::uint64_t rep_bytes = 128;
  const std::int64_t cloud_flops = 1'000'000'000;
  const std::int64_t fallback_flops = 50'000'000;
  RetryPolicy r;
  r.max_attempts = 3;
  r.timeout_s = 0.02;

  // fail_prob = 0 degenerates to the plain split estimate.
  const CostEstimate plain = p.split(local_flops, rep_bytes, cloud_flops, 100);
  const DegradedSplitEstimate healthy = p.split_degraded(
      local_flops, rep_bytes, cloud_flops, 100, r, 0.0, fallback_flops);
  EXPECT_NEAR(healthy.expected.latency_s, plain.latency_s, 1e-12);
  EXPECT_NEAR(healthy.expected.device_energy_j, plain.device_energy_j, 1e-12);
  EXPECT_DOUBLE_EQ(healthy.fallback_fraction, 0.0);
  EXPECT_DOUBLE_EQ(healthy.expected_attempts, 1.0);

  // fail_prob = 1: every request burns all attempts and answers on-device.
  const DegradedSplitEstimate dead = p.split_degraded(
      local_flops, rep_bytes, cloud_flops, 100, r, 1.0, fallback_flops);
  EXPECT_DOUBLE_EQ(dead.fallback_fraction, 1.0);
  EXPECT_DOUBLE_EQ(dead.expected_attempts, 3.0);
  EXPECT_EQ(dead.expected.bytes_down, 0u);  // the cloud never answered
  const CostEstimate device_only =
      p.on_device(local_flops + fallback_flops);
  // All-fallback latency = on-device work + 3 timeouts + 2 backoffs.
  EXPECT_NEAR(dead.expected.latency_s,
              device_only.latency_s + 3.0 * r.timeout_s + r.backoff_sum_s(2),
              1e-12);

  // Expected cost rises monotonically with the failure rate.
  double prev = healthy.expected.latency_s;
  for (const double f : {0.1, 0.3, 0.6, 0.9}) {
    const double cur =
        p.split_degraded(local_flops, rep_bytes, cloud_flops, 100, r, f,
                         fallback_flops)
            .expected.latency_s;
    EXPECT_GT(cur, prev) << "fail_prob " << f;
    prev = cur;
  }
}

}  // namespace
}  // namespace mdl::mobile
