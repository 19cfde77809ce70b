#include "mobile/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace mdl::mobile {

DeviceProfile DeviceProfile::mobile_soc() {
  // Sustained CPU fp32 throughput and power of a ~2017 flagship SoC
  // (order of magnitude: tens of GFLOPS at a 2-3 W compute envelope).
  return {"mobile-soc", 20.0, 2.5, 1.2, 0.05};
}

DeviceProfile DeviceProfile::cloud_server() {
  return {"cloud-server", 4000.0, 250.0, 0.0, 50.0};
}

DeviceProfile DeviceProfile::embedded_sensor() {
  return {"embedded-sensor", 0.5, 0.4, 0.3, 0.01};
}

NetworkModel NetworkModel::wifi() { return {40.0, 120.0, 0.01}; }
NetworkModel NetworkModel::lte() { return {8.0, 30.0, 0.05}; }
NetworkModel NetworkModel::cellular_3g() { return {0.8, 3.0, 0.12}; }

double NetworkModel::upload_time_s(std::uint64_t bytes) const {
  MDL_CHECK(uplink_mbps > 0.0, "uplink bandwidth must be positive");
  return static_cast<double>(bytes) * 8.0 / (uplink_mbps * 1e6);
}

double NetworkModel::download_time_s(std::uint64_t bytes) const {
  MDL_CHECK(downlink_mbps > 0.0, "downlink bandwidth must be positive");
  return static_cast<double>(bytes) * 8.0 / (downlink_mbps * 1e6);
}

InferencePlanner::InferencePlanner(DeviceProfile device, DeviceProfile server,
                                   NetworkModel network)
    : device_(std::move(device)),
      server_(std::move(server)),
      network_(network) {
  MDL_CHECK(device_.effective_gflops > 0.0 && server_.effective_gflops > 0.0,
            "profiles need positive throughput");
}

double InferencePlanner::device_compute_s(std::int64_t flops) const {
  return static_cast<double>(flops) / (device_.effective_gflops * 1e9);
}

double InferencePlanner::server_compute_s(std::int64_t flops) const {
  return static_cast<double>(flops) / (server_.effective_gflops * 1e9);
}

CostEstimate InferencePlanner::on_device(std::int64_t flops) const {
  MDL_OBS_COUNTER_ADD("mobile.plans_evaluated", 1);
  CostEstimate c;
  c.latency_s = device_compute_s(flops);
  c.device_energy_j = c.latency_s * device_.compute_watts;
  return c;
}

CostEstimate InferencePlanner::on_cloud(std::uint64_t input_bytes,
                                        std::int64_t flops,
                                        std::uint64_t output_bytes) const {
  MDL_OBS_COUNTER_ADD("mobile.plans_evaluated", 1);
  CostEstimate c;
  const double up = network_.upload_time_s(input_bytes);
  const double down = network_.download_time_s(output_bytes);
  c.latency_s = network_.rtt_s + up + server_compute_s(flops) + down;
  c.device_energy_j = (up + down) * device_.radio_watts +
                      (network_.rtt_s + server_compute_s(flops)) *
                          device_.idle_watts;
  c.bytes_up = input_bytes;
  c.bytes_down = output_bytes;
  return c;
}

CostEstimate InferencePlanner::split(std::int64_t local_flops,
                                     std::uint64_t rep_bytes,
                                     std::int64_t cloud_flops,
                                     std::uint64_t output_bytes) const {
  MDL_OBS_COUNTER_ADD("mobile.plans_evaluated", 1);
  CostEstimate c;
  const double local = device_compute_s(local_flops);
  const double up = network_.upload_time_s(rep_bytes);
  const double down = network_.download_time_s(output_bytes);
  c.latency_s =
      local + network_.rtt_s + up + server_compute_s(cloud_flops) + down;
  c.device_energy_j = local * device_.compute_watts +
                      (up + down) * device_.radio_watts +
                      (network_.rtt_s + server_compute_s(cloud_flops)) *
                          device_.idle_watts;
  c.bytes_up = rep_bytes;
  c.bytes_down = output_bytes;
  return c;
}

void RetryPolicy::validate() const {
  MDL_CHECK(max_attempts >= 1, "max_attempts must be >= 1");
  MDL_CHECK(timeout_s > 0.0, "timeout_s must be positive");
  MDL_CHECK(backoff_base_s >= 0.0, "backoff_base_s must be >= 0");
  MDL_CHECK(backoff_mult >= 1.0, "backoff_mult must be >= 1");
}

double RetryPolicy::expected_attempts(double fail_prob) const {
  validate();
  MDL_CHECK(fail_prob >= 0.0 && fail_prob <= 1.0, "fail_prob must be in [0,1]");
  // Attempt i happens iff the first i-1 attempts all failed.
  double e = 0.0;
  for (std::int64_t i = 0; i < max_attempts; ++i)
    e += std::pow(fail_prob, static_cast<double>(i));
  return e;
}

double RetryPolicy::fallback_prob(double fail_prob) const {
  validate();
  MDL_CHECK(fail_prob >= 0.0 && fail_prob <= 1.0, "fail_prob must be in [0,1]");
  return std::pow(fail_prob, static_cast<double>(max_attempts));
}

double RetryPolicy::backoff_sum_s(std::int64_t k) const {
  validate();
  MDL_CHECK(k >= 0, "k must be >= 0");
  double sum = 0.0;
  for (std::int64_t i = 0; i < k; ++i)
    sum += backoff_base_s * std::pow(backoff_mult, static_cast<double>(i));
  return sum;
}

DegradedSplitEstimate InferencePlanner::split_degraded(
    std::int64_t local_flops, std::uint64_t rep_bytes,
    std::int64_t cloud_flops, std::uint64_t output_bytes,
    const RetryPolicy& retry, double fail_prob,
    std::int64_t fallback_flops) const {
  retry.validate();
  MDL_CHECK(fail_prob >= 0.0 && fail_prob <= 1.0, "fail_prob must be in [0,1]");
  MDL_CHECK(fallback_flops >= 0, "fallback_flops must be >= 0");

  // Cost of the happy path (includes the local half) and of a request that
  // exhausts its attempts and answers on-device. The local representation
  // is computed exactly once either way.
  const CostEstimate success =
      split(local_flops, rep_bytes, cloud_flops, output_bytes);
  const CostEstimate local = on_device(local_flops);
  const CostEstimate degraded = on_device(fallback_flops);

  // What one failed attempt costs the phone: the radio is busy for the
  // upload, then the phone idles out the rest of the timeout.
  const double up_s =
      std::min(network_.upload_time_s(rep_bytes), retry.timeout_s);
  const double fail_energy_j = up_s * device_.radio_watts +
                               (retry.timeout_s - up_s) * device_.idle_watts;

  DegradedSplitEstimate out;
  const double p = fail_prob;
  // Enumerate outcomes exactly: success at attempt i (i-1 failures before
  // it), plus the all-failed fallback tail. max_attempts is small.
  for (std::int64_t i = 1; i <= retry.max_attempts; ++i) {
    const double prob =
        std::pow(p, static_cast<double>(i - 1)) * (1.0 - p);
    const double wasted_s = static_cast<double>(i - 1) * retry.timeout_s +
                            retry.backoff_sum_s(i - 1);
    out.expected.latency_s += prob * (success.latency_s + wasted_s);
    out.expected.device_energy_j +=
        prob * (success.device_energy_j +
                static_cast<double>(i - 1) * fail_energy_j +
                retry.backoff_sum_s(i - 1) * device_.idle_watts);
    out.expected.bytes_up += static_cast<std::uint64_t>(
        prob * static_cast<double>(i) * static_cast<double>(rep_bytes));
    out.expected.bytes_down += static_cast<std::uint64_t>(
        prob * static_cast<double>(output_bytes));
  }
  const double p_fb = retry.fallback_prob(p);
  const double a = static_cast<double>(retry.max_attempts);
  const double fb_wasted_s =
      a * retry.timeout_s + retry.backoff_sum_s(retry.max_attempts - 1);
  out.expected.latency_s +=
      p_fb * (local.latency_s + degraded.latency_s + fb_wasted_s);
  out.expected.device_energy_j +=
      p_fb * (local.device_energy_j + degraded.device_energy_j +
              a * fail_energy_j +
              retry.backoff_sum_s(retry.max_attempts - 1) * device_.idle_watts);
  out.expected.bytes_up += static_cast<std::uint64_t>(
      p_fb * a * static_cast<double>(rep_bytes));

  out.fallback_fraction = p_fb;
  out.expected_attempts = retry.expected_attempts(p);
  return out;
}

}  // namespace mdl::mobile
