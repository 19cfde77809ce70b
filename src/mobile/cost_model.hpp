// Mobile inference cost model (§III): where should a trained DNN run?
//
// The paper frames the deployment choice as on-device inference (no
// network, private, but compute/energy constrained) vs. cloud inference
// (fast server, but pays upload latency/energy and exposes data), with
// split inference in between. This module provides an analytic
// latency/energy/app-size model over FLOP-counted mdl::nn networks,
// device profiles with published-order-of-magnitude constants, and a
// bandwidth-parameterized radio model — the substitute for the authors'
// phone+cloud testbed documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <string>

#include "nn/module.hpp"

namespace mdl::mobile {

/// Compute + radio characteristics of one endpoint.
struct DeviceProfile {
  std::string name;
  double effective_gflops = 10.0;  ///< sustained fp32 throughput
  double compute_watts = 2.0;      ///< power while computing
  double radio_watts = 1.0;        ///< power while transmitting/receiving
  double idle_watts = 0.05;

  /// ~2017 smartphone SoC (CPU path, the deployment target of §III-B).
  static DeviceProfile mobile_soc();
  /// Cloud server with a discrete accelerator.
  static DeviceProfile cloud_server();
  /// Low-end wearable / embedded sensor node.
  static DeviceProfile embedded_sensor();
};

/// Link between phone and cloud.
struct NetworkModel {
  double uplink_mbps = 10.0;
  double downlink_mbps = 40.0;
  double rtt_s = 0.05;

  static NetworkModel wifi();
  static NetworkModel lte();
  static NetworkModel cellular_3g();

  double upload_time_s(std::uint64_t bytes) const;
  double download_time_s(std::uint64_t bytes) const;
};

/// Cost of executing one inference under a given placement.
struct CostEstimate {
  double latency_s = 0.0;
  double device_energy_j = 0.0;  ///< energy drawn from the phone battery
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
};

/// Client-side retry policy for the split path (the serve::SplitClient
/// knobs), modelled analytically: attempts fail i.i.d. with probability f
/// (stall, shed, executor error), each failed attempt burns the timeout,
/// retries are separated by exponential backoff, and exhausting the
/// attempts degrades to the on-device fallback. Jitter is mean-1, so it
/// drops out of every expectation.
struct RetryPolicy {
  std::int64_t max_attempts = 3;  ///< 1 = no retries
  double timeout_s = 0.02;        ///< latency paid by each failed attempt
  double backoff_base_s = 5e-4;   ///< wait before retry k: base * mult^k
  double backoff_mult = 2.0;

  /// Throws mdl::Error if any knob is out of range.
  void validate() const;

  /// Expected cloud attempts per request, in [1, max_attempts].
  double expected_attempts(double fail_prob) const;
  /// P(every attempt fails) = fail_prob^max_attempts — the degraded-mode
  /// (fallback) fraction of requests.
  double fallback_prob(double fail_prob) const;
  /// Total backoff before 0-based retry `k` has happened (sum of the first
  /// k backoff terms).
  double backoff_sum_s(std::int64_t k) const;
};

/// Expected cost of the fault-tolerant split path (retries + degraded
/// mode), plus how the answers divide between cloud and fallback.
struct DegradedSplitEstimate {
  CostEstimate expected;          ///< availability-weighted expectation
  double fallback_fraction = 0.0; ///< requests answered on-device
  double expected_attempts = 0.0; ///< mean cloud attempts per request
};

/// Evaluates the three placements for a given model.
class InferencePlanner {
 public:
  InferencePlanner(DeviceProfile device, DeviceProfile server,
                   NetworkModel network);

  /// Whole model on the phone.
  CostEstimate on_device(std::int64_t flops) const;

  /// Raw input uploaded, whole model on the server, result downloaded.
  CostEstimate on_cloud(std::uint64_t input_bytes, std::int64_t flops,
                        std::uint64_t output_bytes) const;

  /// Local prefix on the phone, representation uploaded, suffix on the
  /// server (the Fig. 3 deployment).
  CostEstimate split(std::int64_t local_flops, std::uint64_t rep_bytes,
                     std::int64_t cloud_flops,
                     std::uint64_t output_bytes) const;

  /// The fault-tolerant split path end to end: each cloud attempt fails
  /// i.i.d. with `fail_prob`; failed attempts pay the timeout (plus the
  /// wasted upload energy/bytes) and back off per `retry`; a request whose
  /// attempts are exhausted is answered on-device by a fallback stage of
  /// `fallback_flops` (the degradation ladder). Availability is 1 by
  /// construction — this prices it.
  DegradedSplitEstimate split_degraded(
      std::int64_t local_flops, std::uint64_t rep_bytes,
      std::int64_t cloud_flops, std::uint64_t output_bytes,
      const RetryPolicy& retry, double fail_prob,
      std::int64_t fallback_flops) const;

  const DeviceProfile& device() const { return device_; }
  const DeviceProfile& server() const { return server_; }
  const NetworkModel& network() const { return network_; }

 private:
  double device_compute_s(std::int64_t flops) const;
  double server_compute_s(std::int64_t flops) const;

  DeviceProfile device_;
  DeviceProfile server_;
  NetworkModel network_;
};

}  // namespace mdl::mobile
