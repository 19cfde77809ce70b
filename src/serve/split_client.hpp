// SplitClient: the phone's side of the fault-tolerant split path.
//
// Drives the cloud half of a split network through an InferenceServer with
// the full degradation ladder in front of it:
//
//   1. compute the local representation on-device (frozen local half);
//   2. submit it to the server with a per-attempt deadline (timeout);
//   3. on a retryable outcome (deadline shed, executor error, overload
//      reject) wait out an exponential backoff with decorrelated jitter and
//      try again — bounded by per-request attempts AND a client-wide retry
//      budget, so a dying cloud cannot convert every request into a retry
//      storm;
//   4. when the circuit is open, the budget is exhausted, or the server is
//      shutting down, fall back to an on-device degraded mode: score the
//      representation with a compressed stand-in for the cloud half
//      (split::DegradationLadder), picked through the mdl::mobile cost
//      model. Availability survives a dead cloud at a measured
//      accuracy/latency cost.
//
// Jitter is drawn from a seeded Rng, so a client's backoff schedule is
// reproducible. One SplitClient serves one caller thread (copy the config
// into per-thread clients for concurrent load; the underlying server is
// the shared, thread-safe piece). Counters: client.requests,
// client.retries, client.fallbacks, client.cloud_ok — fallbacks + cloud_ok
// always reconciles with requests exactly.
#pragma once

#include <cstdint>
#include <string>

#include "core/random.hpp"
#include "mobile/cost_model.hpp"
#include "serve/server.hpp"
#include "split/degradation.hpp"
#include "split/split_inference.hpp"

namespace mdl::serve {

struct SplitClientConfig {
  /// Attempts per request, the per-attempt deadline handed to the server
  /// (timeout_s, sent as the request's deadline_us; a shed attempt counts
  /// as a timeout) and the backoff before retry k (0-based):
  /// backoff_base_s * backoff_mult^k. The same policy is what
  /// mobile::InferencePlanner::split_degraded prices.
  mobile::RetryPolicy retry;
  /// Client-wide retry budget: total retries this client may spend across
  /// its lifetime. 0 disables retries outright; exhausted budget sends
  /// failures straight down the ladder.
  std::int64_t retry_budget = 1'000'000;
  /// Each backoff is multiplied by a uniform [1 - jitter, 1 + jitter) draw
  /// from the seeded Rng.
  double jitter = 0.5;
  /// Seeds the jitter stream (deterministic backoff schedule).
  std::uint64_t seed = 1;

  /// Throws mdl::Error if any knob is out of range.
  void validate() const;
};

/// How one client request was ultimately answered.
enum class ServedBy {
  kCloud,     ///< the server's cloud half answered (possibly after retries)
  kFallback,  ///< on-device degraded mode answered
};

struct ClientOutcome {
  ServedBy served_by = ServedBy::kCloud;
  Tensor logits;             ///< [1, classes]; always populated
  std::int64_t argmax = -1;  ///< always populated
  /// Status of the last cloud attempt (kOk when served_by == kCloud).
  RequestStatus cloud_status = RequestStatus::kOk;
  /// status_detail of the last cloud attempt; empty when it succeeded.
  std::string status_detail;
  std::int64_t attempts = 0;  ///< cloud attempts made (0 = straight to ladder)
  std::int64_t retries = 0;   ///< attempts beyond the first
  /// Ladder stage index + name used; -1 / nullptr when cloud answered.
  std::int64_t fallback_stage = -1;
  std::string fallback_stage_name;
  double latency_us = 0.0;  ///< submit-to-answer, including backoffs
};

class SplitClient {
 public:
  /// `server` executes the cloud half; `model` provides the frozen local
  /// half (its cloud part is NOT used here). `ladder` may be empty/null
  /// only if you accept that exhausting the cloud path throws. `planner`
  /// prices the fallback stages (copied).
  SplitClient(InferenceServer* server, const split::SplitInference* model,
              const split::DegradationLadder* ladder,
              mobile::InferencePlanner planner, SplitClientConfig config);

  /// Raw input [1, input_dim] -> ClientOutcome. Blocking; retries and
  /// degraded mode happen inside. Throws only on misuse (bad shapes, empty
  /// ladder with a dead cloud).
  ClientOutcome infer(const Tensor& x);

  /// Same, starting from an already-computed local representation
  /// [1, rep_dim] with the noise seed to ship (the representation is
  /// perturbed server-side per the server's PerturbConfig).
  ClientOutcome infer_representation(const Tensor& rep,
                                     std::uint64_t noise_seed);

  /// Retries still allowed by the client-wide budget.
  std::int64_t retry_budget_left() const { return budget_left_; }
  const SplitClientConfig& config() const { return config_; }

 private:
  /// Backoff (with jitter) before 0-based retry `k`, in microseconds.
  std::int64_t backoff_us(std::int64_t k);
  ClientOutcome fallback(const Tensor& rep, ClientOutcome out);

  InferenceServer* server_;
  const split::SplitInference* model_;
  const split::DegradationLadder* ladder_;
  mobile::InferencePlanner planner_;
  SplitClientConfig config_;
  Rng rng_;
  std::int64_t budget_left_;
};

}  // namespace mdl::serve
