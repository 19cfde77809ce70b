#include "serve/split_client.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "core/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace mdl::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Latency budget handed to DegradationLadder::pick.
constexpr double kFallbackLatencyBudgetS = 0.05;

/// Whole microseconds in `s` seconds: the server's deadline and the sleep
/// clock both count in us.
std::int64_t to_us(double s) { return std::llround(s * 1e6); }

}  // namespace

void SplitClientConfig::validate() const {
  retry.validate();
  MDL_CHECK(to_us(retry.timeout_s) > 0, "retry.timeout_s must be >= 1 us");
  MDL_CHECK(retry_budget >= 0, "retry_budget must be >= 0");
  MDL_CHECK(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0, 1)");
}

SplitClient::SplitClient(InferenceServer* server,
                         const split::SplitInference* model,
                         const split::DegradationLadder* ladder,
                         mobile::InferencePlanner planner,
                         SplitClientConfig config)
    : server_(server),
      model_(model),
      ladder_(ladder),
      planner_(std::move(planner)),
      config_(config),
      rng_(config.seed),
      budget_left_(config.retry_budget) {
  MDL_CHECK(server_ != nullptr, "client needs a server");
  MDL_CHECK(model_ != nullptr, "client needs the local half");
  config_.validate();
}

std::int64_t SplitClient::backoff_us(std::int64_t k) {
  const double base =
      static_cast<double>(to_us(config_.retry.backoff_base_s)) *
      std::pow(config_.retry.backoff_mult, static_cast<double>(k));
  const double jittered =
      base * rng_.uniform(1.0 - config_.jitter, 1.0 + config_.jitter);
  return static_cast<std::int64_t>(jittered);
}

ClientOutcome SplitClient::fallback(const Tensor& rep, ClientOutcome out) {
  MDL_CHECK(ladder_ != nullptr && !ladder_->empty(),
            "cloud path exhausted (" << out.status_detail
                                     << ") and no degradation ladder");
  const std::size_t stage =
      ladder_->pick(planner_, kFallbackLatencyBudgetS);
  MDL_OBS_COUNTER_ADD("client.fallbacks", 1);
  MDL_OBS_RING_EVENT(obs::EventType::kInstant, "client.fallback", 0,
                     "stage", static_cast<double>(stage), "cloud_status",
                     to_string(out.cloud_status));
  out.served_by = ServedBy::kFallback;
  out.fallback_stage = static_cast<std::int64_t>(stage);
  out.fallback_stage_name = ladder_->stage(stage).name;
  out.logits = ladder_->infer(stage, rep);
  out.argmax = out.logits.argmax_rows().front();
  return out;
}

ClientOutcome SplitClient::infer(const Tensor& x) {
  return infer_representation(model_->local_infer(x), rng_.next_u64());
}

ClientOutcome SplitClient::infer_representation(const Tensor& rep,
                                                std::uint64_t noise_seed) {
  MDL_CHECK(rep.ndim() == 2 && rep.shape(0) == 1,
            "representation must be [1, rep_dim], got " << rep.shape_str());
  const auto start = Clock::now();
  MDL_OBS_COUNTER_ADD("client.requests", 1);

  ClientOutcome out;
  for (std::int64_t attempt = 0; attempt < config_.retry.max_attempts;
       ++attempt) {
    if (attempt > 0) {
      if (budget_left_ <= 0) {
        // Budget gone: stop converting failures into load, degrade instead.
        MDL_OBS_COUNTER_ADD("client.budget_exhausted", 1);
        break;
      }
      --budget_left_;
      MDL_OBS_COUNTER_ADD("client.retries", 1);
      MDL_OBS_RING_EVENT(obs::EventType::kInstant, "client.retry", 0,
                         "attempt", static_cast<double>(attempt), "reason",
                         to_string(out.cloud_status));
      const std::int64_t wait = backoff_us(attempt - 1);
      if (wait > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
    }

    InferenceRequest req;
    req.kind = RequestKind::kSplit;
    req.representation = rep;
    req.noise_seed = noise_seed;
    req.deadline_us = to_us(config_.retry.timeout_s);
    InferenceResult r = server_->submit(std::move(req)).get();
    ++out.attempts;
    out.retries = out.attempts - 1;
    out.cloud_status = r.status;
    out.status_detail = std::move(r.status_detail);

    if (r.status == RequestStatus::kOk) {
      out.served_by = ServedBy::kCloud;
      out.logits = std::move(r.logits);
      out.argmax = r.argmax;
      out.status_detail.clear();
      out.latency_us = us_between(start, Clock::now());
      MDL_OBS_COUNTER_ADD("client.cloud_ok", 1);
      return out;
    }
    // An open circuit or a shutting-down server will not heal within this
    // request's patience: skip the remaining attempts and degrade now.
    if (r.status == RequestStatus::kRejectedCircuit ||
        r.status == RequestStatus::kRejectedShutdown)
      break;
    // kShedDeadline / kRejectedOverload / kError are transient: retry.
  }

  out = fallback(rep, std::move(out));
  out.latency_us = us_between(start, Clock::now());
  return out;
}

}  // namespace mdl::serve
