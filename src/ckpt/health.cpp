#include "ckpt/health.hpp"

#include <cmath>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace mdl::ckpt {
namespace {

/// EMA smoothing of the loss baseline: ema += alpha * (loss - ema).
constexpr double kEmaAlpha = 0.3;

}  // namespace

const char* to_string(Health h) {
  switch (h) {
    case Health::kOk: return "ok";
    case Health::kNonFinite: return "non_finite";
    case Health::kDiverged: return "diverged";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthConfig config) : config_(config) {
  MDL_CHECK(config_.divergence_factor >= 1.0,
            "divergence factor must be >= 1");
  MDL_CHECK(config_.warmup_rounds >= 0, "warmup must be >= 0");
  MDL_CHECK(config_.max_rollbacks >= 0, "max rollbacks must be >= 0");
}

Health HealthMonitor::check(std::optional<double> loss,
                            std::span<const float> params) {
  if (!config_.enabled) return Health::kOk;

  if (loss.has_value() && !std::isfinite(*loss)) {
    MDL_OBS_COUNTER_ADD("health.nonfinite_loss", 1);
    return Health::kNonFinite;
  }
  for (const float v : params) {
    if (!std::isfinite(v)) {
      MDL_OBS_COUNTER_ADD("health.nonfinite_params", 1);
      return Health::kNonFinite;
    }
  }

  if (loss.has_value()) {
    // The first finite loss after a start or reset() is the baseline: with
    // no EMA yet there is nothing to diverge from, whatever the warmup.
    if (observed_ > 0 && observed_ >= config_.warmup_rounds &&
        *loss > ema_ * config_.divergence_factor + config_.divergence_slack) {
      MDL_OBS_COUNTER_ADD("health.divergence_trips", 1);
      return Health::kDiverged;
    }
    ema_ = observed_ == 0 ? *loss : ema_ + kEmaAlpha * (*loss - ema_);
    ++observed_;
  }
  return Health::kOk;
}

void HealthMonitor::reset() {
  ema_ = 0.0;
  observed_ = 0;
}

}  // namespace mdl::ckpt
