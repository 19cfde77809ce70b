// Numerical-health monitoring for long-running trainers.
//
// Mobile-fleet training jobs (FedAvg/DP-SGD, §II) run for hundreds of
// rounds unattended; a NaN that sneaks into the global model, or a loss
// that blows past its recent history, silently poisons every subsequent
// round. HealthMonitor watches both signals each round: non-finite values
// in the loss or the flattened parameter vector, and loss divergence
// against an exponential moving average guardband. The trainers react to a
// tripped guard by rolling back to the last-good checkpoint (see
// ckpt::TrainerGuard) instead of corrupting the global model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace mdl::ckpt {

/// What the monitor concluded about one round.
enum class Health : std::uint8_t {
  kOk,         ///< finite and inside the guardband
  kNonFinite,  ///< NaN/Inf in the loss or parameters
  kDiverged,   ///< loss exceeded the running-average guardband
};

const char* to_string(Health h);

/// Guardband knobs. Defaults are deliberately loose: a healthy run should
/// never trip them, only genuine divergence should.
struct HealthConfig {
  bool enabled = true;
  /// Trip when loss > ema * divergence_factor + divergence_slack.
  double divergence_factor = 4.0;
  /// Absolute slack so near-zero losses cannot trip on noise.
  double divergence_slack = 1.0;
  /// EMA observations required before the divergence guard arms. The
  /// first loss always sets the baseline, so 0 arms it from the second.
  std::int64_t warmup_rounds = 5;
  /// Rollbacks tolerated before the trainer gives up and stops at the
  /// last-good model.
  std::int64_t max_rollbacks = 3;
};

/// Scans per-round loss/parameters; emits health.* metrics on trips.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = {});

  /// Checks one round. `loss` may be nullopt (e.g. quorum-aborted rounds
  /// with no meaningful loss) — then only the parameter scan runs. A kOk
  /// result folds the loss into the running average.
  Health check(std::optional<double> loss, std::span<const float> params);

  /// Forgets the loss baseline (called after a rollback so the guard
  /// re-warms against the post-rollback trajectory).
  void reset();

  const HealthConfig& config() const { return config_; }
  double loss_ema() const { return ema_; }

 private:
  HealthConfig config_;
  double ema_ = 0.0;
  std::int64_t observed_ = 0;
};

}  // namespace mdl::ckpt
