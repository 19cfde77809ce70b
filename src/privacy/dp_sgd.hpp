// DP-SGD (Abadi et al., CCS'16): differentially private training of a
// neural network by per-example gradient clipping + Gaussian noise, with
// privacy tracked by the moments accountant.
//
// Each step draws a Poisson-subsampled lot (each example independently with
// probability q = lot_size / N), clips every per-example gradient to L2
// norm <= clip_norm, sums, adds N(0, (z * clip_norm)^2) noise per
// coordinate, divides by the expected lot size, and takes an SGD step.
#pragma once

#include <memory>

#include "ckpt/checkpoint.hpp"
#include "federated/common.hpp"
#include "privacy/accountant.hpp"

namespace mdl::privacy {

struct DpSgdConfig {
  std::int64_t epochs = 5;
  std::int64_t lot_size = 32;     ///< expected Poisson lot size
  double lr = 0.1;
  double clip_norm = 1.0;         ///< per-example L2 clip C
  double noise_multiplier = 1.0;  ///< z; sigma = z * C
  std::uint64_t seed = 13;
  /// Crash-safe checkpointing + health rollback at epoch granularity
  /// (ckpt::TrainerGuard). The checkpoint carries the moments accountant,
  /// so a resumed run keeps the spent privacy budget.
  ckpt::CheckpointConfig checkpoint;
  ckpt::HealthConfig health;
};

struct DpSgdResult {
  double test_accuracy = 0.0;
  double epsilon = 0.0;           ///< at kDelta, via moments accountant
  std::int64_t steps = 0;
  std::int64_t rollbacks = 0;     ///< health-guard rollbacks taken
};

/// Trains `model` on `train` with DP-SGD and reports accuracy + (eps, delta).
DpSgdResult train_dp_sgd(nn::Sequential& model,
                         const data::TabularDataset& train,
                         const data::TabularDataset& test,
                         const DpSgdConfig& config);

}  // namespace mdl::privacy
