// Reconstruction attack on the split-inference representation.
//
// The privacy argument of Fig. 3 / §III-A is that the perturbed
// representation resists reconstruction of the raw input ("protect against
// the reconstruction attacks", cf. PrivyNet's threat model). This module
// measures that empirically: an attacker with query access trains a
// decoder from (perturbed) representations back to raw inputs; the
// normalized reconstruction error is the privacy metric the Fig. 3 bench
// reports alongside accuracy.
#pragma once

#include "split/split_inference.hpp"

namespace mdl::split {

struct ReconstructionReport {
  double mse = 0.0;
  /// mse / input variance: 1.0 ~ attacker learned nothing beyond the mean,
  /// 0.0 ~ perfect reconstruction.
  double relative_error = 0.0;
};

struct AttackConfig {
  std::int64_t epochs = 30;
  std::uint64_t seed = 43;
};

/// Trains an MLP decoder rep -> input on perturbed representations of
/// `attacker_data` (fresh perturbation per epoch, matching what a
/// query-access attacker observes) and reports its error on `victim_data`.
ReconstructionReport reconstruction_attack(SplitInference& system,
                                           const data::TabularDataset& attacker_data,
                                           const data::TabularDataset& victim_data,
                                           const PerturbConfig& perturb,
                                           const AttackConfig& config);

}  // namespace mdl::split
