// Moments accountant for the subsampled Gaussian mechanism (Abadi et al.,
// CCS'16), realized through Renyi differential privacy.
//
// Tracks the privacy loss of T compositions of the Gaussian mechanism with
// noise multiplier z applied to a q-subsampled batch. For integer Renyi
// orders alpha, the per-step RDP is bounded by
//   (1/(alpha-1)) * log( sum_{k=0..alpha} C(alpha,k) (1-q)^{alpha-k} q^k
//                         * exp(k(k-1) / (2 z^2)) ),
// which is exactly the moment bound the moments accountant computes
// numerically. Composition adds RDP across steps, and conversion to
// (eps, delta)-DP takes the minimum over orders of
//   eps = rdp(alpha) + log(1/delta) / (alpha - 1).
//
// The same accountant serves DP-SGD (example-level q = L/N) and DP-FedAvg
// (user-level q = clients-per-round / total-clients), as in the paper's
// §II-C discussion of McMahan et al.'s differentially private federated
// training.
#pragma once

#include <cstdint>
#include <vector>

#include "core/serialize.hpp"

namespace mdl::privacy {

/// The delta at which DP-SGD and DP-FedAvg report epsilon.
inline constexpr double kDelta = 1e-5;

/// Accumulates RDP over steps of the subsampled Gaussian mechanism.
class MomentsAccountant {
 public:
  /// Tracks orders 2..max_order (integers). Larger max_order tightens the
  /// bound for very small q / large z.
  explicit MomentsAccountant(int max_order = 64);

  /// Accounts for `steps` compositions with sampling ratio q in (0, 1] and
  /// noise multiplier z > 0 (sigma = z * sensitivity).
  void add_steps(std::int64_t steps, double q, double noise_multiplier);

  /// Smallest epsilon achievable at the given delta over tracked orders.
  double epsilon(double delta) const;

  /// The order achieving epsilon(delta) (diagnostic).
  int optimal_order(double delta) const;

  /// RDP at a given integer order (diagnostic / tests).
  double rdp_at(int order) const;

  void reset();

  /// Archives the spent budget (per-order RDP), so a resumed DP run keeps
  /// charging the same ledger instead of silently restarting epsilon at 0.
  void serialize(BinaryWriter& w) const;
  static MomentsAccountant deserialize(BinaryReader& r);

 private:
  std::vector<double> rdp_;  ///< rdp_[i] = accumulated RDP at order i + 2
};

/// Per-step RDP of the q-subsampled Gaussian mechanism at integer `order`.
double subsampled_gaussian_rdp(double q, double noise_multiplier, int order);

}  // namespace mdl::privacy
