// User-level differentially private federated averaging (McMahan et al.,
// "Learning Differentially Private Recurrent Language Models") — §II-C.
//
// Implements exactly the four modifications the paper lists on top of
// non-private federated training:
//   1. participants are selected *independently with probability p* rather
//      than as a fixed-size cohort;
//   2. each participant's model update is clipped to L2 norm <= S;
//   3. aggregation uses the fixed-denominator estimator (divide by the
//      expected cohort size p*K, not the realized one) so the sensitivity
//      is bounded and the moments accountant applies;
//   4. Gaussian noise N(0, (z * S / (p*K))^2) is added to the average.
// Privacy is tracked at the *user* level by the moments accountant with
// sampling ratio p per round.
#pragma once

#include "ckpt/checkpoint.hpp"
#include "federated/common.hpp"
#include "federated/population.hpp"
#include "federated/round_runner.hpp"
#include "privacy/accountant.hpp"

namespace mdl::privacy {

struct DpFedAvgConfig {
  std::int64_t rounds = 40;
  double client_sample_prob = 0.5;  ///< p: independent selection probability
  std::int64_t local_epochs = 5;
  double client_lr = 0.1;
  double clip_norm = 5.0;           ///< S: per-update L2 clip
  double noise_multiplier = 1.0;    ///< z
  std::uint64_t seed = 19;
  /// Crash-safe checkpointing + health rollback (ckpt::TrainerGuard). The
  /// checkpoint carries the moments accountant, so a resumed run keeps the
  /// spent privacy budget.
  ckpt::CheckpointConfig checkpoint;
  ckpt::HealthConfig health;
};

struct DpRoundStats {
  std::int64_t round = 0;
  double test_accuracy = 0.0;
  double train_loss = 0.0;  ///< mean local loss over delivered clients
  double epsilon = 0.0;     ///< cumulative, at kDelta
  /// Fault-injection fields (zero without an attached SimNetwork).
  std::int64_t clients_selected = 0;
  std::int64_t clients_delivered = 0;
  bool aborted = false;      ///< quorum not met; no release, no privacy charge
  bool rolled_back = false;  ///< round tripped the health guard and was undone
};

/// Parameter server with user-level DP aggregation.
class DpFedAvgTrainer {
 public:
  /// Primary form: any ClientPopulation (materialized or virtual); per-round
  /// memory is O(realized cohort), independent of the population size.
  DpFedAvgTrainer(federated::ModelFactory factory,
                  std::shared_ptr<const federated::ClientPopulation> population,
                  DpFedAvgConfig config);
  /// Historical form: wraps the shard vector in a MaterializedPopulation.
  DpFedAvgTrainer(federated::ModelFactory factory,
                  std::vector<data::TabularDataset> shards,
                  DpFedAvgConfig config);

  std::vector<DpRoundStats> run(const data::TabularDataset& test);

  /// Routes the sampled cohort's exchange through a fault simulator
  /// (non-owning; must outlive run()). Lost updates simply shrink the
  /// realized cohort — the fixed-denominator estimator (modification 3)
  /// already bounds sensitivity, so dropout needs no DP correction. A
  /// quorum-aborted round releases nothing and charges no privacy budget.
  void attach_network(sim::SimNetwork* net) { runner_.attach_network(net); }

  /// Prices the round's exchanges in entropy-coded wire bytes (non-owning;
  /// must outlive run()): the simulated network sizes transfers by the
  /// encoded broadcast, and the ledger bills each participant's true
  /// encoded clipped delta. Training math and the privacy accounting are
  /// unchanged. nullptr restores raw sizing.
  void attach_wire_codec(const federated::WireCodec* codec) {
    runner_.attach_wire_codec(codec);
  }

  nn::Sequential& global_model() { return runner_.model(); }
  const MomentsAccountant& accountant() const { return accountant_; }
  /// Bytes moved, billed like FedAvg's: the broadcast to every client that
  /// did not drop out, each accepted clipped delta, and wasted uplink.
  const federated::CommLedger& ledger() const { return runner_.ledger(); }
  /// Workspace models currently allocated — capped at
  /// min(cohort, federated::kAggShards), never the population size.
  std::size_t worker_pool_size() const { return runner_.worker_pool_size(); }

 private:
  /// Run state after the runner's prefix: the current client LR, the
  /// flattened global model, and the accountant's spent RDP.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

  DpFedAvgConfig config_;
  federated::RoundRunner runner_;
  MomentsAccountant accountant_;
};

}  // namespace mdl::privacy
