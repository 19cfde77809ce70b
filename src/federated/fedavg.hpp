// Federated training (McMahan et al.): FedSGD and FedAvg.
//
// Implements the two schemes contrasted in §II-B. FedSGD is the "naively
// distributed SGD" baseline — every selected participant uploads one
// full-batch gradient per round and the server takes one step with the
// n_k/n-weighted average:
//     w_{t+1} <- w_t - eta * sum_k (n_k / n) g_k.
// FedAvg lets each participant run E local epochs of minibatch SGD before
// uploading its *model* (equivalently its update), and the server averages:
//     w^k_{t+1} <- local SGD from w_t;   w_{t+1} <- sum_k (n_k/n) w^k_{t+1}.
// The paper quotes 10-100x communication savings for the latter — the
// bench bench/fig2_fedavg_communication measures exactly that, in bytes
// from this trainer's CommLedger.
#pragma once

#include "ckpt/checkpoint.hpp"
#include "federated/common.hpp"
#include "federated/population.hpp"
#include "federated/round_runner.hpp"

namespace mdl::federated {

struct FedAvgConfig {
  std::int64_t rounds = 50;
  /// Participants selected per round (<= number of shards).
  std::int64_t clients_per_round = 10;
  /// E: local epochs per round. FedSGD fixes the equivalent of E = 1 with a
  /// single full-batch step.
  std::int64_t local_epochs = 5;
  std::int64_t batch_size = 16;
  double client_lr = 0.1;
  /// Server learning rate for FedSGD's aggregated gradient step.
  double server_lr = 0.1;
  /// true = FedSGD (gradient upload), false = FedAvg (model averaging).
  bool fedsgd = false;
  /// Stop once test accuracy reaches this (negative = run all rounds).
  double target_accuracy = -1.0;
  std::uint64_t seed = 7;
  /// Crash-safe checkpointing (disabled while checkpoint.dir is empty) and
  /// numerical-health rollback for the round loop (ckpt::TrainerGuard).
  ckpt::CheckpointConfig checkpoint;
  ckpt::HealthConfig health;
  /// Invoked after every completed round (including rolled-back ones),
  /// *after* the round's checkpoint is on disk — kill/resume tests use it
  /// to pace the run.
  std::function<void(const RoundStats&)> on_round;
};

/// Simulated parameter server + K participants over tabular shards.
class FedAvgTrainer {
 public:
  /// Primary form: any ClientPopulation (materialized or virtual). Per-round
  /// memory is O(cohort) — the population itself is never walked.
  FedAvgTrainer(ModelFactory factory,
                std::shared_ptr<const ClientPopulation> population,
                FedAvgConfig config);
  /// Historical form: wraps the shard vector in a MaterializedPopulation.
  FedAvgTrainer(ModelFactory factory, std::vector<data::TabularDataset> shards,
                FedAvgConfig config);

  /// Runs the configured number of rounds (or until target accuracy),
  /// evaluating on `test` after every round.
  std::vector<RoundStats> run(const data::TabularDataset& test);

  /// Routes every client<->server exchange through a fault-injecting
  /// network simulator (non-owning; must outlive run()). Aggregation
  /// becomes survivor-weighted, stale/failed uploads are rejected, and a
  /// round with fewer deliveries than the plan's quorum aborts (the global
  /// model is kept unchanged). nullptr restores the loss-free network.
  void attach_network(sim::SimNetwork* net) { runner_.attach_network(net); }

  /// Prices every exchange in entropy-coded wire bytes (non-owning; must
  /// outlive run()). The ledger then bills encoded bytes (raw bytes stay
  /// in bytes_*_raw) and an attached SimNetwork sizes its transfers by the
  /// encoded broadcast. Training math is unchanged — the codec is a
  /// pricing shim, not a lossy channel. nullptr restores raw accounting.
  void attach_wire_codec(const WireCodec* codec) {
    runner_.attach_wire_codec(codec);
  }

  nn::Sequential& global_model() { return runner_.model(); }
  const CommLedger& ledger() const { return runner_.ledger(); }
  std::int64_t model_size() const { return runner_.model_size(); }
  /// Workspace models currently allocated — capped at
  /// min(cohort, kAggShards), never the population size (tests pin this).
  std::size_t worker_pool_size() const { return runner_.worker_pool_size(); }

 private:
  /// Run state after the runner's prefix: the client and server LRs and
  /// the flattened global model.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

  FedAvgConfig config_;
  RoundRunner runner_;
};

}  // namespace mdl::federated
