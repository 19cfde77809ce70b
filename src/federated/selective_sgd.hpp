// Distributed selective SGD (Shokri & Shmatikov, CCS'15) — Fig. 1.
//
// Participants train local replicas on private shards; after each local
// pass they upload only a fraction theta_u of their accumulated gradient
// coordinates (those with the largest magnitude) to the parameter server,
// and download the fraction theta_d of global parameters most recently
// updated by others. The scheme trades accuracy for communication and
// privacy: even theta_u = 0.1 typically approaches centralized accuracy,
// the paper's headline observation for this system.
#pragma once

#include "ckpt/checkpoint.hpp"
#include "federated/common.hpp"
#include "federated/population.hpp"
#include "federated/round_runner.hpp"

namespace mdl::federated {

struct SelectiveSGDConfig {
  std::int64_t rounds = 30;
  /// theta_u: fraction of gradient coordinates uploaded per round.
  double upload_fraction = 0.1;
  /// theta_d: fraction of global parameters downloaded per round.
  double download_fraction = 1.0;
  std::int64_t local_epochs = 1;
  double lr = 0.1;
  std::uint64_t seed = 11;
  /// Crash-safe checkpointing + health rollback (ckpt::TrainerGuard).
  ckpt::CheckpointConfig checkpoint;
  ckpt::HealthConfig health;
};

/// Parameter server + N participants, run as synchronous rounds: every
/// participant downloads its selective fraction from the round-start server
/// snapshot, participants train concurrently (bit-identical at every thread
/// count), and accepted uploads merge into the server vector in fixed
/// participant order. (Earlier revisions simulated a round-robin where a
/// participant could see same-round uploads of its predecessors; the
/// snapshot semantics admit parallel clients — see DESIGN.md.)
class SelectiveSGDTrainer {
 public:
  /// Primary form: any ClientPopulation. Note the scheme itself keeps one
  /// replica + sync vector per participant (everyone trains every round),
  /// so trainer state is inherently O(N x model) — the population
  /// abstraction virtualizes the *data* (shards are generated on demand
  /// into per-chunk scratches), not the replicas. Selective SGD is a
  /// tens-to-hundreds-of-participants scheme; FedAvg is the 1M-client one.
  SelectiveSGDTrainer(ModelFactory factory,
                      std::shared_ptr<const ClientPopulation> population,
                      SelectiveSGDConfig config);
  /// Historical form: wraps the shard vector in a MaterializedPopulation.
  SelectiveSGDTrainer(ModelFactory factory,
                      std::vector<data::TabularDataset> shards,
                      SelectiveSGDConfig config);

  /// Runs all rounds; per-round stats evaluate the *global* model on test.
  std::vector<RoundStats> run(const data::TabularDataset& test);

  /// Accuracy of participant k's local replica (participants benefit from
  /// each other's data without sharing it — the point of the scheme).
  double participant_accuracy(std::size_t k, const data::TabularDataset& test);

  /// Routes the per-participant exchange through a fault simulator
  /// (non-owning; must outlive run()). A dropped-out participant skips the
  /// round entirely; a failed upload keeps the local replica's progress but
  /// never reaches the parameter server (bytes counted as wasted); a
  /// quorum-aborted round discards every upload.
  void attach_network(sim::SimNetwork* net) { runner_.attach_network(net); }

  /// Prices every exchange in entropy-coded wire bytes (non-owning; must
  /// outlive run()). Sparse top-k payloads travel as varint index deltas +
  /// quantized values through the codec; the ledger bills encoded bytes
  /// while bytes_*_raw keeps the float/coord bill. Training math is
  /// unchanged. nullptr restores raw accounting.
  void attach_wire_codec(const WireCodec* codec) {
    runner_.attach_wire_codec(codec);
  }

  const CommLedger& ledger() const { return runner_.ledger(); }
  std::int64_t model_size() const { return runner_.model_size(); }
  /// The server's flat parameter vector (bit-exact state, e.g. for the
  /// cross-thread-count determinism tests).
  const std::vector<float>& global_parameters() const { return global_; }
  /// Workspace models currently allocated — capped at the chunk count,
  /// never the participant count.
  std::size_t worker_pool_size() const { return runner_.worker_pool_size(); }

 private:
  /// Run state after the runner's prefix: the current LR, the server's
  /// parameter/version vectors, and every participant replica + its sync
  /// state.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

  SelectiveSGDConfig config_;
  /// Owns the evaluation model (runner_.model()), the workspaces and the
  /// ledger.
  RoundRunner runner_;
  std::vector<float> global_;                   ///< server parameter vector
  std::vector<std::uint32_t> version_;          ///< per-coordinate update count
  std::vector<std::vector<float>> locals_;      ///< per-participant replicas
  std::vector<std::uint32_t> seen_version_;     ///< per-participant sync state
};

}  // namespace mdl::federated
