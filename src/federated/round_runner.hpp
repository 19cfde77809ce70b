// The federated round skeleton shared by every parameter-server trainer (§II).
//
// Selective SGD, FedSGD/FedAvg and DP-FedAvg run the same round: the server
// picks clients, ships them (part of) the model through a possibly lossy
// network, each client trains locally, and the server folds the uploads
// back in. McMahan et al. write FedSGD and FedAvg as one loop that differs
// only in how clients are picked, what a client computes and how the
// server aggregates. RoundRunner is that loop minus those three choices:
//   - the model factory, client population, seed and trainer RNG;
//   - the attached SimNetwork / WireCodec and the CommLedger they bill,
//     with the one raw-vs-codec rule for pricing a dense payload;
//   - the workspace pool (one model + shard scratch per aggregation chunk);
//   - the round loop: run() hands it to ckpt::TrainerGuard (resume, health
//     check, rollback with LR decay);
//   - the checkpoint state prefix every trainer writes first;
//   - the cohort exchange through the SimNetwork, and broadcast(): the
//     dense model download priced, exchanged and billed;
//   - the chunked parallel client pass with its streaming accumulators;
//   - close_round(): evaluation, the health gate and the per-round
//     `<name>.*` and `sim.bytes_*` metrics.
// A trainer keeps its algorithm: the sampling rule, the client update, the
// aggregation, and its own state payload after the prefix.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "data/dataset.hpp"
#include "federated/common.hpp"
#include "federated/population.hpp"

namespace mdl::federated {

/// Streaming-aggregation shard count for FedAvg and DP-FedAvg: the cohort
/// is cut into min(cohort, kAggShards) contiguous chunks that fold their
/// uploads into private accumulators in parallel, reduced in fixed chunk
/// order. Part of the numeric contract — results are bit-identical across
/// thread counts, and identical to the strictly-sequential sum whenever
/// cohort <= kAggShards. Also caps the workspace-model pool (one model +
/// one shard scratch per chunk).
inline constexpr std::size_t kAggShards = 16;

class RoundRunner {
 public:
  /// `name` tags checkpoints and prefixes the `<name>.*` metrics;
  /// `client_span` (a string literal) names each client's trace span. The
  /// first factory call draws model() from rng(); with `rng_workspace` the
  /// second draws workspace 0 from it too. Every other workspace is built
  /// from a scratch seed, so rng() never feels the pool growing.
  RoundRunner(std::string name, const char* client_span, ModelFactory factory,
              std::shared_ptr<const ClientPopulation> population,
              std::uint64_t seed, bool rng_workspace);

  Rng& rng() { return rng_; }
  const ClientPopulation& population() const { return *population_; }
  /// The server's model (FedAvg, DP-FedAvg) or evaluation model (selective
  /// SGD).
  nn::Sequential& model() const { return *model_; }
  std::int64_t model_size() const { return model_size_; }
  CommLedger& ledger() { return ledger_; }
  const CommLedger& ledger() const { return ledger_; }
  std::size_t worker_pool_size() const { return workers_.size(); }

  void attach_network(sim::SimNetwork* net) { net_ = net; }
  void attach_wire_codec(const WireCodec* wire) { wire_ = wire; }
  sim::SimNetwork* net() const { return net_; }
  const WireCodec* wire() const { return wire_; }

  // -- Checkpoint state prefix ---------------------------------------------

  /// Prefix state read back from a checkpoint, not yet applied.
  struct Prefix {
    Rng rng;
    CommLedger ledger;
  };
  /// Writes `[name, version]`, the seed, the fault-plan seed, the population
  /// fingerprint, the wire-codec flag, the RNG and the ledger.
  void write_prefix(BinaryWriter& w, std::uint32_t version) const;
  /// Reads the prefix and checks every guard in it. Assigns nothing: a
  /// refused checkpoint leaves the trainer exactly as it was. The trainer
  /// reads and checks its own payload, then calls restore().
  Prefix read_prefix(BinaryReader& r, std::uint32_t version) const;
  void restore(Prefix prefix);
  /// Reads a flat parameter vector and checks it has model_size() entries.
  std::vector<float> read_params(BinaryReader& r) const;

  // -- Round loop ----------------------------------------------------------

  /// Runs rounds 1..`rounds` through a ckpt::TrainerGuard tagged with this
  /// runner's name (see TrainerGuard::run); `round(r)` must close with
  /// close_round(). `round` returns true to stop early.
  void run(std::int64_t rounds, const ckpt::CheckpointConfig& checkpoint,
           const ckpt::HealthConfig& health, double& lr,
           ckpt::PayloadWriter save, ckpt::PayloadReader load,
           const std::function<bool(std::int64_t)>& round);
  /// Closes the round: sets `train_loss` (0 when `loss` is nullopt, i.e. no
  /// upload counted), `test_accuracy` on `test` and `cumulative_bytes`;
  /// health-checks `loss` and `params` (snapshot/persist, or roll back);
  /// publishes the counters `<name>.rounds`, `<name>.round_aborts`,
  /// `<name>.bytes_up/down` (and, with a codec,
  /// `sim.bytes_{up,down}_{compressed,raw}`) over the round's ledger delta
  /// and the gauges `<name>.test_accuracy/train_loss`. Returns (and stores
  /// in `stats`) whether the round was rolled back.
  bool close_round(RoundStats& stats, std::optional<double> loss,
                   std::span<const float> params,
                   const data::TabularDataset& test);

  /// On-wire bytes of a dense float payload: its encoded size with a codec
  /// attached, else 4 bytes per float.
  std::uint64_t dense_bytes(std::span<const float> values) const;

  // -- Exchange and client pass ----------------------------------------------

  struct Cohort {
    /// Clients that did not drop out, in selection order.
    std::vector<std::size_t> reached;
    /// Per reached client: its upload lands in this round's aggregate.
    std::vector<bool> accepted;
    /// The accepted clients, in order.
    std::vector<std::size_t> survivors;
  };
  /// Runs `selected` through the attached SimNetwork, sized by `bytes_down`
  /// / `bytes_up` per client (loss-free without one: everyone survives).
  /// Bills the uplink bytes that delivered nothing — failed attempts, and
  /// uploads into a quorum-aborted round — and fills the RoundStats round,
  /// selection and fault fields. Payload bytes are the trainer's to bill.
  Cohort exchange(std::int64_t round, const std::vector<std::size_t>& selected,
                  std::uint64_t bytes_down, std::uint64_t bytes_up,
                  RoundStats& stats);
  /// exchange() for a round that broadcasts the dense `values` to
  /// `selected`: sized by dense_bytes(values) each way (the uploads are
  /// same-length dense vectors whose encoded sizes only exist after
  /// training), then one download billed per reached client.
  Cohort broadcast(std::int64_t round, const std::vector<std::size_t>& selected,
                   std::span<const float> values, RoundStats& stats);

  /// One client as the pass hands it to the trainer's update.
  struct Client {
    std::size_t index;  ///< position in the pass's client list
    std::size_t id;
    nn::Sequential& model;  ///< this chunk's workspace
    const std::vector<nn::Parameter*>& params;
    const data::TabularDataset& shard;
    Rng& rng;  ///< forked from rng() in client order before the pass
    std::vector<double>& acc;  ///< this chunk's accumulator
  };
  /// Trains `clients` concurrently. The list is cut into at most
  /// `max_chunks` contiguous chunks (chunk_ranges); each chunk owns a
  /// workspace and an `acc_size` float64 accumulator, and visits its
  /// clients in order. Returns the accumulators summed in chunk order — so
  /// the result depends on (clients, max_chunks), never the thread count.
  /// Each update is traced and timed into `<name>.client_us`.
  std::vector<double> client_pass(std::int64_t round,
                                  const std::vector<std::size_t>& clients,
                                  std::size_t max_chunks, std::size_t acc_size,
                                  const std::function<void(const Client&)>& update);

 private:
  void publish(const RoundStats& stats) const;
  void ensure_workspaces(std::size_t n);
  void add_workspace(std::unique_ptr<nn::Sequential> model);

  std::string name_;
  const char* client_span_;
  ModelFactory factory_;
  std::shared_ptr<const ClientPopulation> population_;
  std::uint64_t seed_;
  Rng rng_;
  std::unique_ptr<nn::Sequential> model_;
  std::int64_t model_size_ = 0;
  std::vector<std::unique_ptr<nn::Sequential>> workers_;
  std::vector<data::TabularDataset> shards_;  ///< per-workspace shard scratch
  CommLedger ledger_;
  CommLedger before_;  ///< ledger at the start of the current round
  sim::SimNetwork* net_ = nullptr;
  const WireCodec* wire_ = nullptr;
  std::optional<ckpt::TrainerGuard> guard_;
};

}  // namespace mdl::federated
