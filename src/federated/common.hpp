// Shared machinery for the distributed-training simulators (§II).
//
// All federated/distributed schemes in the paper operate on the same
// primitives: a shared model architecture instantiated on a parameter
// server and on every participant, local SGD over a private shard, and
// communication of (subsets of) flattened parameter vectors. This header
// provides those primitives plus exact communication accounting — the
// currency in which §II-B's "10-100x less communication" claim is measured.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/random.hpp"
#include "core/serialize.hpp"
#include "data/dataset.hpp"
#include "nn/module.hpp"
#include "nn/param_utils.hpp"

namespace mdl::sim {
class SimNetwork;
}

namespace mdl::federated {

/// Builds a fresh model instance; every call must produce the same
/// architecture (weights may differ — the trainer overwrites them).
using ModelFactory = std::function<std::unique_ptr<nn::Sequential>(Rng&)>;

/// Standard MLP factory for the federated experiments:
/// in -> hidden (ReLU) -> classes.
ModelFactory mlp_factory(std::int64_t in_features, std::int64_t hidden,
                         std::int64_t classes);

/// Prices federated payloads in *encoded* bytes on the wire. Implemented in
/// mdl::compress (quantize + BlockCodec entropy coding) and attached to a
/// trainer via attach_wire_codec(); the trainer itself stays codec-agnostic
/// (mdl_federated cannot link mdl_compress — the dependency points the other
/// way). A wire codec changes only the byte accounting and the simulated
/// network's view of transfer sizes; the training math is untouched.
class WireCodec {
 public:
  virtual ~WireCodec() = default;
  /// Encoded wire bytes for a dense float payload (model broadcast, FedAvg
  /// upload, DP-clipped delta).
  virtual std::uint64_t dense_wire_bytes(std::span<const float> values) const = 0;
  /// Encoded wire bytes for a sparse (index, value) payload with indices
  /// strictly ascending (selective-SGD top-k exchange).
  virtual std::uint64_t sparse_wire_bytes(
      std::span<const std::pair<std::uint32_t, float>> coords) const = 0;
};

/// Byte-exact communication ledger. Parameters/gradients travel as float32;
/// sparse (selective) transfers additionally pay 4 bytes per coordinate
/// index, matching the cost model of Shokri & Shmatikov.
///
/// bytes_up/bytes_down are *on-wire* bytes — equal to the raw accounting
/// unless the trainer has a WireCodec attached, in which case encoded_up /
/// encoded_down bill the entropy-coded size while bytes_*_raw keeps the
/// uncompressed float/coord bill for the compressed-vs-raw sweeps.
struct CommLedger {
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up_raw = 0;
  std::uint64_t bytes_down_raw = 0;

  /// One transfer: `wire` bytes crossed the radio standing in for `raw`
  /// uncompressed ones (equal without a codec).
  void encoded_up(std::uint64_t wire, std::uint64_t raw) {
    bytes_up += wire;
    bytes_up_raw += raw;
  }
  void encoded_down(std::uint64_t wire, std::uint64_t raw) {
    bytes_down += wire;
    bytes_down_raw += raw;
  }
  /// Raw uplink traffic that delivered nothing (truncated/corrupted/stale
  /// uploads injected by mdl::sim) — it still crossed the radio, so it
  /// counts toward the communication bill.
  void wasted_up(std::uint64_t bytes) {
    bytes_up += bytes;
    bytes_up_raw += bytes;
  }
  std::uint64_t total() const { return bytes_up + bytes_down; }
};

/// Per-round metrics emitted by the trainers. The sim_* / fault fields stay
/// zero unless a mdl::sim::SimNetwork is attached to the trainer.
struct RoundStats {
  std::int64_t round = 0;
  double test_accuracy = 0.0;
  double train_loss = 0.0;
  std::uint64_t cumulative_bytes = 0;
  std::int64_t clients_selected = 0;
  std::int64_t clients_delivered = 0;
  std::int64_t dropouts = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t retries = 0;
  std::uint64_t bytes_wasted = 0;
  bool aborted = false;          ///< quorum not met; global model unchanged
  double sim_latency_s = 0.0;    ///< simulated synchronous-round latency
  double sim_energy_j = 0.0;     ///< simulated device energy for the round
  /// The round tripped the health guard and was undone (ckpt::TrainerGuard);
  /// training replayed it from the last-good state.
  bool rolled_back = false;

  bool operator==(const RoundStats&) const = default;
};

/// Versioned binary round-trip for round state, so a federated run's
/// history can be archived next to its model checkpoint and replayed.
void serialize_round_stats(BinaryWriter& w, const RoundStats& s);
RoundStats deserialize_round_stats(BinaryReader& r);

/// Draws `k` distinct client ids uniformly from [0, n) in O(k) time and
/// memory — a sparse-map partial Fisher-Yates that produces *exactly* the
/// same sample (and consumes exactly the same Rng draws) as
/// Rng::sample_without_replacement, without ever building the O(n)
/// permutation vector. This is what lets a trainer pick a 100-client
/// cohort out of a 1M-client population per round.
std::vector<std::size_t> sample_cohort(Rng& rng, std::size_t n,
                                       std::size_t k);

/// Samples each of [0, n) independently with probability p (DP-FedAvg's
/// "modification 1") via geometric gap skipping: O(expected cohort) draws
/// instead of n Bernoulli draws, identical selection distribution. Returns
/// the selected ids in increasing order.
std::vector<std::size_t> sample_bernoulli_cohort(Rng& rng, std::size_t n,
                                                 double p);

/// One contiguous range of cohort indices, processed sequentially by a
/// single aggregation shard.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
  std::size_t size() const { return end - begin; }
};

/// Balanced contiguous partition of [0, n) into min(n, max_chunks) ranges
/// (sizes differ by at most one, earlier chunks get the extras). The
/// partition depends only on (n, max_chunks) — never on the thread count —
/// which is the basis of the streaming aggregator's bit-reproducibility:
/// each chunk folds its clients in index order into a private accumulator,
/// and chunks reduce in fixed order afterwards. When every chunk holds one
/// client (n <= max_chunks) the fold order degenerates to the historical
/// strictly-sequential sum, bit for bit.
std::vector<ChunkRange> chunk_ranges(std::size_t n, std::size_t max_chunks);

/// Runs `epochs` of minibatch SGD on `model` over `shard`. Returns the mean
/// training loss of the final epoch.
double local_sgd(nn::Sequential& model, const data::TabularDataset& shard,
                 std::int64_t epochs, std::int64_t batch_size, double lr,
                 Rng& rng);

/// One full-batch gradient of the cross-entropy loss at the current
/// parameters; gradients are left in the model's Parameter::grad slots.
/// Returns the loss.
double full_batch_gradient(nn::Sequential& model,
                           const data::TabularDataset& shard);

/// Classification accuracy of `model` on `ds` (runs in inference mode).
double evaluate_accuracy(nn::Sequential& model, const data::TabularDataset& ds);

}  // namespace mdl::federated
