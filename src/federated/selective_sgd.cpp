#include "federated/selective_sgd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace mdl::federated {

namespace {
// v4: the shared RoundRunner prefix; older archives are refused.
constexpr std::uint32_t kSelectiveSgdStateVersion = 4;
constexpr std::int64_t kBatchSize = 16;  ///< local SGD minibatch rows

/// Refills `order` with 0..n-1 and moves the k indices with the largest
/// `key(i)` to its front, in nth_element's (unsorted) order.
template <class Key>
void select_top_k(std::vector<std::size_t>& order, std::size_t k, Key key) {
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   order.end(), [&](std::size_t a, std::size_t b) {
                     return key(a) > key(b);
                   });
}
}  // namespace

void SelectiveSGDTrainer::save_state(BinaryWriter& w) const {
  runner_.write_prefix(w, kSelectiveSgdStateVersion);
  w.write_f64(config_.lr);
  w.write_f32_vector(global_);
  w.write_u32_vector(version_);
  w.write_u64(locals_.size());
  for (const std::vector<float>& local : locals_) w.write_f32_vector(local);
  w.write_u32_vector(seen_version_);
}

void SelectiveSGDTrainer::load_state(BinaryReader& r) {
  RoundRunner::Prefix prefix =
      runner_.read_prefix(r, kSelectiveSgdStateVersion);
  const double lr = r.read_f64();
  std::vector<float> global = runner_.read_params(r);
  std::vector<std::uint32_t> version = r.read_u32_vector();
  MDL_CHECK(version.size() == global.size(), "version vector size mismatch");
  const std::uint64_t n_locals = r.read_u64();
  MDL_CHECK(n_locals == locals_.size(),
            "checkpoint has " << n_locals << " participants, run has "
                              << locals_.size());
  std::vector<std::vector<float>> locals(locals_.size());
  for (std::vector<float>& local : locals) {
    local = r.read_f32_vector();
    MDL_CHECK(local.size() == global.size(), "replica size mismatch");
  }
  std::vector<std::uint32_t> seen_version = r.read_u32_vector();
  MDL_CHECK(seen_version.size() == locals.size() * global.size(),
            "sync-state size mismatch");
  runner_.restore(std::move(prefix));
  config_.lr = lr;
  global_ = std::move(global);
  version_ = std::move(version);
  locals_ = std::move(locals);
  seen_version_ = std::move(seen_version);
}

SelectiveSGDTrainer::SelectiveSGDTrainer(
    ModelFactory factory, std::shared_ptr<const ClientPopulation> population,
    SelectiveSGDConfig config)
    : config_(config),
      runner_("selective_sgd", "participant_update", std::move(factory),
              std::move(population), config.seed, /*rng_workspace=*/false) {
  MDL_CHECK(config_.upload_fraction > 0.0 && config_.upload_fraction <= 1.0,
            "upload fraction must be in (0, 1]");
  MDL_CHECK(config_.download_fraction > 0.0 &&
                config_.download_fraction <= 1.0,
            "download fraction must be in (0, 1]");
  global_ = nn::flatten_values(runner_.model().parameters());
  version_.assign(global_.size(), 0);
  // Every participant starts from the same initialization (downloaded once;
  // not counted in the per-round ledger, matching the usual accounting).
  locals_.assign(runner_.population().size(), global_);
  seen_version_.assign(runner_.population().size() * global_.size(), 0);
}

SelectiveSGDTrainer::SelectiveSGDTrainer(
    ModelFactory factory, std::vector<data::TabularDataset> shards,
    SelectiveSGDConfig config)
    : SelectiveSGDTrainer(
          std::move(factory),
          std::make_shared<MaterializedPopulation>(std::move(shards)),
          config) {}

std::vector<RoundStats> SelectiveSGDTrainer::run(
    const data::TabularDataset& test) {
  const auto params = runner_.model().parameters();
  const std::size_t p_count = global_.size();
  const std::size_t n_participants = runner_.population().size();
  const WireCodec* wire = runner_.wire();
  CommLedger& ledger = runner_.ledger();
  const auto top_k = [&](double fraction) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(fraction * static_cast<double>(p_count))));
  };

  std::vector<RoundStats> history;
  history.reserve(static_cast<std::size_t>(config_.rounds));

  const auto round_fn = [&](std::int64_t round) {
    MDL_OBS_SPAN_T("selective_sgd.round", obs::track_round(round));

    // Per-participant payload sizes without a codec: 4 bytes per float
    // dense, 8 per (index, value) coordinate sparse.
    const bool dense_down = config_.download_fraction >= 1.0;
    const bool dense_up = config_.upload_fraction >= 1.0;
    const std::uint64_t dl_raw =
        dense_down ? static_cast<std::uint64_t>(p_count) * 4
                   : static_cast<std::uint64_t>(
                         top_k(config_.download_fraction)) * 8;
    const std::uint64_t ul_raw =
        dense_up ? static_cast<std::uint64_t>(p_count) * 4
                 : static_cast<std::uint64_t>(top_k(config_.upload_fraction)) *
                       8;
    // On-wire bytes of one download: the full server snapshot's size, the
    // same for every participant (all fetch the same g0), or the raw sparse
    // size, which a codec replaces per participant in the pass.
    const std::uint64_t down_wire =
        dense_down ? runner_.dense_bytes(global_) : dl_raw;

    // With a wire codec attached, the simulated exchange is sized by
    // representative *encoded* payloads. Per-participant payloads (stale
    // coordinates, post-training deltas) only exist later, so the round is
    // priced by streams built from the server vector: the dense broadcast
    // itself, or the top-k-|g0| coordinates as a sparse stand-in (built only
    // with a codec; without one the raw size stands in). The ledger bills
    // each participant's true payload in the merge.
    const auto sparse_stand_in = [&](double fraction,
                                     std::uint64_t raw) -> std::uint64_t {
      if (wire == nullptr) return raw;
      const std::size_t k = top_k(fraction);
      std::vector<std::size_t> order(p_count);
      select_top_k(order, k,
                   [&](std::size_t i) { return std::abs(global_[i]); });
      std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
      std::vector<std::pair<std::uint32_t, float>> coords;
      coords.reserve(k);
      for (std::size_t j = 0; j < k; ++j)
        coords.emplace_back(static_cast<std::uint32_t>(order[j]),
                            global_[order[j]]);
      return wire->sparse_wire_bytes(coords);
    };

    // Fault-injected exchange for the whole population (loss-free without
    // an attached SimNetwork). Coordinate counts are uniform across
    // participants, so payload sizes are too.
    std::uint64_t bytes_down = 0;
    std::uint64_t bytes_up = 0;
    if (runner_.net() != nullptr) {
      bytes_down = dense_down ? down_wire
                              : sparse_stand_in(config_.download_fraction,
                                                dl_raw);
      bytes_up = dense_up
                     ? runner_.dense_bytes(global_)
                     : sparse_stand_in(config_.upload_fraction, ul_raw);
    }
    std::vector<std::size_t> all(n_participants);
    std::iota(all.begin(), all.end(), std::size_t{0});
    RoundStats stats;
    // Every participant that did not drop out trains; only accepted uploads
    // reach the server.
    const RoundRunner::Cohort cohort =
        runner_.exchange(round, all, bytes_down, bytes_up, stats);
    const std::vector<std::size_t>& active = cohort.reached;
    const std::size_t n_active = active.size();

    // Round-start server snapshot: every participant downloads from the
    // same (g0, v0), which is what lets them train concurrently. Accepted
    // uploads merge afterwards in fixed participant order, so the round is
    // bit-identical at every thread count.
    const std::vector<float> g0 = global_;
    const std::vector<std::uint32_t> v0 = version_;

    // Parallel phase: participants are cut into at most kAggShards
    // contiguous chunks, each trained sequentially in one reused workspace.
    // Everything written is per-participant state (pre-forked RNGs, merge
    // in the sequential epilogue); the shared g0/v0 are read-only — so
    // chunking changes no numerics and only caps the workspace pool.
    // Exact encoded wire bytes per participant are filled when a codec is
    // attached (the codec encode is pure, so the calls are race-free).
    std::vector<double> client_loss(n_active, 0.0);
    std::vector<std::vector<std::pair<std::uint32_t, float>>> uploads(
        n_active);
    std::vector<std::uint64_t> dl_wire(n_active, down_wire);
    std::vector<std::uint64_t> ul_wire(n_active, ul_raw);
    runner_.client_pass(
        round, active, kAggShards, 0,
        [&](const RoundRunner::Client& client) {
          const std::size_t c = client.index;
          std::vector<float>& local = locals_[client.id];
          std::uint32_t* seen = seen_version_.data() + client.id * p_count;
          std::vector<std::size_t> order(p_count);

          // -- Download: theta_d fraction of the most-stale coordinates ---
          if (dense_down) {
            for (std::size_t i = 0; i < p_count; ++i) {
              local[i] = g0[i];
              seen[i] = v0[i];
            }
          } else {
            const std::size_t dl = top_k(config_.download_fraction);
            select_top_k(order, dl,
                         [&](std::size_t i) { return v0[i] - seen[i]; });
            for (std::size_t j = 0; j < dl; ++j) {
              const std::size_t i = order[j];
              local[i] = g0[i];
              seen[i] = v0[i];
            }
            if (wire != nullptr) {
              std::vector<std::uint32_t> idx(
                  order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(dl));
              std::sort(idx.begin(), idx.end());
              std::vector<std::pair<std::uint32_t, float>> coords;
              coords.reserve(dl);
              for (const std::uint32_t i : idx) coords.emplace_back(i, g0[i]);
              dl_wire[c] = wire->sparse_wire_bytes(coords);
            }
          }

          // -- Local training ---------------------------------------------
          nn::unflatten_into_values(local, client.params);
          client_loss[c] =
              local_sgd(client.model, client.shard, config_.local_epochs,
                        kBatchSize, config_.lr, client.rng);
          const std::vector<float> after = nn::flatten_values(client.params);

          // -- Upload selection: theta_u largest |accumulated gradient| ---
          if (cohort.accepted[c]) {
            std::vector<float> delta(p_count);
            for (std::size_t i = 0; i < p_count; ++i)
              delta[i] = after[i] - local[i];
            const std::size_t ul = top_k(config_.upload_fraction);
            select_top_k(order, ul,
                         [&](std::size_t i) { return std::abs(delta[i]); });
            uploads[c].reserve(ul);
            for (std::size_t j = 0; j < ul; ++j) {
              const auto i = static_cast<std::uint32_t>(order[j]);
              uploads[c].emplace_back(i, delta[i]);
            }
            if (dense_up) {
              ul_wire[c] = runner_.dense_bytes(delta);
            } else if (wire != nullptr) {
              std::vector<std::pair<std::uint32_t, float>> coords = uploads[c];
              std::sort(coords.begin(), coords.end());
              ul_wire[c] = wire->sparse_wire_bytes(coords);
            }
          }

          local = after;  // the replica keeps all of its own progress
        });

    // Merge (sequential, fixed participant order): accepted uploads land on
    // the server vector and the payloads are billed, so the ledger stays
    // exact and deterministic. A failed (or abort-discarded) upload never
    // reaches the server: the replica keeps its progress, and the runner's
    // exchange already billed the attempted traffic as wasted bytes.
    double round_loss = 0.0;
    for (std::size_t c = 0; c < n_active; ++c) {
      round_loss += client_loss[c];
      ledger.encoded_down(dl_wire[c], dl_raw);
      if (cohort.accepted[c]) {
        for (const auto& [i, d] : uploads[c]) {
          global_[i] += d;
          ++version_[i];
        }
        ledger.encoded_up(ul_wire[c], ul_raw);
      }
    }

    nn::unflatten_into_values(global_, params);
    // Health gate over the server vector; rounds where nobody participated
    // carry no meaningful loss.
    runner_.close_round(
        stats,
        n_active > 0
            ? std::optional<double>(round_loss / static_cast<double>(n_active))
            : std::nullopt,
        global_, test);
    history.push_back(stats);
    return false;
  };
  runner_.run(
      config_.rounds, config_.checkpoint, config_.health, config_.lr,
      [this](BinaryWriter& w) { save_state(w); },
      [this](BinaryReader& r) { load_state(r); }, round_fn);
  return history;
}

double SelectiveSGDTrainer::participant_accuracy(
    std::size_t k, const data::TabularDataset& test) {
  MDL_CHECK(k < locals_.size(), "participant index out of range");
  nn::unflatten_into_values(locals_[k], runner_.model().parameters());
  return evaluate_accuracy(runner_.model(), test);
}

}  // namespace mdl::federated
