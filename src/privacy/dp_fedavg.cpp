#include "privacy/dp_fedavg.hpp"

#include <limits>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "privacy/mechanisms.hpp"

namespace mdl::privacy {

namespace {
// v4: the shared RoundRunner prefix (which adds the ledger); older archives
// are refused.
constexpr std::uint32_t kDpFedAvgStateVersion = 4;
constexpr std::int64_t kBatchSize = 16;  ///< local SGD minibatch rows
}

void DpFedAvgTrainer::save_state(BinaryWriter& w) const {
  runner_.write_prefix(w, kDpFedAvgStateVersion);
  w.write_f64(config_.client_lr);
  w.write_f32_vector(nn::flatten_values(runner_.model().parameters()));
  accountant_.serialize(w);
}

void DpFedAvgTrainer::load_state(BinaryReader& r) {
  federated::RoundRunner::Prefix prefix =
      runner_.read_prefix(r, kDpFedAvgStateVersion);
  const double client_lr = r.read_f64();
  const std::vector<float> w_global = runner_.read_params(r);
  MomentsAccountant accountant = MomentsAccountant::deserialize(r);
  runner_.restore(std::move(prefix));
  config_.client_lr = client_lr;
  nn::unflatten_into_values(w_global, runner_.model().parameters());
  accountant_ = std::move(accountant);
}

DpFedAvgTrainer::DpFedAvgTrainer(
    federated::ModelFactory factory,
    std::shared_ptr<const federated::ClientPopulation> population,
    DpFedAvgConfig config)
    : config_(config),
      runner_("dp_fedavg", "client_update", std::move(factory),
              std::move(population), config.seed, /*rng_workspace=*/true) {
  MDL_CHECK(config_.client_sample_prob > 0.0 &&
                config_.client_sample_prob <= 1.0,
            "client sample probability must be in (0, 1]");
  MDL_CHECK(config_.clip_norm > 0.0, "clip norm must be positive");
  MDL_CHECK(config_.noise_multiplier >= 0.0, "noise multiplier must be >= 0");
}

DpFedAvgTrainer::DpFedAvgTrainer(federated::ModelFactory factory,
                                 std::vector<data::TabularDataset> shards,
                                 DpFedAvgConfig config)
    : DpFedAvgTrainer(std::move(factory),
                      std::make_shared<federated::MaterializedPopulation>(
                          std::move(shards)),
                      config) {}

std::vector<DpRoundStats> DpFedAvgTrainer::run(
    const data::TabularDataset& test) {
  const auto global_params = runner_.model().parameters();
  const auto p_count = static_cast<std::size_t>(runner_.model_size());
  const std::uint64_t model_raw = static_cast<std::uint64_t>(p_count) * 4;
  const double expected_cohort = config_.client_sample_prob *
                                 static_cast<double>(runner_.population().size());
  federated::CommLedger& ledger = runner_.ledger();

  std::vector<DpRoundStats> history;
  history.reserve(static_cast<std::size_t>(config_.rounds));

  const auto round_fn = [&](std::int64_t round) {
    MDL_OBS_SPAN_T("dp_fedavg.round", obs::track_round(round));
    const std::vector<float> w_global = nn::flatten_values(global_params);

    // Modification 1 — independent sampling. The sampled cohort runs the
    // gauntlet of the fault plan; lost updates just shrink the realized
    // cohort — the fixed-denominator estimator keeps the sensitivity
    // bound, so no DP correction is needed.
    federated::RoundStats stats;
    const std::vector<std::size_t> sampled = federated::sample_bernoulli_cohort(
        runner_.rng(), runner_.population().size(), config_.client_sample_prob);
    const federated::RoundRunner::Cohort cohort =
        runner_.broadcast(round, sampled, w_global, stats);
    const std::vector<std::size_t>& participants = cohort.survivors;
    const std::size_t n_clients = participants.size();

    // Every update is clipped to S (modification 2) and summed into its
    // chunk's accumulator; with cohort <= kAggShards the sum is the
    // sequential one bit for bit.
    std::vector<double> client_loss(n_clients, 0.0);
    std::vector<std::uint64_t> delta_wire(n_clients);
    const std::vector<double> update_sum = runner_.client_pass(
        round, participants, federated::kAggShards, p_count,
        [&](const federated::RoundRunner::Client& client) {
          nn::unflatten_into_values(w_global, client.params);
          client_loss[client.index] = federated::local_sgd(
              client.model, client.shard, config_.local_epochs,
              kBatchSize, config_.client_lr, client.rng);
          std::vector<float> update = nn::flatten_values(client.params);
          for (std::size_t i = 0; i < p_count; ++i) update[i] -= w_global[i];
          nn::clip_l2(update, config_.clip_norm);  // modification 2
          // Size of the DP-clipped delta this client uploads; the codec
          // encode is pure, so the call is race-free.
          delta_wire[client.index] = runner_.dense_bytes(update);
          for (std::size_t i = 0; i < p_count; ++i)
            client.acc[i] += static_cast<double>(update[i]);
        });
    double round_loss = 0.0;
    for (std::size_t c = 0; c < n_clients; ++c) {
      round_loss += client_loss[c];
      ledger.encoded_up(delta_wire[c], model_raw);
    }

    if (!stats.aborted) {
      // Modifications 3 + 4: fixed-denominator estimator + Gaussian noise
      // of stddev z * S / (p K) on the averaged update.
      const double sigma =
          config_.noise_multiplier * config_.clip_norm / expected_cohort;
      std::vector<float> w_next(p_count);
      for (std::size_t i = 0; i < p_count; ++i) {
        const double avg_update = update_sum[i] / expected_cohort +
                                  runner_.rng().normal(0.0, sigma);
        w_next[i] = w_global[i] + static_cast<float>(avg_update);
      }
      nn::unflatten_into_values(w_next, global_params);

      if (config_.noise_multiplier > 0.0)
        accountant_.add_steps(1, config_.client_sample_prob,
                              config_.noise_multiplier);
    }
    // An aborted round releases nothing: the global model is unchanged and
    // the moments accountant is not charged.

    // Read before the health gate: a rollback also rewinds the accountant
    // (so the undone round's budget charge is not double-counted), and the
    // history row reports the budget this round spent.
    const double epsilon = config_.noise_multiplier > 0.0
                               ? accountant_.epsilon(kDelta)
                               : std::numeric_limits<double>::infinity();
    // Health gate over the released model. The noisy release can contain
    // non-finite values if training blew up.
    const bool rolled_back = runner_.close_round(
        stats,
        n_clients > 0 ? std::optional<double>(
                            round_loss / static_cast<double>(n_clients))
                      : std::nullopt,
        nn::flatten_values(global_params), test);
    history.push_back({round, stats.test_accuracy, stats.train_loss, epsilon,
                       stats.clients_selected, stats.clients_delivered,
                       stats.aborted, rolled_back});
    return false;
  };
  runner_.run(
      config_.rounds, config_.checkpoint, config_.health, config_.client_lr,
      [this](BinaryWriter& w) { save_state(w); },
      [this](BinaryReader& r) { load_state(r); }, round_fn);
  return history;
}

}  // namespace mdl::privacy
