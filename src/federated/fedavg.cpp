#include "federated/fedavg.hpp"

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"

namespace mdl::federated {

namespace {
// v4: the shared RoundRunner prefix; older archives are refused.
constexpr std::uint32_t kFedAvgStateVersion = 4;
}

void FedAvgTrainer::save_state(BinaryWriter& w) const {
  runner_.write_prefix(w, kFedAvgStateVersion);
  w.write_f64(config_.client_lr);
  w.write_f64(config_.server_lr);
  w.write_f32_vector(nn::flatten_values(runner_.model().parameters()));
}

void FedAvgTrainer::load_state(BinaryReader& r) {
  RoundRunner::Prefix prefix = runner_.read_prefix(r, kFedAvgStateVersion);
  const double client_lr = r.read_f64();
  const double server_lr = r.read_f64();
  const std::vector<float> w_global = runner_.read_params(r);
  runner_.restore(std::move(prefix));
  config_.client_lr = client_lr;
  config_.server_lr = server_lr;
  nn::unflatten_into_values(w_global, runner_.model().parameters());
}

FedAvgTrainer::FedAvgTrainer(ModelFactory factory,
                             std::shared_ptr<const ClientPopulation> population,
                             FedAvgConfig config)
    : config_(config),
      runner_("fedavg", "client_update", std::move(factory),
              std::move(population), config.seed, /*rng_workspace=*/true) {
  MDL_CHECK(config_.clients_per_round > 0 &&
                config_.clients_per_round <=
                    static_cast<std::int64_t>(runner_.population().size()),
            "clients_per_round " << config_.clients_per_round << " vs "
                                 << runner_.population().size() << " clients");
  MDL_CHECK(config_.rounds > 0, "rounds must be positive");
}

FedAvgTrainer::FedAvgTrainer(ModelFactory factory,
                             std::vector<data::TabularDataset> shards,
                             FedAvgConfig config)
    : FedAvgTrainer(std::move(factory),
                    std::make_shared<MaterializedPopulation>(std::move(shards)),
                    config) {}

std::vector<RoundStats> FedAvgTrainer::run(const data::TabularDataset& test) {
  std::vector<RoundStats> history;
  history.reserve(static_cast<std::size_t>(config_.rounds));
  const auto global_params = runner_.model().parameters();
  CommLedger& ledger = runner_.ledger();

  const auto round_fn = [&](std::int64_t round) {
    MDL_OBS_SPAN_T("fedavg.round", obs::track_round(round));
    const std::vector<float> w_global = nn::flatten_values(global_params);
    // O(cohort) sampling; consumes the same rng draws (and returns the
    // same cohort) as the historical sample_without_replacement call.
    const auto selected = sample_cohort(
        runner_.rng(), runner_.population().size(),
        static_cast<std::size_t>(config_.clients_per_round));

    RoundStats stats;
    // The network prices the round by the broadcast encoding while the
    // ledger bills each client's true encoded upload below. Survivors: the
    // clients whose upload the server accepts this round.
    const RoundRunner::Cohort cohort =
        runner_.broadcast(round, selected, w_global, stats);
    const std::vector<std::size_t>& survivors = cohort.survivors;
    const std::uint64_t model_raw =
        static_cast<std::uint64_t>(w_global.size()) * 4;

    double round_loss = 0.0;
    if (!survivors.empty()) {
      // Survivor-weighted aggregation: n_k / n over delivered updates only.
      // shard_size() is O(1) even for virtual populations.
      const std::size_t n_clients = survivors.size();
      std::vector<std::int64_t> sizes(n_clients);
      std::int64_t n_total = 0;
      for (std::size_t c = 0; c < n_clients; ++c) {
        sizes[c] = runner_.population().shard_size(survivors[c]);
        n_total += sizes[c];
      }
      const auto weight = [&](std::size_t c) {
        return static_cast<double>(sizes[c]) / static_cast<double>(n_total);
      };

      // Each chunk streams weight * upload into its accumulator as each
      // client finishes, so live memory is O(chunks x model), never
      // O(cohort x model); with cohort <= kAggShards the chunks are
      // singletons and the sum is bit-identical to the historical
      // strictly-sequential fold (see DESIGN.md).
      std::vector<double> client_loss(n_clients, 0.0);
      std::vector<std::uint64_t> upload_wire(n_clients);
      const std::vector<double> aggregate = runner_.client_pass(
          round, survivors, kAggShards, w_global.size(),
          [&](const RoundRunner::Client& client) {
            // Download current global model to the participant.
            nn::unflatten_into_values(w_global, client.params);
            std::vector<float> upload;
            if (config_.fedsgd) {
              client_loss[client.index] =
                  full_batch_gradient(client.model, client.shard);
              upload = nn::flatten_grads(client.params);
            } else {
              client_loss[client.index] = local_sgd(
                  client.model, client.shard, config_.local_epochs,
                  config_.batch_size, config_.client_lr, client.rng);
              upload = nn::flatten_values(client.params);
            }
            // Per-client upload size; the codec encode is pure, so calling
            // it from the chunk workers is race-free.
            upload_wire[client.index] = runner_.dense_bytes(upload);
            const double w = weight(client.index);
            for (std::size_t i = 0; i < upload.size(); ++i)
              client.acc[i] += w * static_cast<double>(upload[i]);
          });
      for (std::size_t c = 0; c < n_clients; ++c) {
        round_loss += weight(c) * client_loss[c];
        ledger.encoded_up(upload_wire[c], model_raw);
      }

      // Server update.
      std::vector<float> w_next(w_global.size());
      if (config_.fedsgd) {
        for (std::size_t i = 0; i < w_next.size(); ++i)
          w_next[i] = w_global[i] - static_cast<float>(config_.server_lr *
                                                       aggregate[i]);
      } else {
        for (std::size_t i = 0; i < w_next.size(); ++i)
          w_next[i] = static_cast<float>(aggregate[i]);
      }
      nn::unflatten_into_values(w_next, global_params);
    }
    // Aborted (or fully failed) rounds keep the previous global model and
    // carry no meaningful loss.
    runner_.close_round(
        stats,
        survivors.empty() ? std::nullopt : std::optional<double>(round_loss),
        nn::flatten_values(global_params), test);
    history.push_back(stats);

    MDL_OBS_GAUGE_SET("fedavg.peak_rss_bytes",
                      static_cast<double>(obs::peak_rss_bytes()));
    if (config_.on_round) config_.on_round(stats);
    return config_.target_accuracy > 0.0 &&
           stats.test_accuracy >= config_.target_accuracy;
  };
  runner_.run(
      config_.rounds, config_.checkpoint, config_.health, config_.client_lr,
      [this](BinaryWriter& w) { save_state(w); },
      [this](BinaryReader& r) { load_state(r); }, round_fn);
  return history;
}

}  // namespace mdl::federated
