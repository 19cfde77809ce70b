#include "federated/round_runner.hpp"

#include <chrono>

#include "core/threadpool.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sim_network.hpp"

namespace mdl::federated {

RoundRunner::RoundRunner(std::string name, const char* client_span,
                         ModelFactory factory,
                         std::shared_ptr<const ClientPopulation> population,
                         std::uint64_t seed, bool rng_workspace)
    : name_(std::move(name)),
      client_span_(client_span),
      factory_(std::move(factory)),
      population_(std::move(population)),
      seed_(seed),
      rng_(seed) {
  MDL_CHECK(population_ != nullptr && population_->size() > 0,
            "need at least one client shard");
  model_ = factory_(rng_);
  model_size_ = nn::total_size(model_->parameters());
  if (rng_workspace) add_workspace(factory_(rng_));
}

void RoundRunner::add_workspace(std::unique_ptr<nn::Sequential> model) {
  MDL_CHECK(nn::total_size(model->parameters()) == model_size_,
            "factory produced differently sized models");
  workers_.push_back(std::move(model));
  shards_.emplace_back();
}

void RoundRunner::ensure_workspaces(std::size_t n) {
  while (workers_.size() < n) {
    // Throwaway RNG: workspace weights are overwritten before use.
    Rng scratch(seed_ ^ (0x9E3779B97F4A7C15ULL * (workers_.size() + 1)));
    add_workspace(factory_(scratch));
  }
}

void RoundRunner::write_prefix(BinaryWriter& w, std::uint32_t version) const {
  ckpt::write_state_header(w, name_, version);
  w.write_u64(seed_);
  w.write_u8(net_ != nullptr ? 1 : 0);
  if (net_ != nullptr) w.write_u64(net_->plan().seed);
  w.write_u64(population_->fingerprint());
  w.write_u8(wire_ != nullptr ? 1 : 0);
  rng_.serialize(w);
  w.write_u64(ledger_.bytes_up);
  w.write_u64(ledger_.bytes_down);
  w.write_u64(ledger_.bytes_up_raw);
  w.write_u64(ledger_.bytes_down_raw);
}

RoundRunner::Prefix RoundRunner::read_prefix(BinaryReader& r,
                                             std::uint32_t version) const {
  ckpt::read_state_header(r, name_, version);
  const std::uint64_t seed = r.read_u64();
  MDL_CHECK(seed == seed_, "checkpoint was written with seed "
                               << seed << ", run uses " << seed_);
  const bool had_net = r.read_u8() != 0;
  MDL_CHECK(had_net == (net_ != nullptr),
            "checkpoint and run disagree on fault-network attachment");
  if (had_net) {
    const std::uint64_t plan_seed = r.read_u64();
    MDL_CHECK(plan_seed == net_->plan().seed,
              "checkpoint fault plan seed " << plan_seed << " vs "
                                            << net_->plan().seed);
  }
  const std::uint64_t fp = r.read_u64();
  MDL_CHECK(fp == population_->fingerprint(),
            "checkpoint population fingerprint "
                << fp << " vs " << population_->fingerprint()
                << " — resumed against a different client population");
  const bool had_wire = r.read_u8() != 0;
  MDL_CHECK(had_wire == (wire_ != nullptr),
            "checkpoint and run disagree on wire-codec attachment");
  Prefix prefix{Rng::deserialize(r), {}};
  prefix.ledger.bytes_up = r.read_u64();
  prefix.ledger.bytes_down = r.read_u64();
  prefix.ledger.bytes_up_raw = r.read_u64();
  prefix.ledger.bytes_down_raw = r.read_u64();
  return prefix;
}

void RoundRunner::restore(Prefix prefix) {
  rng_ = prefix.rng;
  ledger_ = prefix.ledger;
}

std::vector<float> RoundRunner::read_params(BinaryReader& r) const {
  std::vector<float> params = r.read_f32_vector();
  MDL_CHECK(static_cast<std::int64_t>(params.size()) == model_size_,
            "checkpoint model has " << params.size() << " params, expected "
                                    << model_size_);
  return params;
}

void RoundRunner::run(std::int64_t rounds,
                      const ckpt::CheckpointConfig& checkpoint,
                      const ckpt::HealthConfig& health, double& lr,
                      ckpt::PayloadWriter save, ckpt::PayloadReader load,
                      const std::function<bool(std::int64_t)>& round) {
  guard_.emplace(checkpoint, health, name_);
  guard_->run(rounds, lr, std::move(save), std::move(load),
              [&](std::int64_t r) {
                before_ = ledger_;
                return round(r);
              });
}

bool RoundRunner::close_round(RoundStats& stats, std::optional<double> loss,
                              std::span<const float> params,
                              const data::TabularDataset& test) {
  stats.train_loss = loss.value_or(0.0);
  stats.test_accuracy = evaluate_accuracy(*model_, test);
  stats.cumulative_bytes = ledger_.total();
  stats.rolled_back = guard_->end_round(stats.round, loss, params);
  publish(stats);
  return stats.rolled_back;
}

std::uint64_t RoundRunner::dense_bytes(std::span<const float> values) const {
  return wire_ != nullptr ? wire_->dense_wire_bytes(values)
                          : static_cast<std::uint64_t>(values.size()) * 4;
}

void RoundRunner::publish(const RoundStats& stats) const {
  // After a rollback the ledger is back at its round-start value, so the
  // undone round publishes no bytes.
  const std::uint64_t up = ledger_.bytes_up - before_.bytes_up;
  const std::uint64_t down = ledger_.bytes_down - before_.bytes_down;
  if (wire_ != nullptr) {
    MDL_OBS_COUNTER_ADD("sim.bytes_up_compressed", up);
    MDL_OBS_COUNTER_ADD("sim.bytes_down_compressed", down);
    MDL_OBS_COUNTER_ADD("sim.bytes_up_raw",
                        ledger_.bytes_up_raw - before_.bytes_up_raw);
    MDL_OBS_COUNTER_ADD("sim.bytes_down_raw",
                        ledger_.bytes_down_raw - before_.bytes_down_raw);
  }
  // The names vary per trainer, so they cannot use the per-site caching
  // macros; one registry lookup per metric per round.
  if constexpr (obs::kEnabled) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.counter(name_ + ".rounds").add(1);
    if (stats.aborted) reg.counter(name_ + ".round_aborts").add(1);
    reg.counter(name_ + ".bytes_up").add(up);
    reg.counter(name_ + ".bytes_down").add(down);
    reg.gauge(name_ + ".test_accuracy").set(stats.test_accuracy);
    reg.gauge(name_ + ".train_loss").set(stats.train_loss);
  }
}

RoundRunner::Cohort RoundRunner::exchange(
    std::int64_t round, const std::vector<std::size_t>& selected,
    std::uint64_t bytes_down, std::uint64_t bytes_up, RoundStats& stats) {
  Cohort cohort;
  stats.round = round;
  stats.clients_selected = static_cast<std::int64_t>(selected.size());
  if (net_ == nullptr) {
    cohort.reached = selected;
    cohort.accepted.assign(selected.size(), true);
    cohort.survivors = selected;
    stats.clients_delivered = stats.clients_selected;
    return cohort;
  }
  const sim::RoundReport report =
      net_->run_round(round, selected, bytes_down, bytes_up);
  for (const sim::ClientExchange& ex : report.clients) {
    if (ex.outcome == sim::Outcome::kDropout) continue;
    // Failed attempts count even when a later retry succeeded; an upload
    // delivered into an aborted round is discarded, but its bytes flew.
    ledger_.wasted_up(ex.bytes_wasted);
    if (ex.delivered() && report.aborted) ledger_.wasted_up(ex.bytes_up_ok);
    const bool accepted = ex.delivered() && !report.aborted;
    cohort.reached.push_back(ex.client);
    cohort.accepted.push_back(accepted);
    if (accepted) cohort.survivors.push_back(ex.client);
  }
  stats.clients_delivered = report.delivered;
  stats.dropouts = report.dropouts;
  stats.deadline_misses = report.deadline_misses;
  stats.retries = report.retries;
  stats.bytes_wasted = report.bytes_wasted;
  stats.aborted = report.aborted;
  stats.sim_latency_s = report.round_latency_s;
  stats.sim_energy_j = report.device_energy_j;
  return cohort;
}

RoundRunner::Cohort RoundRunner::broadcast(
    std::int64_t round, const std::vector<std::size_t>& selected,
    std::span<const float> values, RoundStats& stats) {
  const std::uint64_t wire = dense_bytes(values);
  const std::uint64_t raw = static_cast<std::uint64_t>(values.size()) * 4;
  Cohort cohort = exchange(round, selected, wire, wire, stats);
  for (std::size_t c = 0; c < cohort.reached.size(); ++c)
    ledger_.encoded_down(wire, raw);
  return cohort;
}

std::vector<double> RoundRunner::client_pass(
    [[maybe_unused]] std::int64_t round,
    const std::vector<std::size_t>& clients,
    std::size_t max_chunks, std::size_t acc_size,
    const std::function<void(const Client&)>& update) {
  // Forked sequentially in client order: the same rng_ stream as a serial
  // loop, whatever the thread count.
  std::vector<Rng> rngs;
  rngs.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) rngs.push_back(rng_.fork());

  const std::vector<ChunkRange> chunks = chunk_ranges(clients.size(), max_chunks);
  ensure_workspaces(chunks.size());
  std::vector<double> client_us(clients.size(), 0.0);
  std::vector<std::vector<double>> chunk_acc(chunks.size());
  parallel_for(shared_pool(), chunks.size(), [&](std::size_t s) {
    nn::Sequential& model = *workers_[s];
    const std::vector<nn::Parameter*> params = model.parameters();
    std::vector<double>& acc = chunk_acc[s];
    acc.assign(acc_size, 0.0);
    for (std::size_t c = chunks[s].begin; c < chunks[s].end; ++c) {
      MDL_OBS_SPAN_T(client_span_, obs::track_round_client(round, clients[c]));
      const auto t0 = std::chrono::steady_clock::now();
      update({c, clients[c], model, params,
              population_->shard(clients[c], shards_[s]), rngs[c], acc});
      client_us[c] = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    }
  });

  std::vector<double> sum(acc_size, 0.0);
  for (const std::vector<double>& acc : chunk_acc)
    for (std::size_t i = 0; i < acc.size(); ++i) sum[i] += acc[i];
  // Observed after the join, so the hot loop touches no shared metric state.
  if constexpr (obs::kEnabled) {
    obs::Histogram& hist =
        obs::MetricsRegistry::global().histogram(name_ + ".client_us");
    for (const double us : client_us) hist.observe(us);
  }
  return sum;
}

}  // namespace mdl::federated
