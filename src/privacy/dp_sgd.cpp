#include "privacy/dp_sgd.hpp"

#include <cmath>

#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "privacy/mechanisms.hpp"

namespace mdl::privacy {

DpSgdResult train_dp_sgd(nn::Sequential& model,
                         const data::TabularDataset& train,
                         const data::TabularDataset& test,
                         const DpSgdConfig& config) {
  MDL_CHECK(train.size() > 0, "empty training set");
  MDL_CHECK(config.lot_size > 0 && config.lot_size <= train.size(),
            "lot size must be in [1, N]");
  MDL_CHECK(config.clip_norm > 0.0, "clip norm must be positive");
  MDL_CHECK(config.noise_multiplier >= 0.0, "noise multiplier must be >= 0");

  const auto n = static_cast<std::size_t>(train.size());
  const double q = static_cast<double>(config.lot_size) /
                   static_cast<double>(train.size());
  const auto steps_per_epoch = static_cast<std::int64_t>(
      std::llround(1.0 / q));  // one epoch in expectation
  Rng rng(config.seed);
  const auto params = model.parameters();
  const std::size_t p_count =
      static_cast<std::size_t>(nn::total_size(params));

  MomentsAccountant accountant;
  nn::SoftmaxCrossEntropy loss;
  std::int64_t steps = 0;
  double lr = config.lr;  // decayed by the guard after a rollback

  constexpr std::uint32_t kDpSgdStateVersion = 1;
  ckpt::TrainerGuard guard(config.checkpoint, config.health, "dp_sgd");
  const ckpt::PayloadWriter save = [&](BinaryWriter& w) {
    ckpt::write_state_header(w, "dp_sgd", kDpSgdStateVersion);
    w.write_u64(config.seed);
    w.write_f64(lr);
    rng.serialize(w);
    w.write_f32_vector(nn::flatten_values(params));
    w.write_i64(steps);
    accountant.serialize(w);
  };
  const ckpt::PayloadReader load = [&](BinaryReader& r) {
    ckpt::read_state_header(r, "dp_sgd", kDpSgdStateVersion);
    const std::uint64_t seed = r.read_u64();
    MDL_CHECK(seed == config.seed, "checkpoint was written with seed "
                                       << seed << ", run uses "
                                       << config.seed);
    lr = r.read_f64();
    rng = Rng::deserialize(r);
    const std::vector<float> w = r.read_f32_vector();
    MDL_CHECK(w.size() == p_count, "checkpoint model has "
                                       << w.size() << " params, expected "
                                       << p_count);
    nn::unflatten_into_values(w, params);
    steps = r.read_i64();
    accountant = MomentsAccountant::deserialize(r);
  };
  // Guard round r trains epoch r - 1.
  model.set_training(true);
  guard.run(config.epochs, lr, save, load, [&](std::int64_t round) {
    double epoch_loss_sum = 0.0;
    std::int64_t epoch_lots = 0;
    std::int64_t epoch_steps = 0;
    for (std::int64_t s = 0; s < steps_per_epoch; ++s) {
      MDL_OBS_SPAN("dp_sgd.step");
      // Poisson subsampling: each example joins the lot with probability q.
      std::vector<std::size_t> lot;
      for (std::size_t i = 0; i < n; ++i)
        if (rng.bernoulli(q)) lot.push_back(i);
      if (lot.empty()) continue;
      MDL_OBS_COUNTER_ADD("dp_sgd.examples_processed", lot.size());
      MDL_OBS_HISTOGRAM_OBSERVE("dp_sgd.lot_size",
                                static_cast<double>(lot.size()));

      std::vector<double> grad_sum(p_count, 0.0);
      double lot_loss = 0.0;
      for (const std::size_t i : lot) {
        // Per-example forward/backward (microbatch of one) so the clip is
        // genuinely per example.
        Tensor x = train.features
                       .slice_rows(static_cast<std::int64_t>(i),
                                   static_cast<std::int64_t>(i) + 1);
        const std::int64_t y[] = {train.labels[i]};
        const Tensor logits = model.forward(x);
        lot_loss += loss.forward(logits, y);
        model.zero_grad();
        model.backward(loss.backward());
        nn::clip_grad_global_norm(params, config.clip_norm);
        const std::vector<float> g = nn::flatten_grads(params);
        for (std::size_t j = 0; j < p_count; ++j)
          grad_sum[j] += static_cast<double>(g[j]);
      }

      // Noise the sum, normalize by the expected lot size, and step.
      const double sigma = config.noise_multiplier * config.clip_norm;
      std::vector<float> noisy(p_count);
      for (std::size_t j = 0; j < p_count; ++j)
        noisy[j] = static_cast<float>(
            (grad_sum[j] + rng.normal(0.0, sigma)) /
            static_cast<double>(config.lot_size));

      std::size_t off = 0;
      for (nn::Parameter* p : params) {
        for (std::int64_t j = 0; j < p->value.size(); ++j)
          p->value[j] -= static_cast<float>(lr) * noisy[off + static_cast<std::size_t>(j)];
        off += static_cast<std::size_t>(p->value.size());
        p->grad.zero();
      }
      epoch_loss_sum += lot_loss / static_cast<double>(lot.size());
      ++epoch_lots;
      ++steps;
      ++epoch_steps;
      MDL_OBS_COUNTER_ADD("dp_sgd.steps", 1);
    }

    // The budget is charged per epoch (not once at the end) so that the
    // checkpointed accountant always reflects exactly the steps taken.
    if (config.noise_multiplier > 0.0)
      accountant.add_steps(epoch_steps, q, config.noise_multiplier);

    const std::optional<double> epoch_loss =
        epoch_lots > 0
            ? std::optional<double>(epoch_loss_sum /
                                    static_cast<double>(epoch_lots))
            : std::nullopt;
    guard.end_round(round, epoch_loss, nn::flatten_values(params));
    return false;
  });

  DpSgdResult result;
  result.steps = steps;
  result.rollbacks = guard.rollbacks();
  result.test_accuracy = federated::evaluate_accuracy(model, test);
  result.epsilon = config.noise_multiplier > 0.0
                       ? accountant.epsilon(kDelta)
                       : std::numeric_limits<double>::infinity();
  MDL_OBS_GAUGE_SET("dp_sgd.test_accuracy", result.test_accuracy);
  MDL_OBS_GAUGE_SET("dp_sgd.epsilon", result.epsilon);
  return result;
}

}  // namespace mdl::privacy
