#include "split/reconstruction.hpp"

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace mdl::split {

ReconstructionReport reconstruction_attack(
    SplitInference& system, const data::TabularDataset& attacker_data,
    const data::TabularDataset& victim_data, const PerturbConfig& perturb,
    const AttackConfig& config) {
  MDL_CHECK(attacker_data.size() > 0 && victim_data.size() > 0,
            "attack needs non-empty datasets");
  MDL_CHECK(attacker_data.dim() == victim_data.dim(), "feature dim mismatch");

  Rng rng(config.seed);
  const std::int64_t input_dim = attacker_data.dim();
  const std::int64_t rep_dim = system.representation_dim(input_dim);

  nn::Sequential decoder;
  decoder.emplace<nn::Linear>(rep_dim, config.hidden, rng);
  decoder.emplace<nn::ReLU>();
  decoder.emplace<nn::Linear>(config.hidden, input_dim, rng);
  nn::Adam optimizer(decoder.parameters(), config.lr * 0.1);
  nn::MeanSquaredError mse;

  const Tensor clean_rep =
      system.local_representation(attacker_data.features);
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto batches = data::minibatch_indices(
        static_cast<std::size_t>(attacker_data.size()),
        static_cast<std::size_t>(config.batch_size), rng);
    for (const auto& batch : batches) {
      // The attacker only ever sees what the phone transmits.
      const Tensor reps =
          system.perturb(clean_rep.gather_rows(batch), perturb, rng);
      mse.forward(decoder.forward(reps),
                  attacker_data.features.gather_rows(batch));
      decoder.zero_grad();
      decoder.backward(mse.backward());
      optimizer.step();
    }
  }

  // Evaluate on victims (fresh perturbation draws, several repeats).
  double err = 0.0;
  const int reps_count = 3;
  for (int r = 0; r < reps_count; ++r) {
    Rng eval_rng(config.seed + 100 + static_cast<std::uint64_t>(r));
    Tensor rep = system.perturb(
        system.local_representation(victim_data.features), perturb, eval_rng);
    err += mse.forward(decoder.forward(rep), victim_data.features);
  }
  err /= reps_count;

  // Input variance (per scalar) for normalization.
  const double mean = victim_data.features.mean();
  double var = 0.0;
  for (std::int64_t i = 0; i < victim_data.features.size(); ++i) {
    const double d = victim_data.features[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(victim_data.features.size());

  ReconstructionReport report;
  report.mse = err;
  report.relative_error = var > 0.0 ? err / var : 0.0;
  return report;
}

}  // namespace mdl::split
