#include "privacy/pate.hpp"

#include <algorithm>

#include "data/synthetic.hpp"

namespace mdl::privacy {

// Teachers and the student train at one fixed SGD setting.
constexpr std::int64_t kBatchSize = 16;
constexpr double kLr = 0.1;

PateEnsemble::PateEnsemble(federated::ModelFactory factory,
                           const data::TabularDataset& sensitive,
                           PateConfig config)
    : config_(config), classes_(sensitive.num_classes), rng_(config.seed) {
  MDL_CHECK(config_.num_teachers >= 2, "need at least two teachers");
  MDL_CHECK(config_.noise_scale > 0.0, "noise scale must be positive");
  MDL_CHECK(sensitive.size() >=
                static_cast<std::int64_t>(config_.num_teachers),
            "fewer sensitive examples than teachers");

  const auto shards =
      data::partition_iid(sensitive, config_.num_teachers, rng_);
  teachers_.reserve(shards.size());
  for (const auto& shard : shards) {
    auto teacher = factory(rng_);
    Rng train_rng = rng_.fork();
    federated::local_sgd(*teacher, shard, config_.teacher_epochs,
                         kBatchSize, kLr, train_rng);
    teacher->set_training(false);
    teachers_.push_back(std::move(teacher));
  }
}

std::vector<std::int64_t> PateEnsemble::vote_counts(const Tensor& row) const {
  MDL_CHECK(row.ndim() == 2 && row.shape(0) == 1, "expected a [1, D] row");
  std::vector<std::int64_t> counts(static_cast<std::size_t>(classes_), 0);
  for (const auto& teacher : teachers_) {
    const auto pred = teacher->forward(row).argmax_rows();
    ++counts[static_cast<std::size_t>(pred[0])];
  }
  return counts;
}

std::int64_t PateEnsemble::noisy_label(const Tensor& row) {
  const auto counts = vote_counts(row);
  ++queries_;
  double best = -1e300;
  std::int64_t arg = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const double noisy = static_cast<double>(counts[c]) +
                         rng_.laplace(config_.noise_scale);
    if (noisy > best) {
      best = noisy;
      arg = static_cast<std::int64_t>(c);
    }
  }
  return arg;
}

data::TabularDataset PateEnsemble::label_public(const Tensor& features) {
  MDL_CHECK(features.ndim() == 2, "expected [N, D] features");
  data::TabularDataset out;
  out.num_classes = classes_;
  out.features = features;
  out.labels.reserve(static_cast<std::size_t>(features.shape(0)));
  for (std::int64_t i = 0; i < features.shape(0); ++i)
    out.labels.push_back(noisy_label(features.slice_rows(i, i + 1)));
  return out;
}

PateResult run_pate(federated::ModelFactory factory,
                    const data::TabularDataset& sensitive,
                    const data::TabularDataset& public_set,
                    const data::TabularDataset& test,
                    const PateConfig& config) {
  PateEnsemble ensemble(factory, sensitive, config);
  data::TabularDataset labeled = ensemble.label_public(public_set.features);

  PateResult result;
  result.epsilon = ensemble.epsilon_spent();
  std::size_t agree = 0;
  for (std::size_t i = 0; i < labeled.labels.size(); ++i)
    if (labeled.labels[i] == public_set.labels[i]) ++agree;
  result.label_agreement =
      static_cast<double>(agree) / static_cast<double>(labeled.labels.size());

  Rng student_rng(config.seed + 1);
  auto student = factory(student_rng);
  Rng train_rng(config.seed + 2);
  federated::local_sgd(*student, labeled, config.teacher_epochs,
                       kBatchSize, kLr, train_rng);
  result.student_accuracy = federated::evaluate_accuracy(*student, test);
  return result;
}

}  // namespace mdl::privacy
