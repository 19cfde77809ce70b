// Private Aggregation of Teacher Ensembles (Papernot et al., ICLR'17) —
// the third privacy-preserving training approach §II-C describes: "a
// student model [is trained] to predict an output chosen by noisy voting
// among all of the teacher models which are trained by the sensitive data
// locally. The individual teacher model and its parameters are
// inaccessible."
//
// The sensitive dataset is partitioned disjointly among teachers; each
// teacher trains privately. Labeling a public example adds Laplace noise
// to the per-class vote counts (LNMax) and releases only the arg-max.
// Changing one sensitive example can change at most one teacher's vote,
// i.e. two counts by 1 each, so each query is (2 / noise_scale)-DP; the
// ensemble tracks the total budget under basic composition.
#pragma once

#include <memory>

#include "federated/common.hpp"

namespace mdl::privacy {

struct PateConfig {
  std::size_t num_teachers = 10;
  std::int64_t teacher_epochs = 10;
  /// Laplace scale b on each vote count; per-query epsilon = 2 / b.
  double noise_scale = 2.0;
  std::uint64_t seed = 37;
};

/// Teacher ensemble with a differentially private labeling interface.
class PateEnsemble {
 public:
  /// Partitions `sensitive` into `num_teachers` disjoint IID shards and
  /// trains one model per shard.
  PateEnsemble(federated::ModelFactory factory,
               const data::TabularDataset& sensitive, PateConfig config);

  /// Raw (non-private) per-class vote counts for one feature row —
  /// diagnostic only; never released in the private protocol.
  std::vector<std::int64_t> vote_counts(const Tensor& row) const;

  /// Differentially private label for one [1, D] feature row (LNMax).
  std::int64_t noisy_label(const Tensor& row);

  /// Labels a public feature matrix, consuming one query per row.
  data::TabularDataset label_public(const Tensor& features);

  /// Per-query epsilon (= 2 / noise_scale).
  double epsilon_per_query() const { return 2.0 / config_.noise_scale; }
  /// Total budget under basic composition.
  double epsilon_spent() const {
    return static_cast<double>(queries_) * epsilon_per_query();
  }
  std::int64_t queries() const { return queries_; }
  std::size_t num_teachers() const { return teachers_.size(); }
  std::int64_t num_classes() const { return classes_; }

 private:
  PateConfig config_;
  std::int64_t classes_;
  std::vector<std::unique_ptr<nn::Sequential>> teachers_;
  Rng rng_;
  std::int64_t queries_ = 0;
};

/// End-to-end PATE: trains the teacher ensemble on `sensitive`, privately
/// labels `public_features`, trains a student on the noisy labels, and
/// returns the student's accuracy on `test` plus the spent budget.
struct PateResult {
  double student_accuracy = 0.0;
  double epsilon = 0.0;
  double label_agreement = 0.0;  ///< noisy labels matching true labels
};
PateResult run_pate(federated::ModelFactory factory,
                    const data::TabularDataset& sensitive,
                    const data::TabularDataset& public_set,
                    const data::TabularDataset& test,
                    const PateConfig& config);

}  // namespace mdl::privacy
