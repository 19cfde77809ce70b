#include "ml/random_forest.hpp"

#include <cmath>

namespace mdl::ml {

constexpr std::int64_t kMinSamplesLeaf = 1;  ///< trees grow to pure leaves

RandomForest::RandomForest(ForestConfig config) : config_(config) {
  MDL_CHECK(config.num_trees > 0, "forest needs >= 1 tree");
}

void RandomForest::fit(const data::TabularDataset& train) {
  MDL_CHECK(train.size() > 0, "empty training set");
  classes_ = train.num_classes;
  dim_ = train.dim();
  // Features per split: floor(sqrt(dim)).
  const std::int64_t max_features = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::floor(std::sqrt(static_cast<double>(dim_)))));

  const auto n = static_cast<std::size_t>(train.size());
  Rng seeder(config_.seed);

  // Pre-draw bootstrap samples and tree seeds sequentially so the fit is
  // deterministic regardless of thread scheduling.
  std::vector<std::vector<std::size_t>> bootstraps(
      static_cast<std::size_t>(config_.num_trees));
  std::vector<std::uint64_t> tree_seeds(
      static_cast<std::size_t>(config_.num_trees));
  for (std::size_t b = 0; b < bootstraps.size(); ++b) {
    bootstraps[b].resize(n);
    for (auto& idx : bootstraps[b])
      idx = static_cast<std::size_t>(
          seeder.uniform_int(static_cast<std::int64_t>(n)));
    tree_seeds[b] = seeder.next_u64();
  }

  trees_.clear();
  trees_.reserve(bootstraps.size());
  for (std::size_t b = 0; b < bootstraps.size(); ++b) {
    TreeConfig tc;
    tc.max_depth = config_.max_depth;
    tc.min_samples_leaf = kMinSamplesLeaf;
    tc.max_features = max_features;
    tc.seed = tree_seeds[b];
    trees_.emplace_back(tc);
  }

  parallel_for(pool_, trees_.size(), [&](std::size_t b) {
    trees_[b].fit_indices(train, bootstraps[b]);
  });
}

std::vector<std::int64_t> RandomForest::predict(const Tensor& features) const {
  MDL_CHECK(!trees_.empty(), "predict before fit");
  MDL_CHECK(features.ndim() == 2 && features.shape(1) == dim_,
            "feature shape mismatch");
  const std::int64_t n = features.shape(0);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  std::vector<double> votes(static_cast<std::size_t>(classes_));
  for (std::int64_t i = 0; i < n; ++i) {
    std::fill(votes.begin(), votes.end(), 0.0);
    const std::span<const float> row{features.data() + i * dim_,
                                     static_cast<std::size_t>(dim_)};
    // Soft voting (summed leaf probabilities) is slightly stronger than
    // hard majority and matches sklearn's default.
    for (const DecisionTree& tree : trees_) {
      const auto p = tree.predict_proba_one(row);
      for (std::size_t c = 0; c < votes.size(); ++c) votes[c] += p[c];
    }
    out[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
  }
  return out;
}

}  // namespace mdl::ml
