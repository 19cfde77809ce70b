// CART decision tree (classification, Gini impurity) with exact greedy
// splits. Serves standalone as the "Decision Tree" row of Table I and as
// the base learner of RandomForest (which enables per-split feature
// subsampling through TreeConfig::max_features).
#pragma once

#include "core/random.hpp"
#include "ml/classifier.hpp"

namespace mdl::ml {

struct TreeConfig {
  std::int64_t max_depth = 12;
  std::int64_t min_samples_leaf = 1;
  /// Features considered per split: -1 = all, otherwise a random subset of
  /// this size (random-forest mode).
  std::int64_t max_features = -1;
  std::uint64_t seed = 29;
};

/// Binary CART tree stored as a flat node array.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(TreeConfig config = {});

  void fit(const data::TabularDataset& train) override;

  /// Fits on the rows named by `indices` (with repetition allowed — used by
  /// bootstrap bagging).
  void fit_indices(const data::TabularDataset& train,
                   std::span<const std::size_t> indices);

  std::vector<std::int64_t> predict(const Tensor& features) const override;
  /// Class of a single feature row.
  std::int64_t predict_one(std::span<const float> row) const;
  /// Leaf class-probability vector for a single row.
  std::vector<double> predict_proba_one(std::span<const float> row) const;

  std::string name() const override { return "DecisionTree"; }
  std::size_t node_count() const { return nodes_.size(); }
  /// Depth of the fitted tree (0 for a single leaf).
  std::int64_t depth() const;

 private:
  struct Node {
    std::int32_t feature = -1;  ///< -1 marks a leaf
    float threshold = 0.0F;     ///< go left when x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int64_t label = 0;              ///< majority class (leaves)
    std::vector<double> class_probs;     ///< leaf class distribution
  };

  std::int32_t build(const data::TabularDataset& train,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, std::int64_t depth, Rng& rng);
  std::int32_t make_leaf(const data::TabularDataset& train,
                         std::span<const std::size_t> indices);
  std::int64_t depth_below(std::int32_t node) const;

  TreeConfig config_;
  std::int64_t classes_ = 0;
  std::int64_t dim_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace mdl::ml
