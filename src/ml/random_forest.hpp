// Random forest: bootstrap-aggregated CART trees with per-split feature
// subsampling (Breiman 2001), the "RandomForest" row of Table I.
#pragma once

#include "core/threadpool.hpp"
#include "ml/decision_tree.hpp"

namespace mdl::ml {

struct ForestConfig {
  std::int64_t num_trees = 80;
  std::int64_t max_depth = 14;
  std::uint64_t seed = 41;
};

/// Majority-vote ensemble of bootstrap CART trees.
class RandomForest : public Classifier {
 public:
  explicit RandomForest(ForestConfig config = {});

  void fit(const data::TabularDataset& train) override;
  std::vector<std::int64_t> predict(const Tensor& features) const override;
  std::string name() const override { return "RandomForest"; }

  /// Trains trees in parallel on `pool` (nullptr = sequential).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  std::size_t num_trees() const { return trees_.size(); }

 private:
  ForestConfig config_;
  ThreadPool* pool_ = nullptr;
  std::vector<DecisionTree> trees_;
  std::int64_t classes_ = 0;
  std::int64_t dim_ = 0;
};

}  // namespace mdl::ml
