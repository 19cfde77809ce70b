// Gradient-boosted decision trees in the XGBoost formulation (Chen &
// Guestrin 2016) — the strongest classical baseline of Table I and the
// DeepMood comparison ("XGBoost performs reasonably well as an ensemble
// method, but DeepMood still outperforms it").
//
// Multi-class softmax objective with the second-order Taylor expansion:
// each boosting round fits one regression tree per class on per-example
// gradients g_i = p_i - y_i and hessians h_i = p_i (1 - p_i); splits
// maximize the regularized gain
//   1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma
// and leaves output -G/(H+lambda), scaled by the learning rate. Row and
// column subsampling per round match the library defaults.
#pragma once

#include "core/random.hpp"
#include "ml/classifier.hpp"

namespace mdl::ml {

struct GBDTConfig {
  std::int64_t rounds = 60;
  std::int64_t max_depth = 4;
  double subsample = 0.8;   ///< row subsampling per round
  std::uint64_t seed = 53;
};

/// Second-order boosted trees with the softmax multi-class objective.
class GradientBoostedTrees : public Classifier {
 public:
  explicit GradientBoostedTrees(GBDTConfig config = {});

  void fit(const data::TabularDataset& train) override;
  std::vector<std::int64_t> predict(const Tensor& features) const override;
  std::string name() const override { return "XGBoost"; }

  /// Raw class margins (sum of tree outputs per class).
  Tensor decision_function(const Tensor& features) const;

  std::size_t num_trees() const { return trees_.size(); }

 private:
  struct RegNode {
    std::int32_t feature = -1;  ///< -1 marks a leaf
    float threshold = 0.0F;
    std::int32_t left = -1;
    std::int32_t right = -1;
    float value = 0.0F;  ///< leaf output (already scaled by learning rate)
  };
  struct RegTree {
    std::vector<RegNode> nodes;
    float predict(std::span<const float> row) const;
  };

  RegTree fit_tree(const Tensor& x, std::span<const double> grad,
                   std::span<const double> hess,
                   std::span<const std::size_t> rows,
                   std::span<const std::int64_t> features, Rng& rng) const;
  std::int32_t build(RegTree& tree, const Tensor& x,
                     std::span<const double> grad, std::span<const double> hess,
                     std::vector<std::size_t>& rows, std::size_t begin,
                     std::size_t end, std::span<const std::int64_t> features,
                     std::int64_t depth) const;

  GBDTConfig config_;
  std::int64_t classes_ = 0;
  std::int64_t dim_ = 0;
  std::vector<RegTree> trees_;  ///< round-major: trees_[r * classes_ + c]
};

}  // namespace mdl::ml
