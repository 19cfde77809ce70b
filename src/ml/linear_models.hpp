// Linear baselines: multinomial logistic regression and one-vs-rest linear
// SVM. The paper reports both as weak on session-level keystroke features
// ("the conventional shallow models like Support Vector Machine and
// Logistic Regression are not a good fit to this task") — reproducing that
// gap requires faithful, properly tuned implementations, not strawmen, so
// both use standardized features, mini-batch optimization, and L2
// regularization.
#pragma once

#include "core/random.hpp"
#include "ml/classifier.hpp"

namespace mdl::ml {

/// Multinomial (softmax) logistic regression trained with mini-batch SGD
/// with 1/sqrt(t) decay. Features are standardized internally.
class LogisticRegression : public Classifier {
 public:
  void fit(const data::TabularDataset& train) override;
  std::vector<std::int64_t> predict(const Tensor& features) const override;
  std::string name() const override { return "LR"; }

  /// Class scores (softmax logits) for inspection.
  Tensor decision_function(const Tensor& features) const;

 private:
  data::StandardScaler scaler_;
  Tensor weights_;  // [classes, dim + 1]
  std::int64_t classes_ = 0;
};

/// One-vs-rest linear SVM trained with Pegasos-style subgradient descent on
/// the hinge loss.
class LinearSVM : public Classifier {
 public:
  void fit(const data::TabularDataset& train) override;
  std::vector<std::int64_t> predict(const Tensor& features) const override;
  std::string name() const override { return "SVM"; }

  Tensor decision_function(const Tensor& features) const;

 private:
  data::StandardScaler scaler_;
  Tensor weights_;  // [classes, dim + 1]
  std::int64_t classes_ = 0;
};

}  // namespace mdl::ml
