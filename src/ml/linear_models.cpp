#include "ml/linear_models.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/metrics.hpp"

namespace mdl::ml {
namespace {

/// Appends a constant-1 bias column.
Tensor with_bias(const Tensor& x) {
  const std::int64_t n = x.shape(0);
  const std::int64_t d = x.shape(1);
  Tensor out({n, d + 1});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < d; ++j) out[i * (d + 1) + j] = x[i * d + j];
    out[i * (d + 1) + d] = 1.0F;
  }
  return out;
}

}  // namespace

double evaluate_accuracy(const Classifier& clf,
                         const data::TabularDataset& ds) {
  const auto pred = clf.predict(ds.features);
  return nn::accuracy(ds.labels, pred);
}

double evaluate_macro_f1(const Classifier& clf,
                         const data::TabularDataset& ds) {
  const auto pred = clf.predict(ds.features);
  return nn::macro_f1(ds.labels, pred, ds.num_classes);
}

LogisticRegression::LogisticRegression(LinearModelConfig config)
    : config_(config) {
  MDL_CHECK(config.learning_rate > 0.0 && config.epochs > 0 &&
                config.batch_size > 0,
            "invalid linear model config");
}

void LogisticRegression::fit(const data::TabularDataset& train) {
  MDL_CHECK(train.size() > 0, "empty training set");
  classes_ = train.num_classes;
  scaler_.fit(train.features);
  const Tensor x = with_bias(scaler_.transform(train.features));
  const std::int64_t d1 = x.shape(1);
  weights_ = Tensor({classes_, d1});
  Rng rng(config_.seed);

  std::int64_t t_step = 0;
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto batches = data::minibatch_indices(
        static_cast<std::size_t>(train.size()),
        static_cast<std::size_t>(config_.batch_size), rng);
    for (const auto& batch : batches) {
      ++t_step;
      const double lr =
          config_.learning_rate / std::sqrt(static_cast<double>(t_step));
      // Gradient of mean CE: (softmax - onehot)^T x / B + l2 * W.
      const Tensor xb = x.gather_rows(batch);
      Tensor logits = matmul_nt(xb, weights_);
      Tensor probs = nn::softmax_rows(logits);
      const float inv_b = 1.0F / static_cast<float>(batch.size());
      for (std::size_t r = 0; r < batch.size(); ++r)
        probs[static_cast<std::int64_t>(r) * classes_ +
              train.labels[batch[r]]] -= 1.0F;
      Tensor grad = matmul_tn(probs, xb);  // [classes, d1]
      grad.mul_(inv_b);
      grad.add_scaled_(weights_, static_cast<float>(config_.l2));
      weights_.add_scaled_(grad, static_cast<float>(-lr));
    }
  }
}

Tensor LogisticRegression::decision_function(const Tensor& features) const {
  MDL_CHECK(classes_ > 0, "predict before fit");
  return matmul_nt(with_bias(scaler_.transform(features)), weights_);
}

std::vector<std::int64_t> LogisticRegression::predict(
    const Tensor& features) const {
  return decision_function(features).argmax_rows();
}

LinearSVM::LinearSVM(LinearModelConfig config) : config_(config) {
  MDL_CHECK(config.learning_rate > 0.0 && config.epochs > 0,
            "invalid linear model config");
}

void LinearSVM::fit(const data::TabularDataset& train) {
  MDL_CHECK(train.size() > 0, "empty training set");
  classes_ = train.num_classes;
  scaler_.fit(train.features);
  const Tensor x = with_bias(scaler_.transform(train.features));
  const std::int64_t n = x.shape(0);
  const std::int64_t d1 = x.shape(1);
  weights_ = Tensor({classes_, d1});
  Rng rng(config_.seed);

  // Pegasos: lambda-regularized hinge, eta_t = 1 / (lambda * t).
  const double lambda = std::max(config_.l2, 1e-6);
  std::int64_t t_step = 0;
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto perm = rng.permutation(static_cast<std::size_t>(n));
    for (const std::size_t pi : perm) {
      ++t_step;
      const double eta = 1.0 / (lambda * static_cast<double>(t_step));
      const auto i = static_cast<std::int64_t>(pi);
      const std::int64_t y = train.labels[pi];
      for (std::int64_t c = 0; c < classes_; ++c) {
        const float target = c == y ? 1.0F : -1.0F;
        double score = 0.0;
        for (std::int64_t j = 0; j < d1; ++j)
          score += weights_[c * d1 + j] * x[i * d1 + j];
        // w <- (1 - eta*lambda) w [+ eta * target * x if margin violated]
        const float decay = static_cast<float>(1.0 - eta * lambda);
        const bool violated = target * score < 1.0;
        for (std::int64_t j = 0; j < d1; ++j) {
          weights_[c * d1 + j] *= decay;
          if (violated)
            weights_[c * d1 + j] +=
                static_cast<float>(eta) * target * x[i * d1 + j];
        }
      }
    }
  }
}

Tensor LinearSVM::decision_function(const Tensor& features) const {
  MDL_CHECK(classes_ > 0, "predict before fit");
  return matmul_nt(with_bias(scaler_.transform(features)), weights_);
}

std::vector<std::int64_t> LinearSVM::predict(const Tensor& features) const {
  return decision_function(features).argmax_rows();
}

}  // namespace mdl::ml
