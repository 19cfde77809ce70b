// Elementwise activation layers and the stable softmax primitive.
#pragma once

#include <cmath>

#include "nn/module.hpp"

namespace mdl::nn {

/// max(0, x).
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// 1 / (1 + exp(-x)).
class Sigmoid : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::string name() const override { return "Sigmoid"; }
  std::int64_t flops_per_example() const override { return 0; }

 private:
  Tensor cached_output_;
};

/// tanh(x).
class Tanh : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

// -- Stateless helpers used by losses, GRU, and classical models -----------

/// Numerically stable elementwise sigmoid. Inline, so per-element loops in
/// other files (the GRU gates) pay no call per element.
inline float sigmoid_scalar(float x) {
  if (x >= 0.0F) {
    const float e = std::exp(-x);
    return 1.0F / (1.0F + e);
  }
  const float e = std::exp(x);
  return e / (1.0F + e);
}

/// Applies sigmoid elementwise (out of place).
Tensor sigmoid(const Tensor& x);

/// Applies tanh elementwise (out of place).
Tensor tanh_t(const Tensor& x);

/// Row-wise numerically stable softmax of a [batch, classes] tensor.
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax of a [batch, classes] tensor.
Tensor log_softmax_rows(const Tensor& logits);

}  // namespace mdl::nn
