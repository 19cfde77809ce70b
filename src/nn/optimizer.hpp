// First-order optimizers over a fixed parameter list.
//
// Covers the gradient-descent family the paper cites as the training
// workhorses: plain/momentum SGD [15], Adagrad [11], RMSprop [12], and
// Adam [10]. All support optional L2 weight decay.
#pragma once

#include <memory>
#include <vector>

#include "nn/parameter.hpp"

namespace mdl::nn {

/// Base optimizer: applies an update rule to each parameter's gradient,
/// then clears gradients.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params, double lr,
                     double weight_decay = 0.0);
  virtual ~Optimizer() = default;

  /// One update from the currently accumulated gradients; zeroes them.
  void step();

  double lr() const { return lr_; }
  const std::vector<Parameter*>& params() const { return params_; }

 protected:
  /// Updates one parameter from its (weight-decayed) gradient.
  virtual void update(std::size_t index, Parameter& p) = 0;

  std::vector<Parameter*> params_;
  double lr_;
  double weight_decay_;
};

/// SGD with optional classical momentum.
class SGD : public Optimizer {
 public:
  SGD(std::vector<Parameter*> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);

 protected:
  void update(std::size_t index, Parameter& p) override;

 private:
  double momentum_;
  std::vector<Tensor> velocity_;
};

/// Adagrad: per-coordinate learning rates from accumulated squared grads.
class Adagrad : public Optimizer {
 public:
  Adagrad(std::vector<Parameter*> params, double lr, double eps = 1e-8,
          double weight_decay = 0.0);

 protected:
  void update(std::size_t index, Parameter& p) override;

 private:
  double eps_;
  std::vector<Tensor> accum_;
};

/// RMSprop: exponentially decayed squared-gradient normalization.
class RMSprop : public Optimizer {
 public:
  RMSprop(std::vector<Parameter*> params, double lr, double rho = 0.9,
          double eps = 1e-8, double weight_decay = 0.0);

 protected:
  void update(std::size_t index, Parameter& p) override;

 private:
  double rho_;
  double eps_;
  std::vector<Tensor> mean_sq_;
};

/// Adam with bias correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

 protected:
  void update(std::size_t index, Parameter& p) override;

 private:
  double beta1_, beta2_, eps_;
  std::vector<Tensor> m_, v_;
  std::vector<std::int64_t> t_;
};

}  // namespace mdl::nn
