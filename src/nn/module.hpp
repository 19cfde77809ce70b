// Module: the layer abstraction of mdl::nn.
//
// mobiledl uses explicit layer-wise backpropagation rather than a dynamic
// autograd graph: each Module caches what its backward pass needs during
// forward, and backward(grad_out) both accumulates parameter gradients and
// returns the gradient with respect to its input. This is the classic
// "define-by-layer" design used by mobile inference runtimes — it keeps
// memory behaviour fully explicit, which the FLOPs/bytes accounting in
// mdl::mobile depends on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/serialize.hpp"
#include "core/tensor.hpp"
#include "nn/parameter.hpp"

namespace mdl::nn {

/// Base class for all single-input/single-output layers.
class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output, caching whatever backward() needs.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Accumulates parameter gradients for the most recent forward() and
  /// returns d(loss)/d(input). Must be called at most once per forward.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Inference-only forward. A layer runs one compute routine for both
  /// methods: forward() passes it a cache sink for backward() (or stores
  /// its input/output and returns infer()), infer() passes none. So infer()
  /// is bit-identical to forward() in inference mode, and const: safe to
  /// call concurrently from several threads on one module instance, which
  /// is what the mdl::serve batch executor relies on. Layers that cannot
  /// provide a const path (training-only layers) keep the throwing default.
  virtual Tensor infer(const Tensor& x) const;

  /// Pointers to this module's trainable parameters (possibly empty).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Human-readable layer name ("Linear(64->10)").
  virtual std::string name() const = 0;

  /// Multiply-accumulate-dominated floating point operations for one input
  /// example (used by the mobile cost model). Default: 0 (free layers).
  virtual std::int64_t flops_per_example() const { return 0; }

  /// Training vs. inference mode (affects Dropout and friends).
  virtual void set_training(bool training) { training_ = training; }
  bool is_training() const { return training_; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  /// Total number of trainable scalars.
  std::int64_t param_count() {
    std::int64_t n = 0;
    for (Parameter* p : parameters()) n += p->value.size();
    return n;
  }

  /// Writes all parameter values in parameter() order.
  void save_state(BinaryWriter& w);
  /// Restores parameter values written by save_state; shapes must match.
  void load_state(BinaryReader& r);

 protected:
  bool training_ = true;
};

/// Sequential container: composes modules left to right. Owns its children.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer, returning a reference for further configuration.
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    layers_.push_back(std::move(m));
    return ref;
  }

  void append(std::unique_ptr<Module> m) { layers_.push_back(std::move(m)); }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;
  void set_training(bool training) override;

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i);
  const Module& layer(std::size_t i) const;

  /// Splits the pipeline at `split_point`: layers [0, split_point) stay
  /// here, the rest are moved into the returned Sequential. Used by
  /// mdl::split to partition a network between device and cloud.
  std::unique_ptr<Sequential> split_off(std::size_t split_point);

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace mdl::nn
