// Multi-view fusion layers — the second stage of DeepMood (Fig. 4).
//
// The first stage encodes each view's time series with a GRU into a hidden
// vector h^(p) in R^{d_h}. These layers fuse {h^(1), ..., h^(m)} into class
// scores, implementing the three alternatives of the paper:
//   - FCFusion:             Eq. (2) — concatenate + fully connected,
//   - FactorizationMachineLayer: Eq. (3) — 2nd-order feature interactions,
//   - MultiviewMachineLayer:     Eq. (4) — full mth-order cross-view
//                                 interactions (Multi-view Machines).
//
// Fusion layers are multi-input so they sit beside (not under) mdl::nn's
// single-input Module: forward takes one [B, d_p] tensor per view and
// returns [B, C] logits; backward returns one gradient per view.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/random.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/parameter.hpp"

namespace mdl::fusion {

using nn::Parameter;

/// Interface for multi-view fusion heads.
class FusionLayer {
 public:
  virtual ~FusionLayer() = default;

  /// views: one [batch, view_dim_p] tensor per view -> [batch, classes]
  /// logits; caches activations for backward().
  virtual Tensor forward(const std::vector<Tensor>& views) = 0;

  /// grad_logits: [batch, classes]; accumulates parameter gradients and
  /// returns d(loss)/d(view_p) for every view.
  virtual std::vector<Tensor> backward(const Tensor& grad_logits) = 0;

  /// Inference-only forward. Each head runs one compute routine for both
  /// methods; forward() passes it a cache sink for backward(), infer()
  /// passes none, so infer() is const and bit-identical to forward(), and
  /// one fusion head can score concurrent batches (the mdl::serve
  /// execution path).
  virtual Tensor infer(const std::vector<Tensor>& views) const = 0;

  virtual std::vector<Parameter*> parameters() = 0;
  virtual std::string name() const = 0;
  virtual std::int64_t flops_per_example() const = 0;

  std::int64_t num_views() const { return static_cast<std::int64_t>(view_dims_.size()); }
  std::int64_t num_classes() const { return classes_; }
  const std::vector<std::int64_t>& view_dims() const { return view_dims_; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

 protected:
  FusionLayer(std::vector<std::int64_t> view_dims, std::int64_t classes);

  /// Throws unless `views` matches the declared view dims (equal batch).
  void check_views(const std::vector<Tensor>& views) const;

  std::vector<std::int64_t> view_dims_;
  std::int64_t classes_;
};

/// Eq. (2): h = [h^(1); ...; h^(m)], q = relu(W1 [h; 1]), y = W2 q.
class FCFusion : public FusionLayer {
 public:
  FCFusion(std::vector<std::int64_t> view_dims, std::int64_t hidden_units,
           std::int64_t classes, Rng& rng);

  Tensor forward(const std::vector<Tensor>& views) override;
  std::vector<Tensor> backward(const Tensor& grad_logits) override;
  Tensor infer(const std::vector<Tensor>& views) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

 private:
  std::int64_t hidden_units_;
  nn::Linear fc1_;
  nn::ReLU relu_;
  nn::Linear fc2_;
};

/// Eq. (3): per class a, y_a = sum((U_a h) ⊙ (U_a h)) + w_a^T [h; 1] —
/// explicit second-order interactions between all concatenated features.
class FactorizationMachineLayer : public FusionLayer {
 public:
  FactorizationMachineLayer(std::vector<std::int64_t> view_dims,
                            std::int64_t factors, std::int64_t classes,
                            Rng& rng);

  Tensor forward(const std::vector<Tensor>& views) override;
  std::vector<Tensor> backward(const Tensor& grad_logits) override;
  Tensor infer(const std::vector<Tensor>& views) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t factors() const { return factors_; }

 private:
  /// Eq. (3) over the concatenated views [batch, total_dim]; writes the
  /// per-class factor projections to `q_sink` [batch, classes, factors]
  /// when it is non-null.
  Tensor compute(const Tensor& hcat, Tensor* q_sink) const;

  std::int64_t factors_;
  std::int64_t total_dim_;
  Parameter u_;  // [classes, factors, total_dim]
  Parameter w_;  // [classes, total_dim + 1] (last column = bias)
  Tensor cached_h_;  // [batch, total_dim]
  Tensor cached_q_;  // [batch, classes, factors]
};

/// Eq. (4): q_a^(p) = U_a^(p) [h^(p); 1]; y_a = sum_j prod_p q_a^(p)[j] —
/// all cross-view interactions up to order m (Multi-view Machines).
class MultiviewMachineLayer : public FusionLayer {
 public:
  MultiviewMachineLayer(std::vector<std::int64_t> view_dims,
                        std::int64_t factors, std::int64_t classes, Rng& rng);

  Tensor forward(const std::vector<Tensor>& views) override;
  std::vector<Tensor> backward(const Tensor& grad_logits) override;
  Tensor infer(const std::vector<Tensor>& views) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t factors() const { return factors_; }

 private:
  /// Eq. (4); leaves the per-view projections in `q` (one [batch, classes,
  /// factors] tensor per view): forward() passes its cache, infer() a local.
  Tensor compute(const std::vector<Tensor>& views,
                 std::vector<Tensor>& q) const;

  std::int64_t factors_;
  std::vector<Parameter> u_;       // per view: [classes, factors, dim_p + 1]
  std::vector<Tensor> cached_views_;
  std::vector<Tensor> cached_q_;   // per view: [batch, classes, factors]
};

/// Which fusion head to build (ablated in bench/fig4_deepmood_fusion).
enum class FusionKind { kFullyConnected, kFactorizationMachine,
                        kMultiviewMachine };

/// Factory: `capacity` is hidden units for FC and factor count for FM/MVM.
std::unique_ptr<FusionLayer> make_fusion(FusionKind kind,
                                         std::vector<std::int64_t> view_dims,
                                         std::int64_t capacity,
                                         std::int64_t classes, Rng& rng);

/// Parses "fc" / "fm" / "mvm".
FusionKind fusion_kind_from_string(const std::string& s);
std::string to_string(FusionKind kind);

}  // namespace mdl::fusion
