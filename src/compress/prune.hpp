// Magnitude pruning (Han et al., NIPS'15) — "learning only the important
// connections", stage 1 of Deep Compression (§III-B).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "compress/sparse_matrix.hpp"
#include "core/tensor.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace mdl::compress {

/// Zeroes the `sparsity` fraction of smallest-magnitude entries of `t`.
/// Returns the magnitude threshold used (entries with |v| <= threshold were
/// dropped, except as needed to hit the exact count).
float prune_by_magnitude(Tensor& t, double sparsity);

/// Prunes every *weight* parameter of the model (parameters whose tensor is
/// 2-D; biases are left dense, as in the original paper). Returns the
/// overall fraction of zeroed weights.
double prune_model(nn::Module& model, double sparsity);

/// Fraction of exactly-zero entries.
double measure_sparsity(const Tensor& t);
double measure_model_sparsity(nn::Module& model);

/// Re-applies the zero pattern of `mask_source` onto gradients so pruned
/// connections stay pruned during fine-tuning: call after backward, before
/// the optimizer step.
void mask_pruned_gradients(nn::Module& model);

/// Inference-only layer over a pruned Linear's weight, stored and run as
/// CSR: the non-zeros are gathered once at construction and every forward
/// goes through CsrMatrix::matmul. Each output element is the same +0-seeded
/// ascending-k chain as the dense product minus its zero terms, so the
/// output matches the source Linear's forward exactly on finite inputs.
/// backward() throws.
class PrunedLinear : public nn::Module {
 public:
  explicit PrunedLinear(const nn::Linear& linear);

  Tensor forward(const Tensor& x) override;
  /// Const inference path — stateless, so it shares forward()'s kernel.
  /// Lets a pruned deployment form serve concurrent readers (e.g. as a
  /// split::DegradationLadder stage).
  Tensor infer(const Tensor& x) const override;
  [[noreturn]] Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  /// Effective flops: one multiply-add per stored weight, plus the bias.
  std::int64_t flops_per_example() const override;

  double sparsity() const;
  /// Deployable bytes: the CSR weight plus the dense f32 bias.
  std::uint64_t storage_bytes() const;

 private:
  CsrMatrix weight_;  ///< [out, in], the pruned weight's non-zeros
  Tensor bias_;       ///< [out], empty if none
};

/// Rebuilds a Sequential of Linear/activations with every Linear replaced
/// by its PrunedLinear (sparse-aware inference deployment form).
std::unique_ptr<nn::Sequential> sparse_deploy_mlp(nn::Sequential& model);

}  // namespace mdl::compress
