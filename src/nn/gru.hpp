// Gated Recurrent Unit (Cho et al. 2014), the sequence encoder used by both
// DeepMood (Fig. 4) and DEEPSERVICE.
//
// Implements exactly Eq. (1) of the paper:
//   r_k = sigmoid(W_r x_k + U_r h_{k-1} + b_r)
//   z_k = sigmoid(W_z x_k + U_z h_{k-1} + b_z)
//   h~_k = tanh(W x_k + U (r_k ⊙ h_{k-1}) + b)
//   h_k = z_k ⊙ h_{k-1} + (1 - z_k) ⊙ h~_k
// (biases added, as in every practical implementation).
//
// GRU runs a whole [T, B, I] sequence and returns the final hidden state
// (the "compact representation of the input sequence" the paper feeds into
// the fusion layer), with full BPTT in backward().
#pragma once

#include <optional>

#include "core/random.hpp"
#include "nn/module.hpp"

namespace mdl::nn {

/// Sequence-level GRU. forward() consumes [T, B, I] and returns the final
/// hidden state [B, H]; backward() takes d(loss)/d(h_T) and returns the
/// gradient w.r.t. the input sequence [T, B, I].
class GRU : public Module {
 public:
  GRU(std::int64_t input_size, std::int64_t hidden_size, Rng& rng);

  Tensor forward(const Tensor& sequence) override;
  /// Consumes the cache of the last forward(): a second call throws.
  Tensor backward(const Tensor& grad_last_hidden) override;
  Tensor infer(const Tensor& sequence) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t input_size() const { return input_size_; }
  std::int64_t hidden_size() const { return hidden_size_; }

  /// Sequence length assumed by flops_per_example (configurable because
  /// FLOPs depend on T; defaults to 1).
  void set_nominal_seq_len(std::int64_t t) { nominal_seq_len_ = t; }

 private:
  /// What backward() reads. Each tensor has T·B rows; rows
  /// [t·B, (t+1)·B) belong to step t. backward() consumes it: once step t
  /// is done, its rows of h_cand, h_prev and rh hold that step's
  /// pre-activation gradients da_h, da_r and da_z.
  struct SequenceCache {
    Tensor x;                ///< [T·B, I] inputs
    Tensor h_prev;           ///< [T·B, H] h_{t-1}
    Tensor rz;               ///< [T·B, 2H] gates r | z
    Tensor h_cand;           ///< [T·B, H] candidate h~
    Tensor rh;               ///< [T·B, H] r ⊙ h_{t-1}
    std::int64_t steps = 0;  ///< T
  };

  /// Eq. (1) over the whole sequence, shared by forward() and infer(). The
  /// input projections of all steps run as two GEMMs before the step loop;
  /// each step adds h·[U_r; U_z]ᵀ and (r ⊙ h)·U_hᵀ into buffers allocated
  /// once per call. Fills `sink` (when non-null) with what backward()
  /// needs; without a sink it records nothing.
  Tensor run(const Tensor& sequence, SequenceCache* sink) const;

  std::int64_t input_size_;
  std::int64_t hidden_size_;
  // Gate weights: W_* [H, I] act on x; U_* [H, H] act on h.
  Parameter w_r_, u_r_, b_r_;
  Parameter w_z_, u_z_, b_z_;
  Parameter w_h_, u_h_, b_h_;
  std::optional<SequenceCache> cache_;
  std::int64_t nominal_seq_len_ = 1;
};

/// Bidirectional GRU: one GRU reads the sequence forward, a second reads it
/// reversed; the output concatenates both final hidden states to [B, 2H]
/// (the paper's "d = 2 m d_h for bidirectional GRU" configuration).
class BiGRU : public Module {
 public:
  BiGRU(std::int64_t input_size, std::int64_t hidden_size, Rng& rng);

  Tensor forward(const Tensor& sequence) override;
  /// Takes d(loss)/d([h_fwd; h_bwd]) of shape [B, 2H].
  Tensor backward(const Tensor& grad_hidden) override;
  Tensor infer(const Tensor& sequence) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t input_size() const { return fwd_.input_size(); }
  /// Output width (2H).
  std::int64_t hidden_size() const { return 2 * fwd_.hidden_size(); }
  void set_nominal_seq_len(std::int64_t t);

 private:
  static Tensor reverse_time(const Tensor& seq);

  GRU fwd_;
  GRU bwd_;
};

}  // namespace mdl::nn
