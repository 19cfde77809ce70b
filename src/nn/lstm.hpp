// Long Short-Term Memory (Hochreiter & Schmidhuber 1997).
//
// The paper introduces the GRU as "a simplified version of Long Short-Term
// Memory (LSTM)" — this is that reference encoder, with the standard
// formulation:
//   i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)     input gate
//   f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)     forget gate
//   o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)     output gate
//   g_t = tanh   (W_g x_t + U_g h_{t-1} + b_g)     cell candidate
//   c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//   h_t = o_t ⊙ tanh(c_t)
// Full BPTT, same sequence conventions as nn::GRU ([T, B, I] in, final
// hidden [B, H] out), so the two are drop-in interchangeable as encoders.
#pragma once

#include <optional>

#include "core/random.hpp"
#include "nn/module.hpp"

namespace mdl::nn {

/// Sequence-level LSTM: [T, B, I] -> final hidden state [B, H].
class LSTM : public Module {
 public:
  LSTM(std::int64_t input_size, std::int64_t hidden_size, Rng& rng);

  Tensor forward(const Tensor& sequence) override;
  /// Consumes the cache of the last forward(): a second call throws.
  Tensor backward(const Tensor& grad_last_hidden) override;
  Tensor infer(const Tensor& sequence) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t input_size() const { return input_size_; }
  std::int64_t hidden_size() const { return hidden_size_; }
  void set_nominal_seq_len(std::int64_t t) { nominal_seq_len_ = t; }

 private:
  /// What backward() reads. Each tensor has T·B rows; rows
  /// [t·B, (t+1)·B) belong to step t. backward() consumes it: once step t
  /// is done, its rows of gates hold that step's pre-activation gradients.
  struct SequenceCache {
    Tensor x;                ///< [T·B, I] inputs
    Tensor h_prev;           ///< [T·B, H] h_{t-1}
    Tensor c_prev;           ///< [T·B, H] c_{t-1}
    Tensor gates;            ///< [T·B, 4H] gates i | f | o | g
    Tensor tanh_c;           ///< [T·B, H] tanh(c_t)
    std::int64_t steps = 0;  ///< T
  };

  /// The gate equations over the whole sequence, shared by forward() and
  /// infer(). The input projection of all steps runs as one GEMM before
  /// the step loop; each step adds h·[U_i; U_f; U_o; U_g]ᵀ into a buffer
  /// allocated once per call. Fills `sink` (when non-null) with what
  /// backward() needs; without a sink it records nothing.
  Tensor run(const Tensor& sequence, SequenceCache* sink) const;

  std::int64_t input_size_;
  std::int64_t hidden_size_;
  // Gate weights: W_* [H, I] act on x; U_* [H, H] act on h.
  Parameter w_i_, u_i_, b_i_;
  Parameter w_f_, u_f_, b_f_;
  Parameter w_o_, u_o_, b_o_;
  Parameter w_g_, u_g_, b_g_;
  std::optional<SequenceCache> cache_;
  std::int64_t nominal_seq_len_ = 1;
};

}  // namespace mdl::nn
