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

#include "core/random.hpp"
#include "nn/module.hpp"

namespace mdl::nn {

/// One LSTM step. step() and step_infer() run the same compute routine;
/// step() hands it a cache sink for BPTT, step_infer() does not.
class LSTMCell {
 public:
  LSTMCell(std::int64_t input_size, std::int64_t hidden_size, Rng& rng);

  /// (h_t, c_t) given x_t [B, I], h_{t-1} and c_{t-1} [B, H]; caches
  /// activations for this step (one entry per call since clear_cache()).
  std::pair<Tensor, Tensor> step(const Tensor& x, const Tensor& h_prev,
                                 const Tensor& c_prev);

  /// The same step with no cache: const and bit-identical to step().
  std::pair<Tensor, Tensor> step_infer(const Tensor& x, const Tensor& h_prev,
                                       const Tensor& c_prev) const;

  /// Backward through the most recent un-popped step. Inputs are
  /// d(loss)/d(h_t) and d(loss)/d(c_t); returns {dx, dh_prev, dc_prev}.
  std::tuple<Tensor, Tensor, Tensor> step_backward(const Tensor& grad_h,
                                                   const Tensor& grad_c);

  void clear_cache();
  std::size_t cached_steps() const { return cache_.size(); }

  std::vector<Parameter*> parameters();
  std::int64_t input_size() const { return input_size_; }
  std::int64_t hidden_size() const { return hidden_size_; }
  std::int64_t flops_per_step_per_example() const;

 private:
  struct StepCache {
    Tensor x, h_prev, c_prev, i, f, o, g, c, tanh_c;
  };

  /// One step of the gate equations. Fills `sink` (when non-null) with what
  /// step_backward() needs; without a sink it copies nothing.
  std::pair<Tensor, Tensor> compute_step(const Tensor& x, const Tensor& h_prev,
                                         const Tensor& c_prev,
                                         StepCache* sink) const;

  std::int64_t input_size_;
  std::int64_t hidden_size_;
  Parameter w_i_, u_i_, b_i_;
  Parameter w_f_, u_f_, b_f_;
  Parameter w_o_, u_o_, b_o_;
  Parameter w_g_, u_g_, b_g_;
  std::vector<StepCache> cache_;
};

/// Sequence-level LSTM: [T, B, I] -> final hidden state [B, H].
class LSTM : public Module {
 public:
  LSTM(std::int64_t input_size, std::int64_t hidden_size, Rng& rng);

  Tensor forward(const Tensor& sequence) override;
  Tensor backward(const Tensor& grad_last_hidden) override;
  Tensor infer(const Tensor& sequence) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t input_size() const { return cell_.input_size(); }
  std::int64_t hidden_size() const { return cell_.hidden_size(); }
  void set_nominal_seq_len(std::int64_t t) { nominal_seq_len_ = t; }

 private:
  /// The step loop shared by forward() and infer(); forward passes &cell_
  /// as `recorder` so every step is cached for BPTT.
  Tensor run(const Tensor& sequence, LSTMCell* recorder) const;

  LSTMCell cell_;
  std::int64_t last_t_ = 0;
  std::int64_t last_batch_ = 0;
  std::int64_t nominal_seq_len_ = 1;
};

}  // namespace mdl::nn
