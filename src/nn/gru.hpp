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
// GRUCell exposes a single step with an explicit backward-through-time hook;
// GRU runs a whole [T, B, I] sequence and returns the final hidden state
// (the "compact representation of the input sequence" the paper feeds into
// the fusion layer), with full BPTT in backward().
#pragma once

#include "core/random.hpp"
#include "nn/module.hpp"

namespace mdl::nn {

/// One GRU step. step() and step_infer() run the same compute routine;
/// step() hands it a cache sink for BPTT, step_infer() does not.
class GRUCell {
 public:
  GRUCell(std::int64_t input_size, std::int64_t hidden_size, Rng& rng);

  /// h_t given x_t [B, I] and h_{t-1} [B, H]; caches activations for this
  /// step on an internal stack (one entry per call since the last
  /// clear_cache()).
  Tensor step(const Tensor& x, const Tensor& h_prev);

  /// The same step with no cache: const, so safe for concurrent use
  /// (mdl::serve batch execution). Bit-identical to step().
  Tensor step_infer(const Tensor& x, const Tensor& h_prev) const;

  /// Backward through the most recent un-popped step. `grad_h` is
  /// d(loss)/d(h_t); returns {d(loss)/d(x_t), d(loss)/d(h_{t-1})} and
  /// accumulates parameter gradients.
  std::pair<Tensor, Tensor> step_backward(const Tensor& grad_h);

  /// Drops all cached steps (start of a new sequence).
  void clear_cache();
  std::size_t cached_steps() const { return cache_.size(); }

  std::vector<Parameter*> parameters();
  std::int64_t input_size() const { return input_size_; }
  std::int64_t hidden_size() const { return hidden_size_; }
  std::int64_t flops_per_step_per_example() const;

 private:
  struct StepCache {
    Tensor x, h_prev, r, z, h_cand, rh;  // rh = r ⊙ h_prev
  };

  /// Eq. (1) for one step. Fills `sink` (when non-null) with what
  /// step_backward() needs; without a sink it copies nothing.
  Tensor compute_step(const Tensor& x, const Tensor& h_prev,
                      StepCache* sink) const;

  std::int64_t input_size_;
  std::int64_t hidden_size_;
  // Gate weights: W_* [H, I] act on x; U_* [H, H] act on h.
  Parameter w_r_, u_r_, b_r_;
  Parameter w_z_, u_z_, b_z_;
  Parameter w_h_, u_h_, b_h_;
  std::vector<StepCache> cache_;
};

/// Sequence-level GRU. forward() consumes [T, B, I] and returns the final
/// hidden state [B, H]; backward() takes d(loss)/d(h_T) and returns the
/// gradient w.r.t. the input sequence [T, B, I].
class GRU : public Module {
 public:
  GRU(std::int64_t input_size, std::int64_t hidden_size, Rng& rng);

  Tensor forward(const Tensor& sequence) override;
  Tensor backward(const Tensor& grad_last_hidden) override;
  Tensor infer(const Tensor& sequence) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t input_size() const { return cell_.input_size(); }
  std::int64_t hidden_size() const { return cell_.hidden_size(); }

  /// Sequence length assumed by flops_per_example (configurable because
  /// FLOPs depend on T; defaults to 1).
  void set_nominal_seq_len(std::int64_t t) { nominal_seq_len_ = t; }

 private:
  /// The step loop shared by forward() and infer(). With a `recorder`
  /// (forward passes &cell_) every step is cached for BPTT; without one
  /// the loop only computes.
  Tensor run(const Tensor& sequence, GRUCell* recorder) const;

  GRUCell cell_;
  std::int64_t last_t_ = 0;
  std::int64_t last_batch_ = 0;
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
