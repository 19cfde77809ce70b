// The two-stage multi-view architecture shared by DeepMood (Fig. 4) and
// DEEPSERVICE (§IV-B): one GRU per view encodes that view's time series
// into its final hidden state h^(p); a fusion layer (Eq. 2/3/4) combines
// {h^(p)} into class logits. This file provides the model, an Adam-based
// trainer over MultiViewDataset, and the evaluation helpers behind
// Table I, Fig. 4 and Fig. 5.
#pragma once

#include <map>
#include <memory>

#include "data/dataset.hpp"
#include "fusion/fusion.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace mdl::apps {

/// Which recurrent encoder reads each view (the paper uses GRU, "a
/// simplified version of LSTM"; both are provided for the ablation).
enum class EncoderKind { kGru, kLstm };

struct MultiViewConfig {
  std::vector<std::int64_t> view_dims;
  std::vector<std::int64_t> seq_lens;
  std::int64_t hidden = 16;  ///< d_h: encoder hidden size per view
  EncoderKind encoder = EncoderKind::kGru;
  /// Bidirectional encoders double the fused width to 2 m d_h, as in the
  /// paper's Eq. (2) discussion (GRU only).
  bool bidirectional = false;
  fusion::FusionKind fusion_kind = fusion::FusionKind::kMultiviewMachine;
  std::int64_t fusion_capacity = 8;  ///< k (factors) or k' (hidden units)
  std::int64_t classes = 2;
};

/// Per-view GRU encoders + one fusion head.
class MultiViewModel {
 public:
  MultiViewModel(MultiViewConfig config, Rng& rng);

  /// view_seqs[p] is [T_p, B, dim_p]; returns [B, classes] logits.
  Tensor forward(const std::vector<Tensor>& view_seqs);

  /// Inference-only forward: every encoder and the fusion head run the same
  /// compute routine as forward() without a cache sink, so the logits are
  /// bit-identical to forward() and one model instance can score concurrent
  /// requests (the mdl::serve execution path).
  Tensor infer(const std::vector<Tensor>& view_seqs) const;

  /// Accumulates all gradients from d(loss)/d(logits).
  void backward(const Tensor& grad_logits);

  std::vector<nn::Parameter*> parameters();
  void zero_grad();
  void set_training(bool training);

  std::int64_t flops_per_example() const;
  std::int64_t param_count();
  const MultiViewConfig& config() const { return config_; }
  std::string name() const;

 private:
  MultiViewConfig config_;
  std::vector<std::unique_ptr<nn::Module>> encoders_;  ///< GRU or BiGRU
  std::unique_ptr<fusion::FusionLayer> fusion_;
};

struct MultiViewTrainConfig {
  std::int64_t epochs = 25;
  std::int64_t batch_size = 32;
  double lr = 0.01;          ///< Adam
  double grad_clip = 5.0;    ///< global-norm clip (BPTT stability)
  std::uint64_t seed = 31;
  bool verbose = false;
};

struct EvalResult {
  double accuracy = 0.0;
  double macro_f1 = 0.0;
};

/// Minibatch Adam trainer + evaluators over MultiViewDataset.
class MultiViewTrainer {
 public:
  MultiViewTrainer(MultiViewModel& model, MultiViewTrainConfig config);

  /// Trains for the configured epochs; returns the final-epoch mean loss.
  double train(const data::MultiViewDataset& train);

  /// Predictions in dataset order (batched internally).
  std::vector<std::int64_t> predict(const data::MultiViewDataset& ds);

  EvalResult evaluate(const data::MultiViewDataset& test);

  /// Per-participant accuracy keyed by MultiViewExample::group, with the
  /// example count per group — the data behind Fig. 5.
  std::map<std::int64_t, std::pair<std::int64_t, double>> per_group_accuracy(
      const data::MultiViewDataset& test);

 private:
  MultiViewModel& model_;
  MultiViewTrainConfig config_;
  Rng rng_;
  nn::Adam optimizer_;
};

/// The DeepMood configuration (3 keystroke views -> 2 mood classes).
MultiViewConfig deepmood_config(const std::vector<std::int64_t>& view_dims,
                                const std::vector<std::int64_t>& seq_lens,
                                fusion::FusionKind kind);

/// The DEEPSERVICE configuration (3 keystroke views -> N users).
MultiViewConfig deepservice_config(const std::vector<std::int64_t>& view_dims,
                                   const std::vector<std::int64_t>& seq_lens,
                                   std::int64_t num_users);

}  // namespace mdl::apps
