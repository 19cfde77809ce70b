#include "apps/multiview_model.hpp"

#include <iostream>
#include <numeric>
#include <sstream>

#include "nn/loss.hpp"
#include "nn/param_utils.hpp"

namespace mdl::apps {

constexpr double kGradClip = 5.0;  ///< global-norm clip (BPTT stability)

MultiViewModel::MultiViewModel(MultiViewConfig config, Rng& rng)
    : config_(std::move(config)) {
  MDL_CHECK(!config_.view_dims.empty(), "need at least one view");
  MDL_CHECK(config_.view_dims.size() == config_.seq_lens.size(),
            "view_dims/seq_lens mismatch");
  MDL_CHECK(config_.hidden > 0 && config_.classes > 1,
            "invalid model dimensions");
  MDL_CHECK(!(config_.bidirectional && config_.encoder == EncoderKind::kLstm),
            "bidirectional LSTM encoders are not provided");
  encoders_.reserve(config_.view_dims.size());
  for (std::size_t p = 0; p < config_.view_dims.size(); ++p) {
    if (config_.encoder == EncoderKind::kLstm) {
      auto lstm = std::make_unique<nn::LSTM>(config_.view_dims[p],
                                             config_.hidden, rng);
      lstm->set_nominal_seq_len(config_.seq_lens[p]);
      encoders_.push_back(std::move(lstm));
    } else if (config_.bidirectional) {
      auto gru = std::make_unique<nn::BiGRU>(config_.view_dims[p],
                                             config_.hidden, rng);
      gru->set_nominal_seq_len(config_.seq_lens[p]);
      encoders_.push_back(std::move(gru));
    } else {
      auto gru = std::make_unique<nn::GRU>(config_.view_dims[p],
                                           config_.hidden, rng);
      gru->set_nominal_seq_len(config_.seq_lens[p]);
      encoders_.push_back(std::move(gru));
    }
  }
  const std::vector<std::int64_t> fusion_dims(
      config_.view_dims.size(),
      config_.bidirectional ? 2 * config_.hidden : config_.hidden);
  fusion_ = fusion::make_fusion(config_.fusion_kind, fusion_dims,
                                config_.fusion_capacity, config_.classes, rng);
}

Tensor MultiViewModel::forward(const std::vector<Tensor>& view_seqs) {
  MDL_CHECK(view_seqs.size() == encoders_.size(),
            "expected " << encoders_.size() << " views, got "
                        << view_seqs.size());
  std::vector<Tensor> hidden;
  hidden.reserve(encoders_.size());
  for (std::size_t p = 0; p < encoders_.size(); ++p)
    hidden.push_back(encoders_[p]->forward(view_seqs[p]));
  return fusion_->forward(hidden);
}

Tensor MultiViewModel::infer(const std::vector<Tensor>& view_seqs) const {
  MDL_CHECK(view_seqs.size() == encoders_.size(),
            "expected " << encoders_.size() << " views, got "
                        << view_seqs.size());
  std::vector<Tensor> hidden;
  hidden.reserve(encoders_.size());
  for (std::size_t p = 0; p < encoders_.size(); ++p)
    hidden.push_back(encoders_[p]->infer(view_seqs[p]));
  return fusion_->infer(hidden);
}

void MultiViewModel::backward(const Tensor& grad_logits) {
  const std::vector<Tensor> grads = fusion_->backward(grad_logits);
  MDL_CHECK(grads.size() == encoders_.size(), "fusion grad count mismatch");
  for (std::size_t p = 0; p < encoders_.size(); ++p)
    encoders_[p]->backward(grads[p]);  // input grads discarded (first layer)
}

std::vector<nn::Parameter*> MultiViewModel::parameters() {
  std::vector<nn::Parameter*> out;
  for (auto& enc : encoders_)
    for (nn::Parameter* p : enc->parameters()) out.push_back(p);
  for (nn::Parameter* p : fusion_->parameters()) out.push_back(p);
  return out;
}

void MultiViewModel::zero_grad() {
  for (nn::Parameter* p : parameters()) p->zero_grad();
}

void MultiViewModel::set_training(bool training) {
  for (auto& enc : encoders_) enc->set_training(training);
}

std::int64_t MultiViewModel::flops_per_example() const {
  std::int64_t f = fusion_->flops_per_example();
  for (const auto& enc : encoders_) f += enc->flops_per_example();
  return f;
}

std::int64_t MultiViewModel::param_count() {
  std::int64_t n = 0;
  for (nn::Parameter* p : parameters()) n += p->value.size();
  return n;
}

std::string MultiViewModel::name() const {
  std::ostringstream os;
  os << "MultiView(m=" << encoders_.size() << ", d_h=" << config_.hidden
     << ", " << fusion_->name() << ')';
  return os.str();
}

MultiViewTrainer::MultiViewTrainer(MultiViewModel& model,
                                   MultiViewTrainConfig config)
    : model_(model),
      config_(config),
      rng_(config.seed),
      optimizer_(model.parameters(), config.lr) {
  MDL_CHECK(config.epochs > 0 && config.batch_size > 0 && config.lr > 0.0,
            "invalid trainer config");
}

double MultiViewTrainer::train(const data::MultiViewDataset& train) {
  MDL_CHECK(train.size() > 0, "empty training set");
  model_.set_training(true);
  nn::SoftmaxCrossEntropy loss;
  const auto params = model_.parameters();
  double last_epoch_loss = 0.0;

  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto batches = data::minibatch_indices(
        static_cast<std::size_t>(train.size()),
        static_cast<std::size_t>(config_.batch_size), rng_);
    double sum = 0.0;
    for (const auto& idx : batches) {
      const data::MultiViewBatch batch = data::make_batch(train, idx);
      const Tensor logits = model_.forward(batch.views);
      sum += loss.forward(logits, batch.labels);
      model_.zero_grad();
      model_.backward(loss.backward());
      nn::clip_grad_global_norm(params, kGradClip);
      optimizer_.step();
    }
    last_epoch_loss = sum / static_cast<double>(batches.size());
    if (config_.verbose) {
      std::cerr << "  epoch " << epoch + 1 << '/' << config_.epochs
                << "  loss " << last_epoch_loss << '\n';
    }
  }
  return last_epoch_loss;
}

std::vector<std::int64_t> MultiViewTrainer::predict(
    const data::MultiViewDataset& ds) {
  MDL_CHECK(ds.size() > 0, "empty dataset");
  std::vector<std::int64_t> out;
  out.reserve(ds.examples.size());
  const std::size_t eval_batch = 64;
  for (std::size_t start = 0; start < ds.examples.size();
       start += eval_batch) {
    const std::size_t end =
        std::min(ds.examples.size(), start + eval_batch);
    std::vector<std::size_t> idx(end - start);
    std::iota(idx.begin(), idx.end(), start);
    const data::MultiViewBatch batch = data::make_batch(ds, idx);
    const auto pred = model_.infer(batch.views).argmax_rows();
    out.insert(out.end(), pred.begin(), pred.end());
  }
  return out;
}

EvalResult MultiViewTrainer::evaluate(const data::MultiViewDataset& test) {
  const auto pred = predict(test);
  std::vector<std::int64_t> labels;
  labels.reserve(test.examples.size());
  for (const auto& ex : test.examples) labels.push_back(ex.label);
  EvalResult r;
  r.accuracy = nn::accuracy(labels, pred);
  r.macro_f1 = nn::macro_f1(labels, pred, test.num_classes);
  return r;
}

std::map<std::int64_t, std::pair<std::int64_t, double>>
MultiViewTrainer::per_group_accuracy(const data::MultiViewDataset& test) {
  const auto pred = predict(test);
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> counts;
  for (std::size_t i = 0; i < test.examples.size(); ++i) {
    auto& [total, correct] = counts[test.examples[i].group];
    ++total;
    if (pred[i] == test.examples[i].label) ++correct;
  }
  std::map<std::int64_t, std::pair<std::int64_t, double>> out;
  for (const auto& [group, tc] : counts)
    out[group] = {tc.first, static_cast<double>(tc.second) /
                                static_cast<double>(tc.first)};
  return out;
}

MultiViewConfig deepmood_config(const std::vector<std::int64_t>& view_dims,
                                const std::vector<std::int64_t>& seq_lens,
                                fusion::FusionKind kind) {
  MultiViewConfig c;
  c.view_dims = view_dims;
  c.seq_lens = seq_lens;
  c.hidden = 16;
  c.fusion_kind = kind;
  c.fusion_capacity = kind == fusion::FusionKind::kFullyConnected ? 32 : 8;
  c.classes = 2;
  return c;
}

MultiViewConfig deepservice_config(const std::vector<std::int64_t>& view_dims,
                                   const std::vector<std::int64_t>& seq_lens,
                                   std::int64_t num_users) {
  MultiViewConfig c;
  c.view_dims = view_dims;
  c.seq_lens = seq_lens;
  c.hidden = 16;
  c.fusion_kind = fusion::FusionKind::kMultiviewMachine;
  c.fusion_capacity = 8;
  c.classes = num_users;
  return c;
}

}  // namespace mdl::apps
