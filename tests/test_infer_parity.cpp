// forward() and infer() run one compute routine per layer, so their outputs
// must agree element for element (operator==, never a tolerance) under
// every MDL_GEMM kernel. Calling infer() between forward() and backward()
// must not disturb what backward() reads.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "apps/multiview_model.hpp"
#include "data/dataset.hpp"
#include "fusion/fusion.hpp"
#include "nn/activations.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"

namespace mdl {
namespace {

// DeepMood keystroke views: alphanumeric, special, accelerometer.
const std::vector<std::int64_t> kDims{4, 6, 3};
const std::vector<std::int64_t> kLens{32, 12, 48};
const std::vector<std::int64_t> kBatches{1, 3, 8};

// Mixed-sign input with exact zeros and saturating magnitudes, so ReLU's
// boundary and the sigmoid/tanh branches all run.
Tensor mixed_input(std::vector<std::int64_t> shape, Rng& rng) {
  Tensor x = Tensor::randn(std::move(shape), rng, 0.0F, 3.0F);
  for (std::int64_t i = 0; i < x.size(); i += 7) x[i] = 0.0F;
  for (std::int64_t i = 3; i < x.size(); i += 11) x[i] *= 20.0F;
  return x;
}

std::vector<Tensor> grads_of(const std::vector<nn::Parameter*>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const nn::Parameter* p : params) out.push_back(p->grad);
  return out;
}

void expect_forward_equals_infer(nn::Module& m, const Tensor& x) {
  SCOPED_TRACE(m.name() + " on " + x.shape_str());
  const Tensor y_infer = m.infer(x);
  const Tensor y_forward = m.forward(x);
  EXPECT_TRUE(y_forward == y_infer);
  // And again after forward() has filled the cache.
  EXPECT_TRUE(m.infer(x) == y_forward);
}

// forward(x); backward(g) vs forward(x); infer(other); backward(g): the
// parameter and input gradients must be identical.
void expect_infer_leaves_backward_alone(nn::Module& m, const Tensor& x,
                                        const Tensor& other, Rng& rng) {
  SCOPED_TRACE(m.name());
  const Tensor y = m.forward(x);
  const Tensor g = Tensor::randn(y.shape(), rng);

  m.zero_grad();
  const Tensor dx_ref = m.backward(g);
  const std::vector<Tensor> ref = grads_of(m.parameters());

  m.forward(x);
  m.zero_grad();
  (void)m.infer(other);
  const Tensor dx = m.backward(g);
  EXPECT_TRUE(dx == dx_ref);
  const std::vector<Tensor> got = grads_of(m.parameters());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_TRUE(got[i] == ref[i]);
}

TEST(InferParityLayers, LinearAndActivations) {
  Rng rng(101);
  nn::Linear with_bias(13, 7, rng);
  nn::Linear no_bias(13, 7, rng, /*bias=*/false);
  nn::ReLU relu;
  nn::Sigmoid sigmoid;
  nn::Tanh tanh;
  for (const std::int64_t b : kBatches) {
    const Tensor x = mixed_input({b, 13}, rng);
    expect_forward_equals_infer(with_bias, x);
    expect_forward_equals_infer(no_bias, x);
    expect_forward_equals_infer(relu, x);
    expect_forward_equals_infer(sigmoid, x);
    expect_forward_equals_infer(tanh, x);
  }
}

TEST(InferParityLayers, Sequential) {
  Rng rng(102);
  nn::Sequential net;
  net.emplace<nn::Linear>(9, 16, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(16, 8, rng);
  net.emplace<nn::Tanh>();
  net.emplace<nn::Linear>(8, 3, rng);
  net.emplace<nn::Sigmoid>();
  for (const std::int64_t b : kBatches)
    expect_forward_equals_infer(net, mixed_input({b, 9}, rng));
  expect_infer_leaves_backward_alone(net, mixed_input({4, 9}, rng),
                                     mixed_input({2, 9}, rng), rng);
}

TEST(InferParityLayers, RecurrentEncoders) {
  Rng rng(103);
  for (std::size_t p = 0; p < kDims.size(); ++p) {
    nn::GRU gru(kDims[p], 16, rng);
    nn::BiGRU bigru(kDims[p], 16, rng);
    nn::LSTM lstm(kDims[p], 16, rng);
    for (const std::int64_t b : kBatches) {
      const Tensor seq = mixed_input({kLens[p], b, kDims[p]}, rng);
      expect_forward_equals_infer(gru, seq);
      expect_forward_equals_infer(bigru, seq);
      expect_forward_equals_infer(lstm, seq);
    }
  }
}

TEST(InferParityLayers, RecurrentInferLeavesBackwardAlone) {
  Rng rng(104);
  nn::GRU gru(6, 16, rng);
  nn::BiGRU bigru(6, 16, rng);
  nn::LSTM lstm(6, 16, rng);
  const Tensor seq = mixed_input({12, 3, 6}, rng);
  const Tensor other = mixed_input({5, 8, 6}, rng);
  expect_infer_leaves_backward_alone(gru, seq, other, rng);
  expect_infer_leaves_backward_alone(bigru, seq, other, rng);
  expect_infer_leaves_backward_alone(lstm, seq, other, rng);
}

TEST(InferParityFusion, EveryHead) {
  const std::vector<std::int64_t> hidden_dims{16, 16, 16};
  for (const auto kind :
       {fusion::FusionKind::kFullyConnected,
        fusion::FusionKind::kFactorizationMachine,
        fusion::FusionKind::kMultiviewMachine}) {
    Rng rng(105);
    const std::int64_t capacity =
        kind == fusion::FusionKind::kFullyConnected ? 32 : 8;
    auto head = fusion::make_fusion(kind, hidden_dims, capacity, 2, rng);
    for (const std::int64_t b : kBatches) {
      SCOPED_TRACE(head->name() + " batch " + std::to_string(b));
      std::vector<Tensor> views;
      for (const std::int64_t d : hidden_dims)
        views.push_back(Tensor::randn({b, d}, rng));
      const Tensor y_infer = head->infer(views);
      const Tensor y_forward = head->forward(views);
      EXPECT_TRUE(y_forward == y_infer);
      EXPECT_TRUE(head->infer(views) == y_forward);
    }
  }
}

TEST(InferParityFusion, InferLeavesBackwardAlone) {
  const std::vector<std::int64_t> dims{5, 3, 4};
  for (const auto kind :
       {fusion::FusionKind::kFullyConnected,
        fusion::FusionKind::kFactorizationMachine,
        fusion::FusionKind::kMultiviewMachine}) {
    Rng rng(106);
    auto head = fusion::make_fusion(kind, dims, 6, 3, rng);
    SCOPED_TRACE(head->name());
    std::vector<Tensor> views, other;
    for (const std::int64_t d : dims) {
      views.push_back(Tensor::randn({4, d}, rng));
      other.push_back(Tensor::randn({7, d}, rng));
    }
    const Tensor g = Tensor::randn({4, 3}, rng);

    head->forward(views);
    head->zero_grad();
    const std::vector<Tensor> dv_ref = head->backward(g);
    const std::vector<Tensor> ref = grads_of(head->parameters());

    head->forward(views);
    head->zero_grad();
    (void)head->infer(other);
    const std::vector<Tensor> dv = head->backward(g);
    ASSERT_EQ(dv.size(), dv_ref.size());
    for (std::size_t p = 0; p < dv.size(); ++p)
      EXPECT_TRUE(dv[p] == dv_ref[p]);
    const std::vector<Tensor> got = grads_of(head->parameters());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(got[i] == ref[i]);
  }
}

struct EncoderCase {
  const char* name;
  apps::EncoderKind kind;
  bool bidirectional;
};

const EncoderCase kEncoders[] = {
    {"gru", apps::EncoderKind::kGru, false},
    {"bigru", apps::EncoderKind::kGru, true},
    {"lstm", apps::EncoderKind::kLstm, false},
};

const fusion::FusionKind kFusions[] = {
    fusion::FusionKind::kFullyConnected,
    fusion::FusionKind::kFactorizationMachine,
    fusion::FusionKind::kMultiviewMachine,
};

apps::MultiViewConfig deepmood(const EncoderCase& enc,
                               fusion::FusionKind kind) {
  apps::MultiViewConfig cfg = apps::deepmood_config(kDims, kLens, kind);
  cfg.encoder = enc.kind;
  cfg.bidirectional = enc.bidirectional;
  return cfg;
}

std::vector<Tensor> sessions(std::int64_t batch, Rng& rng) {
  std::vector<Tensor> seqs;
  for (std::size_t p = 0; p < kDims.size(); ++p)
    seqs.push_back(Tensor::randn({kLens[p], batch, kDims[p]}, rng));
  return seqs;
}

TEST(InferParityModel, EveryEncoderFusionAndBatch) {
  for (const EncoderCase& enc : kEncoders) {
    for (const fusion::FusionKind kind : kFusions) {
      Rng rng(107);
      apps::MultiViewModel model(deepmood(enc, kind), rng);
      for (const std::int64_t b : kBatches) {
        SCOPED_TRACE(std::string(enc.name) + "/" + fusion::to_string(kind) +
                     " batch " + std::to_string(b));
        const std::vector<Tensor> seqs = sessions(b, rng);
        const Tensor y_infer = model.infer(seqs);
        const Tensor y_forward = model.forward(seqs);
        EXPECT_TRUE(y_forward == y_infer);
        EXPECT_TRUE(model.infer(seqs) == y_forward);
      }
    }
  }
}

TEST(InferParityModel, InferBetweenForwardAndBackwardLeavesGradients) {
  for (const EncoderCase& enc : kEncoders) {
    for (const fusion::FusionKind kind : kFusions) {
      Rng rng(108);
      apps::MultiViewModel model(deepmood(enc, kind), rng);
      SCOPED_TRACE(std::string(enc.name) + "/" + fusion::to_string(kind));
      const std::vector<Tensor> seqs = sessions(3, rng);
      const std::vector<Tensor> other = sessions(8, rng);
      const Tensor g = Tensor::randn({3, 2}, rng);

      model.forward(seqs);
      model.zero_grad();
      model.backward(g);
      const std::vector<Tensor> ref = grads_of(model.parameters());

      model.forward(seqs);
      model.zero_grad();
      (void)model.infer(other);
      model.backward(g);
      const std::vector<Tensor> got = grads_of(model.parameters());
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == ref[i]) << "parameter " << i;
    }
  }
}

// MultiViewTrainer::predict scores through infer(), so evaluating between a
// training forward() and its backward() leaves the BPTT caches intact.
TEST(MultiViewTrainerEval, PredictLeavesTrainingCachesAlone) {
  Rng rng(109);
  data::MultiViewDataset ds;
  ds.view_dims = kDims;
  ds.seq_lens = kLens;
  ds.num_classes = 2;
  for (std::int64_t i = 0; i < 5; ++i) {
    data::MultiViewExample ex;
    for (std::size_t p = 0; p < kDims.size(); ++p)
      ex.views.push_back(Tensor::randn({kLens[p], kDims[p]}, rng));
    ex.label = i % 2;
    ds.examples.push_back(std::move(ex));
  }
  apps::MultiViewModel model(
      deepmood(kEncoders[0], fusion::FusionKind::kMultiviewMachine), rng);
  apps::MultiViewTrainer trainer(model, {});

  const std::vector<Tensor> seqs = sessions(3, rng);
  const Tensor g = Tensor::randn({3, 2}, rng);
  model.forward(seqs);
  model.zero_grad();
  model.backward(g);
  const std::vector<Tensor> ref = grads_of(model.parameters());

  model.forward(seqs);
  model.zero_grad();
  const std::vector<std::int64_t> pred = trainer.predict(ds);
  EXPECT_EQ(pred.size(), ds.examples.size());
  model.backward(g);
  const std::vector<Tensor> got = grads_of(model.parameters());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(got[i] == ref[i]) << "parameter " << i;

  // Scores match a forward() pass over the same batch.
  std::vector<std::size_t> idx(ds.examples.size());
  std::iota(idx.begin(), idx.end(), 0);
  const data::MultiViewBatch batch = data::make_batch(ds, idx);
  EXPECT_EQ(model.forward(batch.views).argmax_rows(), pred);
}

}  // namespace
}  // namespace mdl
