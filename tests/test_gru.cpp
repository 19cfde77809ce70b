#include "nn/gru.hpp"

#include <gtest/gtest.h>

#include "grad_check.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"

namespace mdl::nn {
namespace {

TEST(GRUCell, StepShapeAndDeterminism) {
  Rng rng(1);
  GRUCell cell(4, 6, rng);
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor h0({3, 6});
  const Tensor h1 = cell.step(x, h0);
  EXPECT_EQ(h1.shape(0), 3);
  EXPECT_EQ(h1.shape(1), 6);
  cell.clear_cache();
  const Tensor h1b = cell.step(x, h0);
  EXPECT_TRUE(allclose(h1, h1b, 0.0F));
}

TEST(GRUCell, HiddenStaysBounded) {
  // GRU hidden state is a convex combination of h_prev and tanh output, so
  // it must stay in (-1, 1) when started from zero.
  Rng rng(2);
  GRUCell cell(3, 5, rng);
  Tensor h({2, 5});
  for (int t = 0; t < 50; ++t)
    h = cell.step(Tensor::randn({2, 3}, rng, 0.0F, 3.0F), h);
  EXPECT_LT(h.max(), 1.0F);
  EXPECT_GT(h.min(), -1.0F);
}

TEST(GRUCell, UpdateGateInterpolates) {
  // With identical weights, a step from h_prev = tanh-range vector keeps
  // h between h_prev and the candidate: |h| <= max(|h_prev|, 1).
  Rng rng(3);
  GRUCell cell(2, 4, rng);
  Tensor h({1, 4}, {0.9F, -0.9F, 0.5F, 0.0F});
  const Tensor h1 = cell.step(Tensor::randn({1, 2}, rng), h);
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_LE(std::abs(h1[i]), std::max(std::abs(h[i]), 1.0F));
}

TEST(GRUCell, BackwardRequiresCache) {
  Rng rng(4);
  GRUCell cell(2, 3, rng);
  EXPECT_THROW(cell.step_backward(Tensor({1, 3})), Error);
}

TEST(GRUCell, CacheDepthTracksSteps) {
  Rng rng(5);
  GRUCell cell(2, 3, rng);
  Tensor h({1, 3});
  h = cell.step(Tensor({1, 2}), h);
  h = cell.step(Tensor({1, 2}), h);
  EXPECT_EQ(cell.cached_steps(), 2U);
  cell.step_backward(Tensor({1, 3}));
  EXPECT_EQ(cell.cached_steps(), 1U);
  cell.clear_cache();
  EXPECT_EQ(cell.cached_steps(), 0U);
}

TEST(GRU, ForwardShapes) {
  Rng rng(6);
  GRU gru(3, 8, rng);
  const Tensor seq = Tensor::randn({5, 2, 3}, rng);
  const Tensor h = gru.forward(seq);
  EXPECT_EQ(h.shape(0), 2);
  EXPECT_EQ(h.shape(1), 8);
  EXPECT_THROW(gru.forward(Tensor({5, 2, 4})), Error);
  EXPECT_THROW(gru.forward(Tensor({0, 2, 3})), Error);
}

TEST(GRU, ParameterCount) {
  Rng rng(7);
  GRU gru(4, 6, rng);
  // 3 gates x (W [6,4] + U [6,6] + b [6]).
  std::int64_t total = 0;
  for (Parameter* p : gru.parameters()) total += p->value.size();
  EXPECT_EQ(total, 3 * (6 * 4 + 6 * 6 + 6));
}

TEST(GRU, ParameterGradientCheck) {
  Rng rng(8);
  GRU gru(2, 3, rng);
  const Tensor seq = Tensor::randn({4, 2, 2}, rng);
  const std::vector<std::int64_t> labels{0, 2};
  // Loss reads the final hidden state directly through CE over 3 "classes".
  SoftmaxCrossEntropy loss;
  auto loss_fn = [&] { return loss.forward(gru.forward(seq), labels); };
  for (Parameter* p : gru.parameters()) {
    test::check_gradient(
        p->value, loss_fn,
        [&] {
          loss_fn();
          gru.zero_grad();
          gru.backward(loss.backward());
          return p->grad;
        },
        1e-3, 3e-2, 24);
  }
}

TEST(GRU, InputGradientCheck) {
  Rng rng(9);
  GRU gru(2, 3, rng);
  Tensor seq = Tensor::randn({3, 2, 2}, rng);
  const std::vector<std::int64_t> labels{1, 0};
  SoftmaxCrossEntropy loss;
  auto loss_fn = [&] { return loss.forward(gru.forward(seq), labels); };
  test::check_gradient(
      seq, loss_fn,
      [&] {
        loss_fn();
        gru.zero_grad();
        return gru.backward(loss.backward());
      },
      1e-3, 3e-2, 24);
}

TEST(GRU, LearnsToDiscriminateSequences) {
  // Tiny sanity training task: classify whether the first input feature is
  // persistently positive or negative across the sequence.
  Rng rng(10);
  GRU gru(1, 4, rng);
  Sequential head;
  head.emplace<Linear>(4, 2, rng);
  SoftmaxCrossEntropy loss;

  auto make_batch = [&](std::int64_t b, Rng& r, std::vector<std::int64_t>& y) {
    Tensor seq({6, b, 1});
    y.resize(static_cast<std::size_t>(b));
    for (std::int64_t i = 0; i < b; ++i) {
      const bool pos = r.bernoulli(0.5);
      y[static_cast<std::size_t>(i)] = pos ? 1 : 0;
      for (std::int64_t t = 0; t < 6; ++t)
        seq.at(t, i, 0) = static_cast<float>((pos ? 1.0 : -1.0) +
                                             0.3 * r.normal());
    }
    return seq;
  };

  std::vector<std::int64_t> y;
  std::vector<Parameter*> params = gru.parameters();
  for (Parameter* p : head.parameters()) params.push_back(p);
  for (int step = 0; step < 150; ++step) {
    const Tensor seq = make_batch(16, rng, y);
    const Tensor logits = head.forward(gru.forward(seq));
    loss.forward(logits, y);
    for (Parameter* p : params) p->zero_grad();
    gru.backward(head.backward(loss.backward()));
    for (Parameter* p : params)
      p->value.add_scaled_(p->grad, -0.1F);
  }
  Rng eval_rng(99);
  const Tensor seq = make_batch(64, eval_rng, y);
  const auto pred = head.forward(gru.forward(seq)).argmax_rows();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (pred[i] == y[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / y.size(), 0.9);
}

TEST(BiGRU, OutputConcatenatesDirections) {
  Rng rng(20);
  BiGRU bi(3, 5, rng);
  const Tensor seq = Tensor::randn({4, 2, 3}, rng);
  const Tensor h = bi.forward(seq);
  EXPECT_EQ(h.shape(0), 2);
  EXPECT_EQ(h.shape(1), 10);
  EXPECT_EQ(bi.hidden_size(), 10);
  EXPECT_EQ(bi.parameters().size(), 18U);  // 9 per direction
}

TEST(BiGRU, PalindromeSequenceSymmetry) {
  // On a time-symmetric sequence, a BiGRU whose two directions share
  // weights would produce identical halves; ours have independent weights,
  // but running the *same* GRU weights both ways on a palindrome must give
  // the forward half equal to running the reversed sequence. Instead we
  // check the operational property: reversing the input swaps the roles of
  // the two halves up to the direction-specific weights, i.e. the forward
  // half on seq equals the forward half on seq (determinism) and differs
  // on reversed input.
  Rng rng(21);
  BiGRU bi(2, 4, rng);
  Tensor seq = Tensor::randn({5, 1, 2}, rng);
  const Tensor h1 = bi.forward(seq);
  const Tensor h2 = bi.forward(seq);
  EXPECT_TRUE(allclose(h1, h2, 0.0F));
  // Reversed input changes the output (direction sensitivity).
  Tensor rev({5, 1, 2});
  for (std::int64_t t = 0; t < 5; ++t)
    rev.set_time_step(t, seq.time_step(4 - t));
  const Tensor h3 = bi.forward(rev);
  EXPECT_GT(max_abs_diff(h1, h3), 1e-4F);
}

TEST(BiGRU, GradientCheck) {
  Rng rng(22);
  BiGRU bi(2, 2, rng);
  Tensor seq = Tensor::randn({3, 2, 2}, rng);
  const std::vector<std::int64_t> labels{1, 3};
  SoftmaxCrossEntropy loss;
  auto loss_fn = [&] { return loss.forward(bi.forward(seq), labels); };
  // Input gradient (covers both directions' backward composition).
  test::check_gradient(
      seq, loss_fn,
      [&] {
        loss_fn();
        bi.zero_grad();
        return bi.backward(loss.backward());
      },
      1e-3, 3e-2, 24);
  // A couple of parameters from each direction.
  const auto params = bi.parameters();
  for (const std::size_t idx : {0UL, 2UL, 9UL, 11UL}) {
    test::check_gradient(
        params[idx]->value, loss_fn,
        [&] {
          loss_fn();
          bi.zero_grad();
          bi.backward(loss.backward());
          return params[idx]->grad;
        },
        1e-3, 3e-2, 16);
  }
}

TEST(BiGRU, FlopsAreTwiceUnidirectional) {
  Rng rng(23);
  GRU uni(4, 8, rng);
  BiGRU bi(4, 8, rng);
  uni.set_nominal_seq_len(7);
  bi.set_nominal_seq_len(7);
  EXPECT_EQ(bi.flops_per_example(), 2 * uni.flops_per_example());
}

TEST(GRU, FlopsScaleWithSeqLen) {
  Rng rng(11);
  GRU gru(4, 8, rng);
  gru.set_nominal_seq_len(1);
  const std::int64_t f1 = gru.flops_per_example();
  gru.set_nominal_seq_len(10);
  EXPECT_EQ(gru.flops_per_example(), 10 * f1);
}

}  // namespace
}  // namespace mdl::nn
