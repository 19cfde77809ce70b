#include "nn/gru.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "grad_check.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"

namespace mdl::nn {
namespace {

// Eq. (1) one step at a time with Tensor ops, every step cached for BPTT:
// the per-step GRU that GRU's sequence routine must reproduce bit for bit.
class StepReference {
 public:
  explicit StepReference(GRU& gru) : p_(gru.parameters()) {}

  Tensor forward(const Tensor& seq) {
    steps_.clear();
    Tensor h({seq.shape(1), value(kUr).shape(0)});
    for (std::int64_t t = 0; t < seq.shape(0); ++t) {
      Step s{seq.time_step(t), h, {}, {}, {}, {}};
      s.r = sigmoid(gate(s.x, kWr, h, kUr, kBr));
      s.z = sigmoid(gate(s.x, kWz, h, kUz, kBz));
      s.rh = s.r;
      s.rh.mul_(h);
      s.h_cand = tanh_t(gate(s.x, kWh, s.rh, kUh, kBh));
      h = s.z;
      h.mul_(s.h_prev);
      Tensor rest = s.h_cand;
      for (std::int64_t i = 0; i < rest.size(); ++i) rest[i] *= 1.0F - s.z[i];
      h.add_(rest);
      steps_.push_back(std::move(s));
    }
    return h;
  }

  /// Returns d loss / d seq and adds the parameter gradients to `grads`
  /// (parameters() order).
  Tensor backward(const Tensor& grad_h, std::vector<Tensor>& grads) {
    const auto t_len = static_cast<std::int64_t>(steps_.size());
    Tensor grad_in({t_len, grad_h.shape(0), value(kWr).shape(1)});
    Tensor dh = grad_h;
    for (std::int64_t t = t_len - 1; t >= 0; --t) {
      const Step& c = steps_[static_cast<std::size_t>(t)];
      const std::int64_t n = dh.size();
      Tensor dz(dh.shape());
      Tensor dh_cand(dh.shape());
      Tensor dh_prev = dh;
      for (std::int64_t i = 0; i < n; ++i) {
        dz[i] = dh[i] * (c.h_prev[i] - c.h_cand[i]);
        dh_cand[i] = dh[i] * (1.0F - c.z[i]);
        dh_prev[i] = dh[i] * c.z[i];
      }
      Tensor da_h = dh_cand;
      for (std::int64_t i = 0; i < n; ++i)
        da_h[i] *= 1.0F - c.h_cand[i] * c.h_cand[i];
      grads[kWh].add_(matmul_tn(da_h, c.x));
      grads[kUh].add_(matmul_tn(da_h, c.rh));
      grads[kBh].add_(da_h.sum_rows());
      Tensor dx = matmul(da_h, value(kWh));
      const Tensor drh = matmul(da_h, value(kUh));
      Tensor dr(dh.shape());
      for (std::int64_t i = 0; i < n; ++i) {
        dr[i] = drh[i] * c.h_prev[i];
        dh_prev[i] += drh[i] * c.r[i];
      }
      Tensor da_r = dr;
      for (std::int64_t i = 0; i < n; ++i) da_r[i] *= c.r[i] * (1.0F - c.r[i]);
      grads[kWr].add_(matmul_tn(da_r, c.x));
      grads[kUr].add_(matmul_tn(da_r, c.h_prev));
      grads[kBr].add_(da_r.sum_rows());
      dx.add_(matmul(da_r, value(kWr)));
      dh_prev.add_(matmul(da_r, value(kUr)));
      Tensor da_z = dz;
      for (std::int64_t i = 0; i < n; ++i) da_z[i] *= c.z[i] * (1.0F - c.z[i]);
      grads[kWz].add_(matmul_tn(da_z, c.x));
      grads[kUz].add_(matmul_tn(da_z, c.h_prev));
      grads[kBz].add_(da_z.sum_rows());
      dx.add_(matmul(da_z, value(kWz)));
      dh_prev.add_(matmul(da_z, value(kUz)));
      grad_in.set_time_step(t, dx);
      dh = std::move(dh_prev);
    }
    return grad_in;
  }

 private:
  // Indices into GRU::parameters().
  enum : std::size_t { kWr, kUr, kBr, kWz, kUz, kBz, kWh, kUh, kBh };
  struct Step {
    Tensor x, h_prev, r, z, h_cand, rh;
  };

  const Tensor& value(std::size_t k) const { return p_[k]->value; }

  Tensor gate(const Tensor& x, std::size_t w, const Tensor& h, std::size_t u,
              std::size_t b) const {
    Tensor a = matmul_nt(x, value(w));
    matmul_nt_acc(h, value(u), a);
    add_row_broadcast(a, value(b));
    return a;
  }

  std::vector<Parameter*> p_;
  std::vector<Step> steps_;
};

TEST(GruSequence, MatchesStepReference) {
  // Two forward/backward rounds without zero_grad, so the gradient sums
  // across calls are pinned too.
  for (const std::int64_t in : {3, 4, 6})
    for (const std::int64_t hid : {5, 16})
      for (const std::int64_t t_len : {1, 12, 32, 48})
        for (const std::int64_t batch : {1, 3, 8, 32}) {
          SCOPED_TRACE(testing::Message() << "I=" << in << " H=" << hid
                                          << " T=" << t_len << " B=" << batch);
          Rng rng(static_cast<std::uint64_t>(in * 1000 + t_len * 10 + batch));
          GRU gru(in, hid, rng);
          StepReference ref(gru);
          std::vector<Tensor> grads;
          for (Parameter* p : gru.parameters())
            grads.emplace_back(p->grad.shape());
          for (int round = 0; round < 2; ++round) {
            const Tensor seq = Tensor::randn({t_len, batch, in}, rng);
            const Tensor grad = Tensor::randn({batch, hid}, rng);
            const Tensor h = ref.forward(seq);
            EXPECT_TRUE(gru.infer(seq) == h);
            EXPECT_TRUE(gru.forward(seq) == h);
            EXPECT_TRUE(gru.backward(grad) == ref.backward(grad, grads));
          }
          const std::vector<Parameter*> params = gru.parameters();
          for (std::size_t k = 0; k < params.size(); ++k)
            EXPECT_TRUE(params[k]->grad == grads[k]) << params[k]->name;
        }
}

// The GRUCell suite checks the recurrence of Eq. (1) through the sequence
// API.
TEST(GRUCell, StepShapeAndDeterminism) {
  Rng rng(1);
  GRU gru(4, 6, rng);
  const Tensor x = Tensor::randn({1, 3, 4}, rng);
  const Tensor h1 = gru.forward(x);
  EXPECT_EQ(h1.shape(0), 3);
  EXPECT_EQ(h1.shape(1), 6);
  const Tensor h1b = gru.forward(x);
  EXPECT_TRUE(allclose(h1, h1b, 0.0F));
}

TEST(GRUCell, HiddenStaysBounded) {
  // GRU hidden state is a convex combination of h_prev and tanh output, so
  // it must stay in (-1, 1) when started from zero.
  Rng rng(2);
  GRU gru(3, 5, rng);
  const Tensor h = gru.infer(Tensor::randn({50, 2, 3}, rng, 0.0F, 3.0F));
  EXPECT_LT(h.max(), 1.0F);
  EXPECT_GT(h.min(), -1.0F);
}

TEST(GRUCell, UpdateGateInterpolates) {
  // The last step keeps h_T between h_{T-1} and the candidate:
  // |h_T| <= max(|h_{T-1}|, 1).
  Rng rng(3);
  GRU gru(2, 4, rng);
  const Tensor seq = Tensor::randn({6, 1, 2}, rng, 0.0F, 3.0F);
  Tensor head({5, 1, 2});
  for (std::int64_t t = 0; t < 5; ++t) head.set_time_step(t, seq.time_step(t));
  const Tensor h_prev = gru.infer(head);
  const Tensor h = gru.infer(seq);
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_LE(std::abs(h[i]), std::max(std::abs(h_prev[i]), 1.0F));
}

TEST(GRU, BackwardWithoutForwardThrows) {
  Rng rng(4);
  GRU gru(2, 3, rng);
  EXPECT_THROW(gru.backward(Tensor({1, 3})), Error);
}

TEST(GRU, SecondBackwardThrows) {
  // backward() consumes the cache of its forward().
  Rng rng(5);
  GRU gru(2, 3, rng);
  gru.forward(Tensor({2, 1, 2}));
  gru.backward(Tensor({1, 3}));
  EXPECT_THROW(gru.backward(Tensor({1, 3})), Error);
  gru.forward(Tensor({2, 1, 2}));
  EXPECT_NO_THROW(gru.backward(Tensor({1, 3})));
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
