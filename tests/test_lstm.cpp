#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "grad_check.hpp"
#include "nn/activations.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"

namespace mdl::nn {
namespace {

// The gate equations one step at a time with Tensor ops, every step cached
// for BPTT: the per-step LSTM that LSTM's sequence routine must reproduce
// bit for bit.
class StepReference {
 public:
  explicit StepReference(LSTM& lstm) : p_(lstm.parameters()) {}

  Tensor forward(const Tensor& seq) {
    steps_.clear();
    Tensor h({seq.shape(1), value(u(kI)).shape(0)});
    Tensor c(h.shape());
    for (std::int64_t t = 0; t < seq.shape(0); ++t) {
      Step s{seq.time_step(t), h, c, {}, {}};
      for (std::size_t k = 0; k < kGates; ++k) {
        Tensor a = matmul_nt(s.x, value(w(k)));
        matmul_nt_acc(h, value(u(k)), a);
        add_row_broadcast(a, value(b(k)));
        s.gate[k] = k == kG ? tanh_t(a) : sigmoid(a);
      }
      c = s.gate[kF];
      c.mul_(s.c_prev);
      Tensor ig = s.gate[kI];
      ig.mul_(s.gate[kG]);
      c.add_(ig);
      s.tanh_c = tanh_t(c);
      h = s.gate[kO];
      h.mul_(s.tanh_c);
      steps_.push_back(std::move(s));
    }
    return h;
  }

  /// Returns d loss / d seq and adds the parameter gradients to `grads`
  /// (parameters() order).
  Tensor backward(const Tensor& grad_h, std::vector<Tensor>& grads) {
    const auto t_len = static_cast<std::int64_t>(steps_.size());
    Tensor grad_in({t_len, grad_h.shape(0), value(w(kI)).shape(1)});
    Tensor dh = grad_h;
    Tensor dc(grad_h.shape());
    for (std::int64_t t = t_len - 1; t >= 0; --t) {
      const Step& s = steps_[static_cast<std::size_t>(t)];
      const Tensor& i = s.gate[kI];
      const Tensor& f = s.gate[kF];
      const Tensor& o = s.gate[kO];
      const Tensor& g = s.gate[kG];
      const std::int64_t n = dh.size();
      std::array<Tensor, kGates> da{Tensor(dh.shape()), Tensor(dh.shape()),
                                    Tensor(dh.shape()), Tensor(dh.shape())};
      Tensor dc_prev(dh.shape());
      for (std::int64_t k = 0; k < n; ++k) {
        da[kO][k] = dh[k] * s.tanh_c[k];
        dc[k] += dh[k] * o[k] * (1.0F - s.tanh_c[k] * s.tanh_c[k]);
      }
      for (std::int64_t k = 0; k < n; ++k) {
        da[kF][k] = dc[k] * s.c_prev[k];
        dc_prev[k] = dc[k] * f[k];
        da[kI][k] = dc[k] * g[k];
        da[kG][k] = dc[k] * i[k];
      }
      for (std::int64_t k = 0; k < n; ++k) {
        da[kI][k] *= i[k] * (1.0F - i[k]);
        da[kF][k] *= f[k] * (1.0F - f[k]);
        da[kO][k] *= o[k] * (1.0F - o[k]);
        da[kG][k] *= 1.0F - g[k] * g[k];
      }
      Tensor dx(s.x.shape());
      Tensor dh_prev(dh.shape());
      for (std::size_t k = 0; k < kGates; ++k) {
        grads[w(k)].add_(matmul_tn(da[k], s.x));
        grads[u(k)].add_(matmul_tn(da[k], s.h_prev));
        grads[b(k)].add_(da[k].sum_rows());
        dx.add_(matmul(da[k], value(w(k))));
        dh_prev.add_(matmul(da[k], value(u(k))));
      }
      grad_in.set_time_step(t, dx);
      dh = std::move(dh_prev);
      dc = std::move(dc_prev);
    }
    return grad_in;
  }

 private:
  // Gates in LSTM::parameters() order; gate k owns parameters 3k..3k+2.
  enum : std::size_t { kI, kF, kO, kG, kGates };
  static std::size_t w(std::size_t k) { return 3 * k; }
  static std::size_t u(std::size_t k) { return 3 * k + 1; }
  static std::size_t b(std::size_t k) { return 3 * k + 2; }

  struct Step {
    Tensor x, h_prev, c_prev;
    std::array<Tensor, kGates> gate;
    Tensor tanh_c;
  };

  const Tensor& value(std::size_t k) const { return p_[k]->value; }

  std::vector<Parameter*> p_;
  std::vector<Step> steps_;
};

TEST(LstmSequence, MatchesStepReference) {
  // Two forward/backward rounds without zero_grad, so the gradient sums
  // across calls are pinned too.
  for (const std::int64_t in : {3, 4, 6})
    for (const std::int64_t hid : {5, 16})
      for (const std::int64_t t_len : {1, 12, 32})
        for (const std::int64_t batch : {1, 3, 8, 32}) {
          SCOPED_TRACE(testing::Message() << "I=" << in << " H=" << hid
                                          << " T=" << t_len << " B=" << batch);
          Rng rng(static_cast<std::uint64_t>(in * 1000 + t_len * 10 + batch));
          LSTM lstm(in, hid, rng);
          StepReference ref(lstm);
          std::vector<Tensor> grads;
          for (Parameter* p : lstm.parameters())
            grads.emplace_back(p->grad.shape());
          for (int round = 0; round < 2; ++round) {
            const Tensor seq = Tensor::randn({t_len, batch, in}, rng);
            const Tensor grad = Tensor::randn({batch, hid}, rng);
            const Tensor h = ref.forward(seq);
            EXPECT_TRUE(lstm.infer(seq) == h);
            EXPECT_TRUE(lstm.forward(seq) == h);
            EXPECT_TRUE(lstm.backward(grad) == ref.backward(grad, grads));
          }
          const std::vector<Parameter*> params = lstm.parameters();
          for (std::size_t k = 0; k < params.size(); ++k)
            EXPECT_TRUE(params[k]->grad == grads[k]) << params[k]->name;
        }
}

// The LSTMCell suite checks the recurrence through the sequence API.
TEST(LSTMCell, StepShapesAndDeterminism) {
  Rng rng(1);
  LSTM lstm(4, 6, rng);
  const Tensor x = Tensor::randn({1, 3, 4}, rng);
  const Tensor h1 = lstm.forward(x);
  EXPECT_EQ(h1.shape(0), 3);
  EXPECT_EQ(h1.shape(1), 6);
  const Tensor h1b = lstm.forward(x);
  EXPECT_TRUE(allclose(h1, h1b, 0.0F));
}

TEST(LSTMCell, HiddenBounded) {
  // h = o ⊙ tanh(c): |h| < 1 always.
  Rng rng(2);
  LSTM lstm(3, 5, rng);
  const Tensor h = lstm.infer(Tensor::randn({50, 2, 3}, rng, 0.0F, 3.0F));
  EXPECT_LT(h.max(), 1.0F);
  EXPECT_GT(h.min(), -1.0F);
}

TEST(LSTMCell, ParameterCount) {
  Rng rng(3);
  LSTM lstm(4, 6, rng);
  std::int64_t total = 0;
  for (Parameter* p : lstm.parameters()) total += p->value.size();
  EXPECT_EQ(total, 4 * (6 * 4 + 6 * 6 + 6));  // four gates
}

TEST(LSTM, BackwardWithoutForwardThrows) {
  Rng rng(4);
  LSTM lstm(2, 3, rng);
  EXPECT_THROW(lstm.backward(Tensor({1, 3})), Error);
}

TEST(LSTM, SecondBackwardThrows) {
  // backward() consumes the cache of its forward().
  Rng rng(5);
  LSTM lstm(2, 3, rng);
  lstm.forward(Tensor({2, 1, 2}));
  lstm.backward(Tensor({1, 3}));
  EXPECT_THROW(lstm.backward(Tensor({1, 3})), Error);
  lstm.forward(Tensor({2, 1, 2}));
  EXPECT_NO_THROW(lstm.backward(Tensor({1, 3})));
}

TEST(LSTM, ForwardShapes) {
  Rng rng(5);
  LSTM lstm(3, 8, rng);
  const Tensor seq = Tensor::randn({5, 2, 3}, rng);
  const Tensor h = lstm.forward(seq);
  EXPECT_EQ(h.shape(0), 2);
  EXPECT_EQ(h.shape(1), 8);
  EXPECT_THROW(lstm.forward(Tensor({5, 2, 4})), Error);
  EXPECT_THROW(lstm.forward(Tensor({0, 2, 3})), Error);
}

TEST(LSTM, ParameterGradientCheck) {
  Rng rng(6);
  LSTM lstm(2, 3, rng);
  const Tensor seq = Tensor::randn({4, 2, 2}, rng);
  const std::vector<std::int64_t> labels{0, 2};
  SoftmaxCrossEntropy loss;
  auto loss_fn = [&] { return loss.forward(lstm.forward(seq), labels); };
  for (Parameter* p : lstm.parameters()) {
    const test::GradCheckStats stats = test::check_gradient(
        p->value, loss_fn,
        [&] {
          loss_fn();
          lstm.zero_grad();
          lstm.backward(loss.backward());
          return p->grad;
        },
        1e-3, 3e-2, 48, p->name);
    EXPECT_GT(stats.coords_checked, 0) << p->name;
  }
}

TEST(LSTM, InputGradientCheck) {
  Rng rng(7);
  LSTM lstm(2, 3, rng);
  Tensor seq = Tensor::randn({3, 2, 2}, rng);
  const std::vector<std::int64_t> labels{1, 0};
  SoftmaxCrossEntropy loss;
  auto loss_fn = [&] { return loss.forward(lstm.forward(seq), labels); };
  test::check_gradient(
      seq, loss_fn,
      [&] {
        loss_fn();
        lstm.zero_grad();
        return lstm.backward(loss.backward());
      },
      1e-3, 3e-2, 24, "input_seq");
}

TEST(LSTM, LearnsSequenceDiscrimination) {
  Rng rng(8);
  LSTM lstm(1, 4, rng);
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
        seq.at(t, i, 0) =
            static_cast<float>((pos ? 1.0 : -1.0) + 0.3 * r.normal());
    }
    return seq;
  };

  std::vector<std::int64_t> y;
  std::vector<Parameter*> params = lstm.parameters();
  for (Parameter* p : head.parameters()) params.push_back(p);
  for (int step = 0; step < 150; ++step) {
    const Tensor seq = make_batch(16, rng, y);
    loss.forward(head.forward(lstm.forward(seq)), y);
    for (Parameter* p : params) p->zero_grad();
    lstm.backward(head.backward(loss.backward()));
    for (Parameter* p : params) p->value.add_scaled_(p->grad, -0.1F);
  }
  Rng eval_rng(99);
  const Tensor seq = make_batch(64, eval_rng, y);
  const auto pred = head.forward(lstm.forward(seq)).argmax_rows();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (pred[i] == y[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / y.size(), 0.9);
}

TEST(LSTM, FlopsExceedGru) {
  // Four gates vs three: LSTM is ~4/3 the GRU cost.
  Rng rng(9);
  LSTM lstm(8, 16, rng);
  GRU gru(8, 16, rng);
  lstm.set_nominal_seq_len(10);
  gru.set_nominal_seq_len(10);
  EXPECT_GT(lstm.flops_per_example(), gru.flops_per_example());
}

}  // namespace
}  // namespace mdl::nn
