#include "nn/lstm.hpp"

#include <array>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/recurrent_steps.hpp"

namespace mdl::nn {

using namespace detail;

LSTM::LSTM(std::int64_t input_size, std::int64_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      w_i_("w_i", Tensor({hidden_size, input_size})),
      u_i_("u_i", Tensor({hidden_size, hidden_size})),
      b_i_("b_i", Tensor({hidden_size})),
      w_f_("w_f", Tensor({hidden_size, input_size})),
      u_f_("u_f", Tensor({hidden_size, hidden_size})),
      b_f_("b_f", Tensor({hidden_size})),
      w_o_("w_o", Tensor({hidden_size, input_size})),
      u_o_("u_o", Tensor({hidden_size, hidden_size})),
      b_o_("b_o", Tensor({hidden_size})),
      w_g_("w_g", Tensor({hidden_size, input_size})),
      u_g_("u_g", Tensor({hidden_size, hidden_size})),
      b_g_("b_g", Tensor({hidden_size})) {
  MDL_CHECK(input_size > 0 && hidden_size > 0, "LSTM dims must be positive");
  for (Parameter* w : {&w_i_, &w_f_, &w_o_, &w_g_})
    xavier_uniform(w->value, input_size_, hidden_size_, rng);
  for (Parameter* u : {&u_i_, &u_f_, &u_o_, &u_g_})
    xavier_uniform(u->value, hidden_size_, hidden_size_, rng);
  // Standard forget-gate bias init: start by remembering.
  b_f_.value.fill(1.0F);
}

Tensor LSTM::forward(const Tensor& sequence) {
  SequenceCache c;
  Tensor h = run(sequence, &c);
  cache_ = std::move(c);
  return h;
}

Tensor LSTM::infer(const Tensor& sequence) const {
  return run(sequence, nullptr);
}

Tensor LSTM::run(const Tensor& sequence, SequenceCache* sink) const {
  MDL_CHECK(sequence.ndim() == 3 && sequence.shape(2) == input_size_,
            "LSTM expects [T, B, " << input_size_ << "], got "
                                   << sequence.shape_str());
  const std::int64_t t_len = sequence.shape(0);
  MDL_CHECK(t_len > 0, "LSTM needs at least one time step");
  const std::int64_t batch = sequence.shape(1);
  const std::int64_t hid = hidden_size_;

  // x·Wᵀ for every step at once, the four gates as separate output column
  // blocks, so each element equals its per-step matmul_nt(x_t, W_*) bit for
  // bit (as in GRU::run). With a sink, step t's rows are then overwritten
  // by its gates, which backward() reads.
  Tensor x = sequence.reshape({t_len * batch, input_size_});
  Tensor gates_all = matmul_nt(
      x, Tensor::concat_rows(
             std::array{w_i_.value, w_f_.value, w_o_.value, w_g_.value}));
  const Tensor u_all = Tensor::concat_rows(
      std::array{u_i_.value, u_f_.value, u_o_.value, u_g_.value});
  const Tensor b_all = Tensor::concat_cols(std::array{
      b_i_.value.reshape({1, hid}), b_f_.value.reshape({1, hid}),
      b_o_.value.reshape({1, hid}), b_g_.value.reshape({1, hid})});

  Tensor h({batch, hid});
  Tensor c({batch, hid});
  Tensor gates({batch, 4 * hid});  // pre-activations, then i | f | o | g
  Tensor tanh_c({batch, hid});
  Tensor h_prev_all;
  Tensor c_prev_all;
  Tensor tanh_c_all;
  if (sink != nullptr) {
    h_prev_all = Tensor({t_len * batch, hid});
    c_prev_all = Tensor({t_len * batch, hid});
    tanh_c_all = Tensor({t_len * batch, hid});
  }
  for (std::int64_t t = 0; t < t_len; ++t) {
    if (sink != nullptr) {
      store_step(h, t, h_prev_all);
      store_step(c, t, c_prev_all);
    }
    // a = (x·Wᵀ + h·Uᵀ) + b, as step by step; then c and h in place, each
    // element reading only its own c_{t-1}.
    load_step(gates_all, t, gates);
    matmul_nt_acc(h, u_all, gates);
    activate_gates(gates, b_all.data(), 3 * hid);
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* gi = gates.data() + b * 4 * hid;
      const float* gf = gi + hid;
      const float* gg = gi + 3 * hid;
      for (std::int64_t j = 0; j < hid; ++j) {
        const std::int64_t k = b * hid + j;
        c[k] = (gf[j] * c[k]) + (gi[j] * gg[j]);
      }
    }
    tanh_c = c;
    activate_gates(tanh_c, nullptr, 0);
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* go = gates.data() + b * 4 * hid + 2 * hid;
      for (std::int64_t j = 0; j < hid; ++j) {
        const std::int64_t k = b * hid + j;
        h[k] = go[j] * tanh_c[k];
      }
    }
    if (sink != nullptr) {
      store_step(gates, t, gates_all);
      store_step(tanh_c, t, tanh_c_all);
    }
  }
  if (sink != nullptr) {
    *sink = {std::move(x), std::move(h_prev_all), std::move(c_prev_all),
             std::move(gates_all), std::move(tanh_c_all), t_len};
  }
  return h;
}

Tensor LSTM::backward(const Tensor& grad_last_hidden) {
  MDL_CHECK(cache_.has_value(), "LSTM backward without a cached forward");
  const std::int64_t hid = hidden_size_;
  const std::int64_t t_len = cache_->steps;
  const std::int64_t batch = cache_->h_prev.shape(0) / t_len;
  MDL_CHECK(grad_last_hidden.ndim() == 2 &&
                grad_last_hidden.shape(0) == batch &&
                grad_last_hidden.shape(1) == hid,
            "LSTM backward grad " << grad_last_hidden.shape_str());
  SequenceCache saved = std::move(*cache_);
  cache_.reset();

  // Per gate, in the order i, f, o, g of every sum below.
  const std::array<Parameter*, 4> w{&w_i_, &w_f_, &w_o_, &w_g_};
  const std::array<Parameter*, 4> u{&u_i_, &u_f_, &u_o_, &u_g_};
  const std::array<Parameter*, 4> bias{&b_i_, &b_f_, &b_o_, &b_g_};

  // Per step: x_t and h_{t-1} as matmul operands; the pre-activation
  // gradients; scratch for the products.
  Tensor x({batch, input_size_});
  Tensor h_prev({batch, hid});
  std::array<Tensor, 4> da{Tensor({batch, hid}), Tensor({batch, hid}),
                           Tensor({batch, hid}), Tensor({batch, hid})};
  Tensor prod({batch, hid});
  Tensor g_ih({hid, input_size_});
  Tensor g_hh({hid, hid});
  Tensor g_b({hid});

  Tensor dh = grad_last_hidden;  // d loss / d h_t, then / d h_{t-1}
  Tensor dc({batch, hid});       // d loss / d c_t, then / d c_{t-1}
  for (std::int64_t t = t_len - 1; t >= 0; --t) {
    load_step(saved.x, t, x);
    load_step(saved.h_prev, t, h_prev);
    const float* c_prev = saved.c_prev.data() + t * batch * hid;
    const float* tanh_c = saved.tanh_c.data() + t * batch * hid;

    // h = o ⊙ tanh(c) and c = f ⊙ c_prev + i ⊙ g, through each gate's
    // activation. Step t's gate rows are not read again, so they keep its
    // pre-activation gradients for the input gradient.
    for (std::int64_t b = 0; b < batch; ++b) {
      float* gi = saved.gates.data() + (t * batch + b) * 4 * hid;
      float* gf = gi + hid;
      float* go = gf + hid;
      float* gg = go + hid;
      for (std::int64_t j = 0; j < hid; ++j) {
        const std::int64_t k = b * hid + j;
        const float i = gi[j];
        const float f = gf[j];
        const float o = go[j];
        const float g = gg[j];
        const float dcell = dc[k] + dh[k] * o * (1.0F - tanh_c[k] * tanh_c[k]);
        dc[k] = dcell * f;
        gi[j] = da[0][k] = (dcell * g) * (i * (1.0F - i));
        gf[j] = da[1][k] = (dcell * c_prev[k]) * (f * (1.0F - f));
        go[j] = da[2][k] = (dh[k] * tanh_c[k]) * (o * (1.0F - o));
        gg[j] = da[3][k] = (dcell * i) * (1.0F - g * g);
      }
    }
    dh.zero();
    for (std::size_t q = 0; q < 4; ++q) {
      add_product(matmul_tn_acc, da[q], x, g_ih, w[q]->grad);
      add_product(matmul_tn_acc, da[q], h_prev, g_hh, u[q]->grad);
      add_row_sums(da[q], g_b, bias[q]->grad);
      add_product(matmul_acc, da[q], u[q]->value, prod, dh);
    }
  }

  // dx_t = da_i·W_i + da_f·W_f + da_o·W_o + da_g·W_g for all steps at once;
  // rows keep their chains, and the four terms are added in that order.
  const std::vector<Tensor> da_all =
      saved.gates.split_cols(std::array{hid, hid, hid, hid});
  Tensor dx = matmul(da_all[0], w[0]->value);
  for (std::size_t q = 1; q < 4; ++q) dx.add_(matmul(da_all[q], w[q]->value));
  return dx.reshape({t_len, batch, input_size_});
}

std::vector<Parameter*> LSTM::parameters() {
  return {&w_i_, &u_i_, &b_i_, &w_f_, &u_f_, &b_f_,
          &w_o_, &u_o_, &b_o_, &w_g_, &u_g_, &b_g_};
}

std::string LSTM::name() const {
  std::ostringstream os;
  os << "LSTM(" << input_size_ << "->" << hidden_size_ << ')';
  return os.str();
}

std::int64_t LSTM::flops_per_example() const {
  // Per step: four input matmuls, four recurrent matmuls, plus
  // elementwise work.
  return nominal_seq_len_ *
         (4 * 2 * input_size_ * hidden_size_ +
          4 * 2 * hidden_size_ * hidden_size_ + 16 * hidden_size_);
}

}  // namespace mdl::nn
