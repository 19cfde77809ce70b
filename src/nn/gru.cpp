#include "nn/gru.hpp"

#include <array>
#include <cmath>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/recurrent_steps.hpp"

namespace mdl::nn {

using namespace detail;

GRU::GRU(std::int64_t input_size, std::int64_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      w_r_("w_r", Tensor({hidden_size, input_size})),
      u_r_("u_r", Tensor({hidden_size, hidden_size})),
      b_r_("b_r", Tensor({hidden_size})),
      w_z_("w_z", Tensor({hidden_size, input_size})),
      u_z_("u_z", Tensor({hidden_size, hidden_size})),
      b_z_("b_z", Tensor({hidden_size})),
      w_h_("w_h", Tensor({hidden_size, input_size})),
      u_h_("u_h", Tensor({hidden_size, hidden_size})),
      b_h_("b_h", Tensor({hidden_size})) {
  MDL_CHECK(input_size > 0 && hidden_size > 0, "GRU dims must be positive");
  for (Parameter* w : {&w_r_, &w_z_, &w_h_})
    xavier_uniform(w->value, input_size_, hidden_size_, rng);
  for (Parameter* u : {&u_r_, &u_z_, &u_h_})
    xavier_uniform(u->value, hidden_size_, hidden_size_, rng);
  // b_z starts slightly positive so z ≈ sigmoid(1) initially favours
  // carrying the previous state, which stabilizes early training (the
  // recurrent analogue of LSTM forget-gate bias init).
  b_z_.value.fill(1.0F);
}

Tensor GRU::forward(const Tensor& sequence) {
  SequenceCache c;
  Tensor h = run(sequence, &c);
  cache_ = std::move(c);
  return h;
}

Tensor GRU::infer(const Tensor& sequence) const {
  return run(sequence, nullptr);
}

Tensor GRU::run(const Tensor& sequence, SequenceCache* sink) const {
  MDL_CHECK(sequence.ndim() == 3 && sequence.shape(2) == input_size_,
            "GRU expects [T, B, " << input_size_ << "], got "
                                  << sequence.shape_str());
  const std::int64_t t_len = sequence.shape(0);
  MDL_CHECK(t_len > 0, "GRU needs at least one time step");
  const std::int64_t batch = sequence.shape(1);
  const std::int64_t hid = hidden_size_;

  // x·Wᵀ for every step at once. A GEMM row's chain does not depend on the
  // row count, and the r and z blocks are separate output columns, so each
  // element equals its per-step matmul_nt(x_t, W_*) bit for bit. With a
  // sink, step t's rows are then overwritten by its gates and h~, which
  // backward() reads.
  Tensor x = sequence.reshape({t_len * batch, input_size_});
  Tensor rz_all =
      matmul_nt(x, Tensor::concat_rows(std::array{w_r_.value, w_z_.value}));
  Tensor h_cand_all = matmul_nt(x, w_h_.value);
  const Tensor u_rz =
      Tensor::concat_rows(std::array{u_r_.value, u_z_.value});

  Tensor h({batch, hid});
  Tensor rz({batch, 2 * hid});  // pre-activations, then the gates r | z
  Tensor rh({batch, hid});      // r ⊙ h_prev
  Tensor h_cand({batch, hid});  // pre-activation, then h~
  Tensor h_prev_all;
  Tensor rh_all;
  if (sink != nullptr) {
    h_prev_all = Tensor({t_len * batch, hid});
    rh_all = Tensor({t_len * batch, hid});
  }
  for (std::int64_t t = 0; t < t_len; ++t) {
    if (sink != nullptr) store_step(h, t, h_prev_all);
    // a = (x·Wᵀ + h·Uᵀ) + b: the recurrent terms continue the input
    // product's chain, then the bias is added, as in Eq. (1) step by step.
    load_step(rz_all, t, rz);
    matmul_nt_acc(h, u_rz, rz);
    for (std::int64_t b = 0; b < batch; ++b) {
      float* g = rz.data() + b * 2 * hid;
      for (std::int64_t j = 0; j < hid; ++j) {
        g[j] = sigmoid_scalar(g[j] + b_r_.value[j]);
        g[hid + j] = sigmoid_scalar(g[hid + j] + b_z_.value[j]);
        rh[b * hid + j] = g[j] * h[b * hid + j];
      }
    }
    load_step(h_cand_all, t, h_cand);
    matmul_nt_acc(rh, u_h_.value, h_cand);
    // h = z ⊙ h_prev + (1 - z) ⊙ h~, in place: each element reads only
    // its own h_prev.
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* z = rz.data() + b * 2 * hid + hid;
      for (std::int64_t j = 0; j < hid; ++j) {
        const std::int64_t i = b * hid + j;
        h_cand[i] = std::tanh(h_cand[i] + b_h_.value[j]);
        h[i] = (z[j] * h[i]) + (h_cand[i] * (1.0F - z[j]));
      }
    }
    if (sink != nullptr) {
      store_step(rz, t, rz_all);
      store_step(rh, t, rh_all);
      store_step(h_cand, t, h_cand_all);
    }
  }
  if (sink != nullptr) {
    *sink = {std::move(x), std::move(h_prev_all), std::move(rz_all),
             std::move(h_cand_all), std::move(rh_all), t_len};
  }
  return h;
}

Tensor GRU::backward(const Tensor& grad_last_hidden) {
  MDL_CHECK(cache_.has_value(), "GRU backward without a cached forward");
  const std::int64_t hid = hidden_size_;
  const std::int64_t t_len = cache_->steps;
  const std::int64_t batch = cache_->h_prev.shape(0) / t_len;
  MDL_CHECK(grad_last_hidden.ndim() == 2 &&
                grad_last_hidden.shape(0) == batch &&
                grad_last_hidden.shape(1) == hid,
            "GRU backward grad " << grad_last_hidden.shape_str());
  SequenceCache c = std::move(*cache_);
  cache_.reset();

  // Per step: x_t, h_{t-1} and r ⊙ h_{t-1} as matmul operands; the
  // pre-activation gradients; scratch for the products.
  Tensor x({batch, input_size_});
  Tensor h_prev({batch, hid});
  Tensor rh({batch, hid});
  Tensor da_h({batch, hid});
  Tensor da_r({batch, hid});
  Tensor da_z({batch, hid});
  Tensor prod({batch, hid});
  Tensor g_ih({hid, input_size_});
  Tensor g_hh({hid, hid});
  Tensor g_b({hid});

  Tensor dh = grad_last_hidden;  // d loss / d h_t, then / d h_{t-1}
  for (std::int64_t t = t_len - 1; t >= 0; --t) {
    load_step(c.x, t, x);
    load_step(c.h_prev, t, h_prev);
    load_step(c.rh, t, rh);
    const float* rz = c.rz.data() + t * batch * 2 * hid;
    const float* h_cand = c.h_cand.data() + t * batch * hid;

    // h = z ⊙ h_prev + (1 - z) ⊙ h~, and h~ = tanh(a_h). da_z holds
    // d loss / d z until the gate derivative is applied below.
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t j = 0; j < hid; ++j) {
        const std::int64_t i = b * hid + j;
        const float z = rz[b * 2 * hid + hid + j];
        const float g = dh[i];
        da_z[i] = g * (h_prev[i] - h_cand[i]);
        da_h[i] = (g * (1.0F - z)) * (1.0F - h_cand[i] * h_cand[i]);
        dh[i] = g * z;
      }
    }
    add_product(matmul_tn_acc, da_h, x, g_ih, w_h_.grad);
    add_product(matmul_tn_acc, da_h, rh, g_hh, u_h_.grad);
    add_row_sums(da_h, g_b, b_h_.grad);

    // Through a_h = W x + U (r ⊙ h_prev) + b and the sigmoid gates.
    prod.zero();
    matmul_acc(da_h, u_h_.value, prod);  // d loss / d (r ⊙ h_prev)
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t j = 0; j < hid; ++j) {
        const std::int64_t i = b * hid + j;
        const float r = rz[b * 2 * hid + j];
        const float z = rz[b * 2 * hid + hid + j];
        dh[i] += prod[i] * r;
        da_r[i] = (prod[i] * h_prev[i]) * (r * (1.0F - r));
        da_z[i] *= z * (1.0F - z);
      }
    }
    add_product(matmul_tn_acc, da_r, x, g_ih, w_r_.grad);
    add_product(matmul_tn_acc, da_r, h_prev, g_hh, u_r_.grad);
    add_row_sums(da_r, g_b, b_r_.grad);
    add_product(matmul_acc, da_r, u_r_.value, prod, dh);

    add_product(matmul_tn_acc, da_z, x, g_ih, w_z_.grad);
    add_product(matmul_tn_acc, da_z, h_prev, g_hh, u_z_.grad);
    add_row_sums(da_z, g_b, b_z_.grad);
    add_product(matmul_acc, da_z, u_z_.value, prod, dh);

    // Step t's rows of h_cand, h_prev and rh are not read again, so they
    // keep its pre-activation gradients for the input gradient.
    store_step(da_h, t, c.h_cand);
    store_step(da_r, t, c.h_prev);
    store_step(da_z, t, c.rh);
  }

  // dx_t = da_h·W_h + da_r·W_r + da_z·W_z for all steps at once; rows keep
  // their chains, and the three terms are added in that order.
  Tensor dx = matmul(c.h_cand, w_h_.value);
  dx.add_(matmul(c.h_prev, w_r_.value));
  dx.add_(matmul(c.rh, w_z_.value));
  return dx.reshape({t_len, batch, input_size_});
}

std::vector<Parameter*> GRU::parameters() {
  return {&w_r_, &u_r_, &b_r_, &w_z_, &u_z_, &b_z_, &w_h_, &u_h_, &b_h_};
}

std::string GRU::name() const {
  std::ostringstream os;
  os << "GRU(" << input_size_ << "->" << hidden_size_ << ')';
  return os.str();
}

std::int64_t GRU::flops_per_example() const {
  // Per step: three input matmuls, three recurrent matmuls, plus
  // elementwise work.
  return nominal_seq_len_ *
         (3 * 2 * input_size_ * hidden_size_ +
          3 * 2 * hidden_size_ * hidden_size_ + 12 * hidden_size_);
}

BiGRU::BiGRU(std::int64_t input_size, std::int64_t hidden_size, Rng& rng)
    : fwd_(input_size, hidden_size, rng), bwd_(input_size, hidden_size, rng) {}

Tensor BiGRU::reverse_time(const Tensor& seq) {
  MDL_CHECK(seq.ndim() == 3, "expected [T, B, F]");
  Tensor out(seq.shape());
  const std::int64_t t_len = seq.shape(0);
  for (std::int64_t t = 0; t < t_len; ++t)
    out.set_time_step(t, seq.time_step(t_len - 1 - t));
  return out;
}

Tensor BiGRU::forward(const Tensor& sequence) {
  return Tensor::concat_cols(std::array{
      fwd_.forward(sequence), bwd_.forward(reverse_time(sequence))});
}

Tensor BiGRU::infer(const Tensor& sequence) const {
  return Tensor::concat_cols(std::array{
      fwd_.infer(sequence), bwd_.infer(reverse_time(sequence))});
}

Tensor BiGRU::backward(const Tensor& grad_hidden) {
  const std::int64_t h = fwd_.hidden_size();
  MDL_CHECK(grad_hidden.ndim() == 2 && grad_hidden.shape(1) == 2 * h,
            "BiGRU backward grad " << grad_hidden.shape_str());
  const std::vector<Tensor> g = grad_hidden.split_cols(std::array{h, h});
  Tensor grad_in = fwd_.backward(g[0]);
  grad_in.add_(reverse_time(bwd_.backward(g[1])));
  return grad_in;
}

std::vector<Parameter*> BiGRU::parameters() {
  std::vector<Parameter*> out = fwd_.parameters();
  for (Parameter* p : bwd_.parameters()) out.push_back(p);
  return out;
}

std::string BiGRU::name() const {
  std::ostringstream os;
  os << "BiGRU(" << fwd_.input_size() << "->2x" << fwd_.hidden_size() << ')';
  return os.str();
}

std::int64_t BiGRU::flops_per_example() const {
  return fwd_.flops_per_example() + bwd_.flops_per_example();
}

void BiGRU::set_nominal_seq_len(std::int64_t t) {
  fwd_.set_nominal_seq_len(t);
  bwd_.set_nominal_seq_len(t);
}

}  // namespace mdl::nn
