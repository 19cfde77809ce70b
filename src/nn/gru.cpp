#include "nn/gru.hpp"

#include <array>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/init.hpp"

namespace mdl::nn {
namespace {

// y = x @ W^T + h @ U^T + b for gate pre-activations. The recurrent
// product accumulates straight into the input product's buffer
// (matmul_nt_acc), saving a [batch, hidden] temporary and an add pass per
// gate per step.
Tensor gate_preact(const Tensor& x, const Tensor& w, const Tensor& h,
                   const Tensor& u, const Tensor& b) {
  Tensor a = matmul_nt(x, w);
  matmul_nt_acc(h, u, a);
  add_row_broadcast(a, b);
  return a;
}

}  // namespace

GRUCell::GRUCell(std::int64_t input_size, std::int64_t hidden_size, Rng& rng)
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

Tensor GRUCell::step(const Tensor& x, const Tensor& h_prev) {
  StepCache c;
  Tensor h = compute_step(x, h_prev, &c);
  cache_.push_back(std::move(c));
  return h;
}

Tensor GRUCell::step_infer(const Tensor& x, const Tensor& h_prev) const {
  return compute_step(x, h_prev, nullptr);
}

Tensor GRUCell::compute_step(const Tensor& x, const Tensor& h_prev,
                             StepCache* sink) const {
  MDL_CHECK(x.ndim() == 2 && x.shape(1) == input_size_,
            "GRU step input " << x.shape_str());
  MDL_CHECK(h_prev.ndim() == 2 && h_prev.shape(1) == hidden_size_ &&
                h_prev.shape(0) == x.shape(0),
            "GRU step hidden " << h_prev.shape_str());

  Tensor r =
      sigmoid(gate_preact(x, w_r_.value, h_prev, u_r_.value, b_r_.value));
  Tensor z =
      sigmoid(gate_preact(x, w_z_.value, h_prev, u_z_.value, b_z_.value));
  Tensor rh = r;  // r ⊙ h_prev
  rh.mul_(h_prev);
  Tensor h_cand =
      tanh_t(gate_preact(x, w_h_.value, rh, u_h_.value, b_h_.value));

  // h = z ⊙ h_prev + (1 - z) ⊙ h~
  Tensor h = z;
  h.mul_(h_prev);
  Tensor rest = h_cand;
  for (std::int64_t i = 0; i < rest.size(); ++i)
    rest[i] *= 1.0F - z[i];
  h.add_(rest);

  if (sink != nullptr)
    *sink = {x, h_prev, std::move(r), std::move(z), std::move(h_cand),
             std::move(rh)};
  return h;
}

std::pair<Tensor, Tensor> GRUCell::step_backward(const Tensor& grad_h) {
  MDL_CHECK(!cache_.empty(), "step_backward without a cached step");
  const StepCache c = std::move(cache_.back());
  cache_.pop_back();
  MDL_CHECK(grad_h.same_shape(c.h_prev), "grad_h shape mismatch");

  const std::int64_t n = grad_h.size();

  // h = z ⊙ h_prev + (1 - z) ⊙ h~
  Tensor dz(grad_h.shape());        // d loss / d z
  Tensor dh_cand(grad_h.shape());   // d loss / d h~
  Tensor dh_prev = grad_h;          // starts with the direct z ⊙ path
  for (std::int64_t i = 0; i < n; ++i) {
    dz[i] = grad_h[i] * (c.h_prev[i] - c.h_cand[i]);
    dh_cand[i] = grad_h[i] * (1.0F - c.z[i]);
    dh_prev[i] = grad_h[i] * c.z[i];
  }

  // Through tanh: a_h = W x + U (r ⊙ h_prev) + b
  Tensor da_h = dh_cand;
  for (std::int64_t i = 0; i < n; ++i)
    da_h[i] *= 1.0F - c.h_cand[i] * c.h_cand[i];
  w_h_.grad.add_(matmul_tn(da_h, c.x));
  u_h_.grad.add_(matmul_tn(da_h, c.rh));
  b_h_.grad.add_(da_h.sum_rows());
  Tensor dx = matmul(da_h, w_h_.value);
  Tensor drh = matmul(da_h, u_h_.value);  // d loss / d (r ⊙ h_prev)
  Tensor dr(grad_h.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    dr[i] = drh[i] * c.h_prev[i];
    dh_prev[i] += drh[i] * c.r[i];
  }

  // Through the sigmoid gates.
  Tensor da_r = dr;
  for (std::int64_t i = 0; i < n; ++i)
    da_r[i] *= c.r[i] * (1.0F - c.r[i]);
  w_r_.grad.add_(matmul_tn(da_r, c.x));
  u_r_.grad.add_(matmul_tn(da_r, c.h_prev));
  b_r_.grad.add_(da_r.sum_rows());
  dx.add_(matmul(da_r, w_r_.value));
  dh_prev.add_(matmul(da_r, u_r_.value));

  Tensor da_z = dz;
  for (std::int64_t i = 0; i < n; ++i)
    da_z[i] *= c.z[i] * (1.0F - c.z[i]);
  w_z_.grad.add_(matmul_tn(da_z, c.x));
  u_z_.grad.add_(matmul_tn(da_z, c.h_prev));
  b_z_.grad.add_(da_z.sum_rows());
  dx.add_(matmul(da_z, w_z_.value));
  dh_prev.add_(matmul(da_z, u_z_.value));

  return {std::move(dx), std::move(dh_prev)};
}

void GRUCell::clear_cache() { cache_.clear(); }

std::vector<Parameter*> GRUCell::parameters() {
  return {&w_r_, &u_r_, &b_r_, &w_z_, &u_z_, &b_z_, &w_h_, &u_h_, &b_h_};
}

std::int64_t GRUCell::flops_per_step_per_example() const {
  // Three input matmuls, three recurrent matmuls, plus elementwise work.
  return 3 * 2 * input_size_ * hidden_size_ +
         3 * 2 * hidden_size_ * hidden_size_ + 12 * hidden_size_;
}

GRU::GRU(std::int64_t input_size, std::int64_t hidden_size, Rng& rng)
    : cell_(input_size, hidden_size, rng) {}

Tensor GRU::forward(const Tensor& sequence) {
  Tensor h = run(sequence, &cell_);
  last_t_ = sequence.shape(0);
  last_batch_ = sequence.shape(1);
  return h;
}

Tensor GRU::infer(const Tensor& sequence) const {
  return run(sequence, nullptr);
}

Tensor GRU::run(const Tensor& sequence, GRUCell* recorder) const {
  MDL_CHECK(sequence.ndim() == 3 && sequence.shape(2) == cell_.input_size(),
            "GRU expects [T, B, " << cell_.input_size() << "], got "
                                  << sequence.shape_str());
  const std::int64_t t_len = sequence.shape(0);
  MDL_CHECK(t_len > 0, "GRU needs at least one time step");
  if (recorder != nullptr) recorder->clear_cache();
  Tensor h({sequence.shape(1), cell_.hidden_size()});
  for (std::int64_t t = 0; t < t_len; ++t) {
    const Tensor x = sequence.time_step(t);
    h = recorder != nullptr ? recorder->step(x, h) : cell_.step_infer(x, h);
  }
  return h;
}

Tensor GRU::backward(const Tensor& grad_last_hidden) {
  MDL_CHECK(grad_last_hidden.ndim() == 2 &&
                grad_last_hidden.shape(0) == last_batch_ &&
                grad_last_hidden.shape(1) == cell_.hidden_size(),
            "GRU backward grad " << grad_last_hidden.shape_str());
  Tensor grad_input({last_t_, last_batch_, cell_.input_size()});
  Tensor dh = grad_last_hidden;
  for (std::int64_t t = last_t_ - 1; t >= 0; --t) {
    auto [dx, dh_prev] = cell_.step_backward(dh);
    grad_input.set_time_step(t, dx);
    dh = std::move(dh_prev);
  }
  return grad_input;
}

std::vector<Parameter*> GRU::parameters() { return cell_.parameters(); }

std::string GRU::name() const {
  std::ostringstream os;
  os << "GRU(" << cell_.input_size() << "->" << cell_.hidden_size() << ')';
  return os.str();
}

std::int64_t GRU::flops_per_example() const {
  return nominal_seq_len_ * cell_.flops_per_step_per_example();
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
