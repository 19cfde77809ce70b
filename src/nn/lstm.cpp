#include "nn/lstm.hpp"

#include <sstream>

#include "nn/activations.hpp"
#include "nn/init.hpp"

namespace mdl::nn {
namespace {

Tensor gate_preact(const Tensor& x, const Tensor& w, const Tensor& h,
                   const Tensor& u, const Tensor& b) {
  Tensor a = matmul_nt(x, w);
  matmul_nt_acc(h, u, a);  // accumulate in place: no per-gate temporary
  add_row_broadcast(a, b);
  return a;
}

}  // namespace

LSTMCell::LSTMCell(std::int64_t input_size, std::int64_t hidden_size,
                   Rng& rng)
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

std::pair<Tensor, Tensor> LSTMCell::step(const Tensor& x,
                                         const Tensor& h_prev,
                                         const Tensor& c_prev) {
  StepCache cache;
  auto hc = compute_step(x, h_prev, c_prev, &cache);
  cache_.push_back(std::move(cache));
  return hc;
}

std::pair<Tensor, Tensor> LSTMCell::step_infer(const Tensor& x,
                                               const Tensor& h_prev,
                                               const Tensor& c_prev) const {
  return compute_step(x, h_prev, c_prev, nullptr);
}

std::pair<Tensor, Tensor> LSTMCell::compute_step(const Tensor& x,
                                                 const Tensor& h_prev,
                                                 const Tensor& c_prev,
                                                 StepCache* sink) const {
  MDL_CHECK(x.ndim() == 2 && x.shape(1) == input_size_,
            "LSTM step input " << x.shape_str());
  MDL_CHECK(h_prev.same_shape(c_prev) && h_prev.shape(0) == x.shape(0) &&
                h_prev.shape(1) == hidden_size_,
            "LSTM step state shapes");

  Tensor i =
      sigmoid(gate_preact(x, w_i_.value, h_prev, u_i_.value, b_i_.value));
  Tensor f =
      sigmoid(gate_preact(x, w_f_.value, h_prev, u_f_.value, b_f_.value));
  Tensor o =
      sigmoid(gate_preact(x, w_o_.value, h_prev, u_o_.value, b_o_.value));
  Tensor g =
      tanh_t(gate_preact(x, w_g_.value, h_prev, u_g_.value, b_g_.value));

  Tensor c = f;
  c.mul_(c_prev);
  Tensor ig = i;
  ig.mul_(g);
  c.add_(ig);
  Tensor tanh_c = tanh_t(c);

  Tensor h = o;
  h.mul_(tanh_c);

  if (sink != nullptr)
    *sink = {x, h_prev, c_prev, std::move(i), std::move(f), std::move(o),
             std::move(g), c, std::move(tanh_c)};
  return {std::move(h), std::move(c)};
}

std::tuple<Tensor, Tensor, Tensor> LSTMCell::step_backward(
    const Tensor& grad_h, const Tensor& grad_c) {
  MDL_CHECK(!cache_.empty(), "step_backward without a cached step");
  const StepCache cache = std::move(cache_.back());
  cache_.pop_back();
  MDL_CHECK(grad_h.same_shape(cache.h_prev) && grad_c.same_shape(cache.h_prev),
            "LSTM backward grad shapes");

  const std::int64_t n = grad_h.size();

  // h = o ⊙ tanh(c)
  Tensor do_(grad_h.shape());
  Tensor dc = grad_c;  // accumulated cell grad (from future step)
  for (std::int64_t k = 0; k < n; ++k) {
    do_[k] = grad_h[k] * cache.tanh_c[k];
    dc[k] += grad_h[k] * cache.o[k] *
             (1.0F - cache.tanh_c[k] * cache.tanh_c[k]);
  }

  // c = f ⊙ c_prev + i ⊙ g
  Tensor df(grad_h.shape()), di(grad_h.shape()), dg(grad_h.shape()),
      dc_prev(grad_h.shape());
  for (std::int64_t k = 0; k < n; ++k) {
    df[k] = dc[k] * cache.c_prev[k];
    dc_prev[k] = dc[k] * cache.f[k];
    di[k] = dc[k] * cache.g[k];
    dg[k] = dc[k] * cache.i[k];
  }

  Tensor dx({cache.x.shape(0), input_size_});
  Tensor dh_prev(grad_h.shape());

  const auto through_sigmoid_gate =
      [&](Tensor& dgate, const Tensor& gate, Parameter& w, Parameter& u,
          Parameter& b) {
        for (std::int64_t k = 0; k < n; ++k)
          dgate[k] *= gate[k] * (1.0F - gate[k]);
        w.grad.add_(matmul_tn(dgate, cache.x));
        u.grad.add_(matmul_tn(dgate, cache.h_prev));
        b.grad.add_(dgate.sum_rows());
        dx.add_(matmul(dgate, w.value));
        dh_prev.add_(matmul(dgate, u.value));
      };

  through_sigmoid_gate(di, cache.i, w_i_, u_i_, b_i_);
  through_sigmoid_gate(df, cache.f, w_f_, u_f_, b_f_);
  through_sigmoid_gate(do_, cache.o, w_o_, u_o_, b_o_);

  // Candidate gate is tanh.
  for (std::int64_t k = 0; k < n; ++k)
    dg[k] *= 1.0F - cache.g[k] * cache.g[k];
  w_g_.grad.add_(matmul_tn(dg, cache.x));
  u_g_.grad.add_(matmul_tn(dg, cache.h_prev));
  b_g_.grad.add_(dg.sum_rows());
  dx.add_(matmul(dg, w_g_.value));
  dh_prev.add_(matmul(dg, u_g_.value));

  return {std::move(dx), std::move(dh_prev), std::move(dc_prev)};
}

void LSTMCell::clear_cache() { cache_.clear(); }

std::vector<Parameter*> LSTMCell::parameters() {
  return {&w_i_, &u_i_, &b_i_, &w_f_, &u_f_, &b_f_,
          &w_o_, &u_o_, &b_o_, &w_g_, &u_g_, &b_g_};
}

std::int64_t LSTMCell::flops_per_step_per_example() const {
  return 4 * 2 * input_size_ * hidden_size_ +
         4 * 2 * hidden_size_ * hidden_size_ + 16 * hidden_size_;
}

LSTM::LSTM(std::int64_t input_size, std::int64_t hidden_size, Rng& rng)
    : cell_(input_size, hidden_size, rng) {}

Tensor LSTM::forward(const Tensor& sequence) {
  Tensor h = run(sequence, &cell_);
  last_t_ = sequence.shape(0);
  last_batch_ = sequence.shape(1);
  return h;
}

Tensor LSTM::infer(const Tensor& sequence) const {
  return run(sequence, nullptr);
}

Tensor LSTM::run(const Tensor& sequence, LSTMCell* recorder) const {
  MDL_CHECK(sequence.ndim() == 3 && sequence.shape(2) == cell_.input_size(),
            "LSTM expects [T, B, " << cell_.input_size() << "], got "
                                   << sequence.shape_str());
  const std::int64_t t_len = sequence.shape(0);
  MDL_CHECK(t_len > 0, "LSTM needs at least one time step");
  if (recorder != nullptr) recorder->clear_cache();
  Tensor h({sequence.shape(1), cell_.hidden_size()});
  Tensor c({sequence.shape(1), cell_.hidden_size()});
  for (std::int64_t t = 0; t < t_len; ++t) {
    const Tensor x = sequence.time_step(t);
    std::tie(h, c) = recorder != nullptr ? recorder->step(x, h, c)
                                         : cell_.step_infer(x, h, c);
  }
  return h;
}

Tensor LSTM::backward(const Tensor& grad_last_hidden) {
  MDL_CHECK(grad_last_hidden.ndim() == 2 &&
                grad_last_hidden.shape(0) == last_batch_ &&
                grad_last_hidden.shape(1) == cell_.hidden_size(),
            "LSTM backward grad " << grad_last_hidden.shape_str());
  Tensor grad_input({last_t_, last_batch_, cell_.input_size()});
  Tensor dh = grad_last_hidden;
  Tensor dc({last_batch_, cell_.hidden_size()});
  for (std::int64_t t = last_t_ - 1; t >= 0; --t) {
    auto [dx, dh_prev, dc_prev] = cell_.step_backward(dh, dc);
    grad_input.set_time_step(t, dx);
    dh = std::move(dh_prev);
    dc = std::move(dc_prev);
  }
  return grad_input;
}

std::vector<Parameter*> LSTM::parameters() { return cell_.parameters(); }

std::string LSTM::name() const {
  std::ostringstream os;
  os << "LSTM(" << cell_.input_size() << "->" << cell_.hidden_size() << ')';
  return os.str();
}

std::int64_t LSTM::flops_per_example() const {
  return nominal_seq_len_ * cell_.flops_per_step_per_example();
}

}  // namespace mdl::nn
