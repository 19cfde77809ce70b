#include "nn/linear.hpp"

#include <sstream>

namespace mdl::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_("weight", Tensor({out_features, in_features})),
      bias_("bias", Tensor({bias ? out_features : 0})) {
  MDL_CHECK(in_features > 0 && out_features > 0,
            "Linear dims must be positive");
  xavier_uniform(weight_.value, in_, out_, rng);
}

Tensor Linear::forward(const Tensor& x) {
  Tensor y = infer(x);
  cached_input_ = x;
  return y;
}

Tensor Linear::infer(const Tensor& x) const {
  MDL_CHECK(x.ndim() == 2 && x.shape(1) == in_,
            "Linear(" << in_ << "->" << out_ << ") got input "
                      << x.shape_str());
  Tensor y = matmul_nt(x, weight_.value);  // [B, out]
  if (has_bias_) add_row_broadcast(y, bias_.value);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  MDL_CHECK(grad_out.ndim() == 2 && grad_out.shape(1) == out_ &&
                grad_out.shape(0) == cached_input_.shape(0),
            "Linear backward grad shape " << grad_out.shape_str());
  // dW = grad^T x : [out, in]
  weight_.grad.add_(matmul_tn(grad_out, cached_input_));
  if (has_bias_) bias_.grad.add_(grad_out.sum_rows());
  // dx = grad @ W : [B, in]
  return matmul(grad_out, weight_.value);
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "Linear(" << in_ << "->" << out_ << (has_bias_ ? "" : ", no-bias")
     << ')';
  return os.str();
}

std::int64_t Linear::flops_per_example() const {
  return 2 * in_ * out_ + (has_bias_ ? out_ : 0);
}

}  // namespace mdl::nn
