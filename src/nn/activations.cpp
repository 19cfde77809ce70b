#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

#include "core/gemm.hpp"
#include "core/gemm_simd.hpp"

namespace mdl::nn {

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  return infer(x);
}

Tensor ReLU::infer(const Tensor& x) const {
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) y[i] = std::max(0.0F, y[i]);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  MDL_CHECK(grad_out.same_shape(cached_input_), "ReLU backward shape");
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.size(); ++i)
    if (cached_input_[i] <= 0.0F) g[i] = 0.0F;
  return g;
}

Tensor Sigmoid::forward(const Tensor& x) {
  cached_output_ = infer(x);
  return cached_output_;
}

Tensor Sigmoid::infer(const Tensor& x) const { return sigmoid(x); }

Tensor Sigmoid::backward(const Tensor& grad_out) {
  MDL_CHECK(grad_out.same_shape(cached_output_), "Sigmoid backward shape");
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.size(); ++i) {
    const float s = cached_output_[i];
    g[i] *= s * (1.0F - s);
  }
  return g;
}

Tensor Tanh::forward(const Tensor& x) {
  cached_output_ = infer(x);
  return cached_output_;
}

Tensor Tanh::infer(const Tensor& x) const { return tanh_t(x); }

Tensor Tanh::backward(const Tensor& grad_out) {
  MDL_CHECK(grad_out.same_shape(cached_output_), "Tanh backward shape");
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.size(); ++i) {
    const float t = cached_output_[i];
    g[i] *= 1.0F - t * t;
  }
  return g;
}

void sigmoid_span(std::span<float> x) {
  if (gemm::mode() == gemm::Mode::kSimd) {
    gemm::simd::avx2_sigmoid(x.data(), static_cast<std::int64_t>(x.size()));
    return;
  }
  for (float& v : x) v = sigmoid_scalar(v);
}

void tanh_span(std::span<float> x) {
  if (gemm::mode() == gemm::Mode::kSimd) {
    gemm::simd::avx2_tanh(x.data(), static_cast<std::int64_t>(x.size()));
    return;
  }
  for (float& v : x) v = std::tanh(v);
}

Tensor sigmoid(const Tensor& x) {
  Tensor y = x;
  sigmoid_span(y.flat());
  return y;
}

Tensor tanh_t(const Tensor& x) {
  Tensor y = x;
  tanh_span(y.flat());
  return y;
}

Tensor softmax_rows(const Tensor& logits) {
  MDL_CHECK(logits.ndim() == 2, "softmax_rows needs [batch, classes]");
  const std::int64_t b = logits.shape(0);
  const std::int64_t c = logits.shape(1);
  Tensor out = logits;
  for (std::int64_t i = 0; i < b; ++i) {
    float* row = out.data() + i * c;
    const float m = *std::max_element(row, row + c);
    double sum = 0.0;
    for (std::int64_t j = 0; j < c; ++j) {
      row[j] = std::exp(row[j] - m);
      sum += row[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t j = 0; j < c; ++j) row[j] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  MDL_CHECK(logits.ndim() == 2, "log_softmax_rows needs [batch, classes]");
  const std::int64_t b = logits.shape(0);
  const std::int64_t c = logits.shape(1);
  Tensor out = logits;
  for (std::int64_t i = 0; i < b; ++i) {
    float* row = out.data() + i * c;
    const float m = *std::max_element(row, row + c);
    double sum = 0.0;
    for (std::int64_t j = 0; j < c; ++j) sum += std::exp(row[j] - m);
    const float lse = m + static_cast<float>(std::log(sum));
    for (std::int64_t j = 0; j < c; ++j) row[j] -= lse;
  }
  return out;
}

}  // namespace mdl::nn
