// Step-buffer helpers shared by the GRU and LSTM sequence routines.
// Internal to mdl::nn: a sequence keeps every step in one [T·B, cols]
// tensor, and each step works in [B, cols] buffers allocated once per call.
#pragma once

#include <algorithm>

#include "core/tensor.hpp"
#include "nn/activations.hpp"

namespace mdl::nn::detail {

// Step t's block of a [T·B, cols] tensor is its rows [t·B, (t+1)·B), the
// size of the [B, cols] step buffer it is copied to or from.
inline void load_step(const Tensor& all, std::int64_t t, Tensor& step) {
  std::copy_n(all.data() + t * step.size(), step.size(), step.data());
}

inline void store_step(const Tensor& step, std::int64_t t, Tensor& all) {
  std::copy_n(step.data(), step.size(), all.data() + t * step.size());
}

// Finishes a [B, cols] gate block of pre-activations x·Wᵀ + h·Uᵀ: adds
// `bias` (cols values, or none when null) to every row, one float add per
// element, then applies sigmoid to each row's first `sigmoid_cols` columns
// and tanh to the rest.
inline void activate_gates(Tensor& block, const float* bias,
                           std::int64_t sigmoid_cols) {
  const std::int64_t cols = block.shape(1);
  const auto n_sigmoid = static_cast<std::size_t>(sigmoid_cols);
  const auto n_tanh = static_cast<std::size_t>(cols - sigmoid_cols);
  for (std::int64_t b = 0; b < block.shape(0); ++b) {
    float* row = block.data() + b * cols;
    if (bias != nullptr)
      for (std::int64_t j = 0; j < cols; ++j) row[j] += bias[j];
    sigmoid_span({row, n_sigmoid});
    tanh_span({row + sigmoid_cols, n_tanh});
  }
}

using AccumulatingProduct = void (*)(const Tensor&, const Tensor&, Tensor&);

// target += product(a, b), computed into a zeroed scratch first so the sums
// are those of target.add_(matmul(a, b)) or target.add_(matmul_tn(a, b)).
inline void add_product(AccumulatingProduct product, const Tensor& a,
                        const Tensor& b, Tensor& scratch, Tensor& target) {
  scratch.zero();
  product(a, b, scratch);
  target.add_(scratch);
}

// target += a.sum_rows(), through a scratch of length cols.
inline void add_row_sums(const Tensor& a, Tensor& scratch, Tensor& target) {
  scratch.zero();
  const std::int64_t cols = a.shape(1);
  for (std::int64_t i = 0; i < a.shape(0); ++i)
    for (std::int64_t j = 0; j < cols; ++j) scratch[j] += a[i * cols + j];
  target.add_(scratch);
}

}  // namespace mdl::nn::detail
