#include "compress/int8.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "compress/rebuild.hpp"
#include "core/gemm.hpp"

namespace mdl::compress {

ActQuant choose_act_quant(const float* x, std::int64_t n) {
  // Asymmetric range forced to include 0 so a 0.0 activation is exactly
  // representable (ReLU outputs, padding). An all-zero row degenerates to
  // scale 1 / zero point 0.
  float lo = 0.0F;
  float hi = 0.0F;
  for (std::int64_t c = 0; c < n; ++c) {
    lo = std::min(lo, x[c]);
    hi = std::max(hi, x[c]);
  }
  ActQuant aq;
  if (hi > lo) {
    aq.scale = (hi - lo) / 255.0F;
    aq.zero_point = static_cast<std::int32_t>(
        std::clamp(std::round(-lo / aq.scale), 0.0F, 255.0F));
  }
  return aq;
}

void quantize_act_row(const float* x, std::int64_t n, const ActQuant& aq,
                      std::uint8_t* out) {
  for (std::int64_t c = 0; c < n; ++c) {
    const float q = std::round(x[c] / aq.scale) +
                    static_cast<float>(aq.zero_point);
    out[c] = static_cast<std::uint8_t>(std::clamp(q, 0.0F, 255.0F));
  }
}

Int8Linear::Int8Linear(const nn::Linear& linear)
    : in_(linear.in_features()),
      out_(linear.out_features()),
      weights_(static_cast<std::size_t>(in_ * out_)),
      row_scales_(static_cast<std::size_t>(out_)),
      row_sums_(static_cast<std::size_t>(out_)) {
  const Tensor& w = linear.weight().value;
  for (std::int64_t r = 0; r < out_; ++r) {
    float max_abs = 0.0F;
    for (std::int64_t c = 0; c < in_; ++c)
      max_abs = std::max(max_abs, std::abs(w[r * in_ + c]));
    const float scale = max_abs > 0.0F ? max_abs / 127.0F : 1.0F;
    row_scales_[static_cast<std::size_t>(r)] = scale;
    std::int32_t row_sum = 0;
    for (std::int64_t c = 0; c < in_; ++c) {
      const float q = std::round(w[r * in_ + c] / scale);
      const auto qi =
          static_cast<std::int8_t>(std::clamp(q, -127.0F, 127.0F));
      weights_[static_cast<std::size_t>(r * in_ + c)] = qi;
      row_sum += qi;
    }
    // Precomputed once per weight: the zero-point correction term of
    // gemm::int8_gemm_nt needs sum_c W[r,c] for every output row.
    row_sums_[static_cast<std::size_t>(r)] = row_sum;
  }
  if (linear.has_bias()) {
    const Tensor& b = const_cast<nn::Linear&>(linear).bias().value;
    bias_.assign(b.data(), b.data() + b.size());
  }
}

Tensor Int8Linear::forward(const Tensor& x) { return infer(x); }

Tensor Int8Linear::infer(const Tensor& x) const {
  MDL_CHECK(x.ndim() == 2 && x.shape(1) == in_,
            "Int8Linear(" << in_ << "->" << out_ << ") got "
                          << x.shape_str());
  const std::int64_t batch = x.shape(0);

  // Quantize every activation row (asymmetric uint8, per-row params)...
  std::vector<std::uint8_t> xq(static_cast<std::size_t>(batch * in_));
  std::vector<std::int32_t> za(static_cast<std::size_t>(batch));
  std::vector<float> x_scales(static_cast<std::size_t>(batch));
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* xin = x.data() + n * in_;
    const ActQuant aq = choose_act_quant(xin, in_);
    quantize_act_row(xin, in_, aq, xq.data() + n * in_);
    za[static_cast<std::size_t>(n)] = aq.zero_point;
    x_scales[static_cast<std::size_t>(n)] = aq.scale;
  }

  // ...then one integer GEMM for the whole batch. int8_gemm_nt applies the
  // zero-point correction (acc -= za[n] * row_sums_[r]) so `acc` is
  // sum_c (q[n,c] - za[n]) * W[r,c] — exact int32, identical across the
  // scalar and AVX2 kernels.
  std::vector<std::int32_t> acc(static_cast<std::size_t>(batch * out_));
  gemm::int8_gemm_nt(xq.data(), weights_.data(), acc.data(), batch, in_,
                     out_, za.data(), row_sums_.data());

  Tensor y({batch, out_});
  for (std::int64_t n = 0; n < batch; ++n) {
    const float xs = x_scales[static_cast<std::size_t>(n)];
    for (std::int64_t r = 0; r < out_; ++r) {
      float out = static_cast<float>(acc[static_cast<std::size_t>(
                      n * out_ + r)]) *
                  row_scales_[static_cast<std::size_t>(r)] * xs;
      if (!bias_.empty()) out += bias_[static_cast<std::size_t>(r)];
      y[n * out_ + r] = out;
    }
  }
  return y;
}

Tensor Int8Linear::backward(const Tensor& /*grad_out*/) {
  MDL_FAIL("Int8Linear is inference-only (train in float, then quantize)");
}

std::string Int8Linear::name() const {
  std::ostringstream os;
  os << "Int8Linear(" << in_ << "->" << out_ << ')';
  return os.str();
}

std::int64_t Int8Linear::flops_per_example() const {
  return 2 * in_ * out_ + (bias_.empty() ? 0 : out_);
}

std::uint64_t Int8Linear::storage_bytes() const {
  return weights_.size() + row_scales_.size() * 4 + row_sums_.size() * 4 +
         bias_.size() * 4;
}

Tensor Int8Linear::dequantized_weight() const {
  Tensor w({out_, in_});
  for (std::int64_t r = 0; r < out_; ++r)
    for (std::int64_t c = 0; c < in_; ++c)
      w[r * in_ + c] =
          static_cast<float>(weights_[static_cast<std::size_t>(r * in_ + c)]) *
          row_scales_[static_cast<std::size_t>(r)];
  return w;
}

std::unique_ptr<nn::Sequential> int8_quantize_mlp(nn::Sequential& model) {
  return detail::rebuild_mlp(
      model, "int8_quantize_mlp", [](nn::Linear& lin, nn::Sequential& out) {
        out.append(std::make_unique<Int8Linear>(lin));
      });
}

}  // namespace mdl::compress
