// Fixed-point (int8) inference — the "reducing the bits required to depict
// the parameters" quantization of §III-B (Wu et al. [33], Gupta et al.
// [34]), in the dynamic-range style mobile runtimes deploy: weights are
// stored as int8 with a per-row symmetric scale, activations are quantized
// on the fly per batch row (asymmetric, uint8), and the matmul accumulates
// in int32 before dequantizing. 4x storage saving and integer arithmetic
// on the hot path, at a small accuracy cost measured by the compression
// bench.
//
// The integer product runs through gemm::int8_gemm_nt, which dispatches to
// the AVX2 widening-madd kernel when gemm::Mode is kSimd and to the scalar
// twin otherwise; both produce identical int32 accumulators (integer
// arithmetic is exact), so the quantized path is bit-identical across
// kernel suites, thread counts, and batch sizes.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace mdl::compress {

/// Per-row asymmetric uint8 quantization parameters for activations. The
/// represented range always includes 0 (min is clamped down to 0, max up
/// to 0) so a zero activation quantizes to exactly `zero_point` and
/// dequantizes to exactly 0 — ReLU outputs stay exact.
struct ActQuant {
  float scale = 1.0F;           ///< dequant step; (max-min)/255, or 1 if flat
  std::int32_t zero_point = 0;  ///< uint8 code that represents 0.0f
};

/// Computes the asymmetric quantization parameters for one activation row.
ActQuant choose_act_quant(const float* x, std::int64_t n);

/// Quantizes one activation row: q[c] = clamp(round(x[c]/scale) + zp, 0, 255).
void quantize_act_row(const float* x, std::int64_t n, const ActQuant& aq,
                      std::uint8_t* out);

/// Inference-only dense layer with int8 weights and dynamic activation
/// quantization. Built from a trained float Linear; backward() throws.
/// infer() is const and thread-compatible, so quantized halves can serve
/// from mdl::serve executors.
class Int8Linear : public nn::Module {
 public:
  /// Quantizes `linear`'s weights symmetrically per output row.
  explicit Int8Linear(const nn::Linear& linear);

  Tensor forward(const Tensor& x) override;
  Tensor infer(const Tensor& x) const override;
  [[noreturn]] Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

  /// Deployable bytes: int8 weights + per-row f32 scales + f32 bias
  /// (+ int32 weight row sums for the zero-point correction).
  std::uint64_t storage_bytes() const;

  /// Reconstructed float weight (tests / inspection).
  Tensor dequantized_weight() const;

  // Kernel-boundary accessors (differential / round-trip tests).
  const std::vector<std::int8_t>& quantized_weights() const {
    return weights_;
  }
  const std::vector<std::int32_t>& weight_row_sums() const {
    return row_sums_;
  }

 private:
  std::int64_t in_;
  std::int64_t out_;
  std::vector<std::int8_t> weights_;    ///< [out * in], symmetric per row
  std::vector<float> row_scales_;       ///< [out]
  std::vector<std::int32_t> row_sums_;  ///< [out], sum_c weights_[r,c]
  std::vector<float> bias_;             ///< [out] (empty if none)
};

/// Rebuilds a Sequential of Linear/activations with every Linear replaced
/// by its Int8Linear (inference-only deployment form).
std::unique_ptr<nn::Sequential> int8_quantize_mlp(nn::Sequential& model);

}  // namespace mdl::compress
