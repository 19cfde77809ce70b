// Network quantization by k-means weight sharing (Han et al., ICLR'16) —
// stage 2 of Deep Compression: surviving weights are clustered into a
// 2^bits-entry codebook and stored as small integer indices.
#pragma once

#include <cstdint>
#include <vector>

#include "core/random.hpp"
#include "core/tensor.hpp"

namespace mdl::compress {

/// A tensor stored as codebook + per-element codebook indices. Zero entries
/// (pruned weights) keep a dedicated index 0 mapped to exactly 0.0f so
/// pruning survives quantization.
struct QuantizedTensor {
  std::vector<std::int64_t> shape;
  std::vector<float> codebook;          ///< codebook[0] == 0.0f reserved
  std::vector<std::uint32_t> indices;   ///< one per element
  int bits = 8;                         ///< index width used for storage math

  Tensor dequantize() const;
  std::int64_t size() const;
  /// Deployable bytes: packed indices at `bits` each + f32 codebook.
  std::uint64_t storage_bytes() const;
  /// Largest |original - dequantized| given the original tensor.
  float max_error(const Tensor& original) const;
};

struct QuantizeConfig {
  int bits = 6;                  ///< codebook holds 2^bits - 1 nonzero levels
  int kmeans_iterations = 25;
  std::uint64_t seed = 3;
};

/// 1-D Lloyd k-means over the non-zero entries with linear (min..max)
/// initialization, as in the Deep Compression paper.
QuantizedTensor quantize_kmeans(const Tensor& t, const QuantizeConfig& config);

}  // namespace mdl::compress
