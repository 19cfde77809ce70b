#include "compress/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mdl::compress {

Tensor QuantizedTensor::dequantize() const {
  Tensor out(shape);
  MDL_CHECK(static_cast<std::size_t>(out.size()) == indices.size(),
            "index count does not match shape");
  for (std::int64_t i = 0; i < out.size(); ++i) {
    const std::uint32_t idx = indices[static_cast<std::size_t>(i)];
    MDL_CHECK(idx < codebook.size(), "codebook index out of range");
    out[i] = codebook[idx];
  }
  return out;
}

std::int64_t QuantizedTensor::size() const {
  std::int64_t n = 1;
  for (std::int64_t d : shape) n *= d;
  return n;
}

std::uint64_t QuantizedTensor::storage_bytes() const {
  const std::uint64_t index_bits =
      static_cast<std::uint64_t>(indices.size()) * static_cast<std::uint64_t>(bits);
  return (index_bits + 7) / 8 +
         static_cast<std::uint64_t>(codebook.size()) * 4;
}

float QuantizedTensor::max_error(const Tensor& original) const {
  const Tensor deq = dequantize();
  return max_abs_diff(deq, original);
}

QuantizedTensor quantize_kmeans(const Tensor& t,
                                const QuantizeConfig& config) {
  MDL_CHECK(config.bits >= 1 && config.bits <= 16,
            "bits must be in [1, 16], got " << config.bits);
  MDL_CHECK(config.kmeans_iterations > 0, "need >= 1 k-means iteration");

  QuantizedTensor q;
  q.shape = t.shape();
  q.bits = config.bits;
  q.indices.resize(static_cast<std::size_t>(t.size()));

  // Collect non-zero values; index 0 is reserved for exact zero.
  std::vector<float> nz;
  nz.reserve(static_cast<std::size_t>(t.size()));
  for (std::int64_t i = 0; i < t.size(); ++i)
    if (t[i] != 0.0F) nz.push_back(t[i]);

  const std::size_t k = std::min<std::size_t>(
      (std::size_t{1} << config.bits) - 1, std::max<std::size_t>(nz.size(), 1));
  q.codebook.assign(k + 1, 0.0F);  // [0] = 0
  if (nz.empty()) return q;        // all-zero tensor

  // Linear initialization between min and max (Deep Compression found this
  // superior to random/density init for preserving large weights).
  const auto [mn_it, mx_it] = std::minmax_element(nz.begin(), nz.end());
  const float mn = *mn_it;
  const float mx = *mx_it;
  for (std::size_t c = 0; c < k; ++c) {
    q.codebook[c + 1] =
        k == 1 ? 0.5F * (mn + mx)
               : mn + (mx - mn) * static_cast<float>(c) /
                          static_cast<float>(k - 1);
  }

  // Lloyd iterations over the sorted values (1-D: nearest centroid found by
  // binary search over sorted centroids).
  std::vector<std::size_t> assign(nz.size());
  std::vector<double> sums(k);
  std::vector<std::int64_t> counts(k);
  for (int it = 0; it < config.kmeans_iterations; ++it) {
    std::vector<float> sorted(q.codebook.begin() + 1, q.codebook.end());
    std::sort(sorted.begin(), sorted.end());
    std::copy(sorted.begin(), sorted.end(), q.codebook.begin() + 1);

    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < nz.size(); ++i) {
      const float v = nz[i];
      // Centroids q.codebook[1..k] are sorted ascending; the nearest is
      // either the first centroid >= v or its left neighbor.
      const auto ub =
          std::upper_bound(q.codebook.begin() + 1, q.codebook.end(), v);
      const auto hi = std::min<std::size_t>(
          static_cast<std::size_t>(ub - (q.codebook.begin() + 1)), k - 1);
      std::size_t best = hi;
      if (hi > 0 && std::abs(v - q.codebook[hi]) <=
                        std::abs(v - q.codebook[hi + 1]))
        best = hi - 1;
      assign[i] = best;
      sums[best] += v;
      ++counts[best];
    }
    for (std::size_t c = 0; c < k; ++c)
      if (counts[c] > 0)
        q.codebook[c + 1] =
            static_cast<float>(sums[c] / static_cast<double>(counts[c]));
  }

  // Final assignment pass over all elements.
  std::size_t nz_pos = 0;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    if (t[i] == 0.0F) {
      q.indices[static_cast<std::size_t>(i)] = 0;
    } else {
      q.indices[static_cast<std::size_t>(i)] =
          static_cast<std::uint32_t>(assign[nz_pos++] + 1);
    }
  }
  return q;
}

}  // namespace mdl::compress
