#include "compress/prune.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "compress/rebuild.hpp"

namespace mdl::compress {

float prune_by_magnitude(Tensor& t, double sparsity) {
  MDL_CHECK(sparsity >= 0.0 && sparsity < 1.0,
            "sparsity must be in [0, 1), got " << sparsity);
  if (sparsity == 0.0 || t.empty()) return 0.0F;
  const auto n = static_cast<std::size_t>(t.size());
  const auto drop = static_cast<std::size_t>(
      std::llround(sparsity * static_cast<double>(n)));
  if (drop == 0) return 0.0F;

  std::vector<float> mags(n);
  for (std::size_t i = 0; i < n; ++i)
    mags[i] = std::abs(t[static_cast<std::int64_t>(i)]);
  std::nth_element(mags.begin(),
                   mags.begin() + static_cast<std::ptrdiff_t>(drop - 1),
                   mags.end());
  const float threshold = mags[drop - 1];

  // Zero everything strictly below, then zero ties until the exact count.
  std::size_t zeroed = 0;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    if (std::abs(t[i]) < threshold && t[i] != 0.0F) {
      t[i] = 0.0F;
      ++zeroed;
    }
  }
  for (std::int64_t i = 0; i < t.size() && zeroed < drop; ++i) {
    if (t[i] != 0.0F && std::abs(t[i]) == threshold) {
      t[i] = 0.0F;
      ++zeroed;
    }
  }
  return threshold;
}

double prune_model(nn::Module& model, double sparsity) {
  std::int64_t total = 0, zeros = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (p->value.ndim() != 2) continue;  // weights only
    prune_by_magnitude(p->value, sparsity);
    total += p->value.size();
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      if (p->value[i] == 0.0F) ++zeros;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(zeros) / static_cast<double>(total);
}

double measure_sparsity(const Tensor& t) {
  if (t.empty()) return 0.0;
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < t.size(); ++i)
    if (t[i] == 0.0F) ++zeros;
  return static_cast<double>(zeros) / static_cast<double>(t.size());
}

double measure_model_sparsity(nn::Module& model) {
  std::int64_t total = 0, zeros = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (p->value.ndim() != 2) continue;
    total += p->value.size();
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      if (p->value[i] == 0.0F) ++zeros;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(zeros) / static_cast<double>(total);
}

void mask_pruned_gradients(nn::Module& model) {
  for (nn::Parameter* p : model.parameters()) {
    if (p->value.ndim() != 2) continue;
    for (std::int64_t i = 0; i < p->value.size(); ++i)
      if (p->value[i] == 0.0F) p->grad[i] = 0.0F;
  }
}

PrunedLinear::PrunedLinear(const nn::Linear& linear)
    : weight_(CsrMatrix::from_dense(linear.weight().value)),
      bias_(linear.has_bias() ? const_cast<nn::Linear&>(linear).bias().value
                              : Tensor({0})) {}

Tensor PrunedLinear::forward(const Tensor& x) { return infer(x); }

Tensor PrunedLinear::infer(const Tensor& x) const {
  MDL_CHECK(x.ndim() == 2 && x.shape(1) == weight_.cols(),
            "PrunedLinear(" << weight_.cols() << "->" << weight_.rows()
                            << ") got input " << x.shape_str());
  // y^T = W @ x^T over the stored non-zeros; the transposes are exact
  // copies, so this matches the dense Linear bit for bit.
  Tensor yt = weight_.matmul(x.transposed());  // [out, B]
  Tensor y = yt.transposed();                  // [B, out]
  if (bias_.size() > 0) add_row_broadcast(y, bias_);
  return y;
}

Tensor PrunedLinear::backward(const Tensor&) {
  MDL_FAIL("PrunedLinear is inference-only");
}

std::string PrunedLinear::name() const {
  std::ostringstream os;
  os << "PrunedLinear(" << weight_.cols() << "->" << weight_.rows() << ", "
     << static_cast<int>(sparsity() * 100.0) << "% sparse)";
  return os.str();
}

std::int64_t PrunedLinear::flops_per_example() const {
  return 2 * weight_.nnz() + bias_.size();
}

double PrunedLinear::sparsity() const {
  const std::int64_t total = weight_.rows() * weight_.cols();
  return total == 0 ? 0.0
                    : static_cast<double>(total - weight_.nnz()) /
                          static_cast<double>(total);
}

std::uint64_t PrunedLinear::storage_bytes() const {
  return weight_.storage_bytes() +
         static_cast<std::uint64_t>(bias_.size()) * 4;
}

std::unique_ptr<nn::Sequential> sparse_deploy_mlp(nn::Sequential& model) {
  return detail::rebuild_mlp(
      model, "sparse_deploy_mlp", [](nn::Linear& lin, nn::Sequential& out) {
        out.append(std::make_unique<PrunedLinear>(lin));
      });
}

}  // namespace mdl::compress
