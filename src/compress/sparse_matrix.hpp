// Compressed Sparse Row matrices for pruned layers.
//
// After magnitude pruning (Han et al.), weight matrices become sparse; CSR
// is the storage/compute format a mobile runtime would actually deploy, and
// the one compress::PrunedLinear stores and runs.
// Provides dense<->CSR conversion, sparse matrix-vector and matrix-matrix
// products, and exact storage accounting for the compression benches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/tensor.hpp"

namespace mdl::compress {

/// Row-major CSR float matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds CSR from a dense 2-D tensor, dropping entries with
  /// |value| <= threshold. NaN entries are kept, so a poisoned weight
  /// poisons the product as it does the dense one.
  static CsrMatrix from_dense(const Tensor& dense, float threshold = 0.0F);

  Tensor to_dense() const;

  /// y = A x with x of length cols().
  Tensor matvec(const Tensor& x) const;

  /// C = A @ B^T-free dense product: B is [cols, n] -> [rows, n].
  Tensor matmul(const Tensor& b) const;

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(values_.size()); }
  double density() const;

  /// Bytes for values (f32) + column indices (u32) + row pointers (u32) —
  /// what a deployed sparse layer occupies.
  std::uint64_t storage_bytes() const;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> values_;
  std::vector<std::uint32_t> cols_idx_;
  std::vector<std::uint32_t> row_ptr_;
};

}  // namespace mdl::compress
