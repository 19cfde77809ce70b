#include "compress/sparse_matrix.hpp"

#include <cmath>

namespace mdl::compress {

CsrMatrix CsrMatrix::from_dense(const Tensor& dense, float threshold) {
  MDL_CHECK(dense.ndim() == 2, "CSR needs a 2-D tensor, got "
                                   << dense.shape_str());
  MDL_CHECK(threshold >= 0.0F, "threshold must be >= 0");
  CsrMatrix m;
  m.rows_ = dense.shape(0);
  m.cols_ = dense.shape(1);
  m.row_ptr_.reserve(static_cast<std::size_t>(m.rows_) + 1);
  m.row_ptr_.push_back(0);
  for (std::int64_t i = 0; i < m.rows_; ++i) {
    for (std::int64_t j = 0; j < m.cols_; ++j) {
      const float v = dense[i * m.cols_ + j];
      if (!(std::abs(v) <= threshold)) {
        m.values_.push_back(v);
        m.cols_idx_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    m.row_ptr_.push_back(static_cast<std::uint32_t>(m.values_.size()));
  }
  return m;
}

Tensor CsrMatrix::to_dense() const {
  Tensor out({rows_, cols_});
  for (std::int64_t i = 0; i < rows_; ++i)
    for (std::uint32_t k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      out[i * cols_ + cols_idx_[k]] = values_[k];
  return out;
}

Tensor CsrMatrix::matvec(const Tensor& x) const {
  MDL_CHECK(x.ndim() == 1 && x.shape(0) == cols_,
            "matvec size mismatch: " << x.shape_str() << " vs cols "
                                     << cols_);
  Tensor y({rows_});
  // float32 ascending-k chain — the library-wide accumulation policy
  // (gemm.hpp), so a CSR layer matches its dense counterpart's numerics.
  for (std::int64_t i = 0; i < rows_; ++i) {
    float acc = 0.0F;
    for (std::uint32_t k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      acc += values_[k] * x[cols_idx_[k]];
    y[i] = acc;
  }
  return y;
}

Tensor CsrMatrix::matmul(const Tensor& b) const {
  MDL_CHECK(b.ndim() == 2 && b.shape(0) == cols_,
            "matmul shape mismatch: CSR cols " << cols_ << " vs "
                                               << b.shape_str());
  const std::int64_t n = b.shape(1);
  Tensor c({rows_, n});
  for (std::int64_t i = 0; i < rows_; ++i) {
    float* crow = c.data() + i * n;
    for (std::uint32_t k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const float v = values_[k];
      const float* brow = b.data() + static_cast<std::int64_t>(cols_idx_[k]) * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += v * brow[j];
    }
  }
  return c;
}

double CsrMatrix::density() const {
  const std::int64_t total = rows_ * cols_;
  return total == 0 ? 0.0
                    : static_cast<double>(nnz()) / static_cast<double>(total);
}

std::uint64_t CsrMatrix::storage_bytes() const {
  return static_cast<std::uint64_t>(values_.size()) * 4 +
         static_cast<std::uint64_t>(cols_idx_.size()) * 4 +
         static_cast<std::uint64_t>(row_ptr_.size()) * 4;
}

}  // namespace mdl::compress
