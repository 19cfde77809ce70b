// Dense float32 tensor with value semantics.
//
// mdl::Tensor is the numeric currency of the library: a contiguous,
// row-major, float32 n-d array backed by std::vector<float>. Value semantics
// keep ownership trivial (C++ Core Guidelines R.1/F.15); the sizes involved
// in mobile-scale models make copies cheap relative to the math performed on
// them, and hot paths use in-place mutating members or the free functions in
// tensor_ops to avoid temporaries.
//
// Shape conventions used throughout mobiledl:
//   - matrices are [rows, cols];
//   - batched features are [batch, features];
//   - sequences are [time, batch, features].
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/random.hpp"

namespace mdl {

/// Contiguous row-major float32 tensor.
class Tensor {
 public:
  /// Empty tensor (zero elements, zero dims).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Every extent must be >= 0.
  explicit Tensor(std::vector<std::int64_t> shape);

  /// Tensor of the given shape filled with `fill`.
  Tensor(std::vector<std::int64_t> shape, float fill);

  /// Tensor of the given shape with explicitly provided contents
  /// (row-major). `values.size()` must equal the shape's element count.
  Tensor(std::vector<std::int64_t> shape, std::vector<float> values);

  // -- Factories ------------------------------------------------------------
  static Tensor zeros(std::vector<std::int64_t> shape);
  static Tensor ones(std::vector<std::int64_t> shape);
  static Tensor full(std::vector<std::int64_t> shape, float value);
  /// i.i.d. N(mean, stddev^2) entries.
  static Tensor randn(std::vector<std::int64_t> shape, Rng& rng,
                      float mean = 0.0F, float stddev = 1.0F);
  /// i.i.d. U[lo, hi) entries.
  static Tensor rand(std::vector<std::int64_t> shape, Rng& rng,
                     float lo = 0.0F, float hi = 1.0F);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor arange(std::int64_t n);

  // -- Introspection ---------------------------------------------------------
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t shape(std::size_t dim) const;
  std::size_t ndim() const { return shape_.size(); }
  std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  /// Bounds-checked element access for 1-D / 2-D / 3-D tensors.
  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  float& at(std::int64_t i, std::int64_t j);
  float at(std::int64_t i, std::int64_t j) const;
  float& at(std::int64_t i, std::int64_t j, std::int64_t k);
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const;

  /// Unchecked linear access (hot loops).
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  // -- Shape manipulation ------------------------------------------------
  /// Returns a tensor sharing no storage with `*this` but reinterpreting the
  /// same contents under a new shape. Element counts must match; one extent
  /// may be -1 (inferred).
  Tensor reshape(std::vector<std::int64_t> new_shape) const;

  /// 2-D transpose.
  Tensor transposed() const;

  /// Rows [begin, end) of a 2-D tensor (copies).
  Tensor slice_rows(std::int64_t begin, std::int64_t end) const;

  /// Rows `rows[0], rows[1], ...` of a 2-D tensor as a [rows.size(), cols]
  /// tensor (copies; indices may repeat). Throws on an out-of-range index.
  Tensor gather_rows(std::span<const std::size_t> rows) const;

  /// Time-step `t` of a [T, B, F] tensor as a [B, F] tensor (copies).
  Tensor time_step(std::int64_t t) const;

  /// Copies a [B, F] tensor into time-step t of this [T, B, F] tensor.
  void set_time_step(std::int64_t t, const Tensor& src);

  /// Concatenates 2-D tensors with equal row counts along columns.
  static Tensor concat_cols(std::span<const Tensor> parts);
  /// Inverse of concat_cols: splits a 2-D tensor into column blocks of the
  /// given widths, which must be positive and sum to the column count.
  std::vector<Tensor> split_cols(std::span<const std::int64_t> widths) const;
  /// Concatenates 2-D tensors with equal column counts along rows.
  static Tensor concat_rows(std::span<const Tensor> parts);

  // -- In-place arithmetic -----------------------------------------------
  Tensor& fill(float value);
  Tensor& zero() { return fill(0.0F); }
  Tensor& add_(const Tensor& other);              ///< this += other
  Tensor& sub_(const Tensor& other);              ///< this -= other
  Tensor& mul_(const Tensor& other);              ///< elementwise
  Tensor& div_(const Tensor& other);              ///< elementwise
  Tensor& add_scaled_(const Tensor& other, float alpha);  ///< this += alpha*other
  Tensor& add_(float s);
  Tensor& mul_(float s);
  Tensor& clamp_(float lo, float hi);
  Tensor& apply_(const std::function<float(float)>& f);

  // -- Value-returning arithmetic -----------------------------------------
  Tensor operator+(const Tensor& other) const;
  Tensor operator-(const Tensor& other) const;
  Tensor operator*(const Tensor& other) const;  ///< elementwise
  Tensor operator*(float s) const;
  Tensor operator+(float s) const;
  Tensor operator-() const;

  // -- Reductions ----------------------------------------------------------
  double sum() const;
  double mean() const;
  float max() const;
  float min() const;
  double dot(const Tensor& other) const;
  /// L2 norm of the flattened tensor.
  double norm() const;
  /// Sum over rows of a 2-D tensor -> 1-D of length cols.
  Tensor sum_rows() const;
  /// Per-row argmax of a 2-D tensor.
  std::vector<std::int64_t> argmax_rows() const;
  /// Argmax of a 1-D tensor.
  std::int64_t argmax() const;

  /// Human-readable "[2, 3]" shape string.
  std::string shape_str() const;

  bool operator==(const Tensor& other) const = default;

 private:
  void check_index(std::int64_t flat_index) const;

  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
};

std::ostream& operator<<(std::ostream& os, const Tensor& t);

// -- Linear algebra free functions -------------------------------------------
//
// All dense products share one accumulation policy (see gemm.hpp and
// DESIGN.md): float32, ascending-k, one multiply-add per term. The _acc
// forms and matvec are defined in core/gemm.cpp, which checks each call's
// shapes once and picks the mdl::gemm kernel suite (MDL_GEMM=naive|blocked|
// simd; the default probes the CPU). naive and blocked are bit-identical to
// each other at every thread count (MDL_THREADS); the AVX2 simd suite is
// deterministic and batch-invariant but ULP-shifted (fma). Dense kernels
// carry no zero-skip branch; pruned weights run as a compress::CsrMatrix.

/// C = A @ B for 2-D tensors ([m,k] x [k,n] -> [m,n]).
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T @ B ([k,m] x [k,n] -> [m,n]).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A @ B^T ([m,k] x [n,k] -> [m,n]).
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// out += A @ B; `out` must already be [m, n].
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& out);
/// out += A^T @ B; `out` must already be [m, n].
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& out);
/// out += A @ B^T; `out` must already be [m, n]. Lets fused layers (GRU /
/// LSTM gate pre-activations) accumulate both input and recurrent products
/// into one buffer without a temporary.
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out);
/// y = A @ x for [m,k] x [k] -> [m].
Tensor matvec(const Tensor& a, const Tensor& x);
/// Adds a 1-D bias (length cols) to every row of a 2-D tensor in place.
void add_row_broadcast(Tensor& t, const Tensor& bias);

/// Maximum absolute elementwise difference; tensors must be same shape.
float max_abs_diff(const Tensor& a, const Tensor& b);
/// True when every element differs by at most `tol`.
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5F);

}  // namespace mdl
