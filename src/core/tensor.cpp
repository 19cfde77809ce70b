#include "core/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>

namespace mdl {
namespace {

std::int64_t element_count(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    MDL_CHECK(d >= 0, "negative tensor extent " << d);
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(element_count(shape_)), 0.0F) {}

Tensor::Tensor(std::vector<std::int64_t> shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(element_count(shape_)), fill) {}

Tensor::Tensor(std::vector<std::int64_t> shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  MDL_CHECK(static_cast<std::int64_t>(data_.size()) == element_count(shape_),
            "value count " << data_.size() << " does not match shape "
                           << shape_str());
}

Tensor Tensor::zeros(std::vector<std::int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::ones(std::vector<std::int64_t> shape) {
  return Tensor(std::move(shape), 1.0F);
}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value) {
  return Tensor(std::move(shape), value);
}

Tensor Tensor::randn(std::vector<std::int64_t> shape, Rng& rng, float mean,
                     float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::rand(std::vector<std::int64_t> shape, Rng& rng, float lo,
                    float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  MDL_CHECK(n >= 0, "arange needs n >= 0");
  Tensor t({n});
  for (std::int64_t i = 0; i < n; ++i) t.data_[static_cast<std::size_t>(i)] =
      static_cast<float>(i);
  return t;
}

std::int64_t Tensor::shape(std::size_t dim) const {
  MDL_CHECK(dim < shape_.size(),
            "dim " << dim << " out of range for " << shape_str());
  return shape_[dim];
}

void Tensor::check_index(std::int64_t flat_index) const {
  MDL_CHECK(flat_index >= 0 && flat_index < size(),
            "index " << flat_index << " out of range for " << shape_str());
}

float& Tensor::at(std::int64_t i) {
  MDL_CHECK(ndim() == 1, "1-D access on " << shape_str());
  check_index(i);
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  return const_cast<Tensor*>(this)->at(i);
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  MDL_CHECK(ndim() == 2, "2-D access on " << shape_str());
  MDL_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
            "index (" << i << ", " << j << ") out of range for "
                      << shape_str());
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}

float Tensor::at(std::int64_t i, std::int64_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  MDL_CHECK(ndim() == 3, "3-D access on " << shape_str());
  MDL_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
                k < shape_[2],
            "index (" << i << ", " << j << ", " << k << ") out of range for "
                      << shape_str());
  return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

Tensor Tensor::reshape(std::vector<std::int64_t> new_shape) const {
  std::int64_t known = 1;
  int infer_pos = -1;
  for (std::size_t d = 0; d < new_shape.size(); ++d) {
    if (new_shape[d] == -1) {
      MDL_CHECK(infer_pos < 0, "at most one extent may be -1 in reshape");
      infer_pos = static_cast<int>(d);
    } else {
      MDL_CHECK(new_shape[d] >= 0, "negative extent in reshape");
      known *= new_shape[d];
    }
  }
  if (infer_pos >= 0) {
    MDL_CHECK(known > 0 && size() % known == 0,
              "cannot infer extent: " << size() << " elements vs product "
                                      << known);
    new_shape[static_cast<std::size_t>(infer_pos)] = size() / known;
    known *= new_shape[static_cast<std::size_t>(infer_pos)];
  }
  MDL_CHECK(known == size(), "reshape from " << shape_str() << " to "
                                             << known << " elements");
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  return out;
}

Tensor Tensor::transposed() const {
  MDL_CHECK(ndim() == 2, "transpose requires 2-D, got " << shape_str());
  const std::int64_t r = shape_[0];
  const std::int64_t c = shape_[1];
  Tensor out({c, r});
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j)
      out.data_[static_cast<std::size_t>(j * r + i)] =
          data_[static_cast<std::size_t>(i * c + j)];
  return out;
}

Tensor Tensor::slice_rows(std::int64_t begin, std::int64_t end) const {
  MDL_CHECK(ndim() == 2, "slice_rows requires 2-D, got " << shape_str());
  MDL_CHECK(begin >= 0 && begin <= end && end <= shape_[0],
            "invalid row slice [" << begin << ", " << end << ") of "
                                  << shape_str());
  const std::int64_t c = shape_[1];
  Tensor out({end - begin, c});
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * c),
            data_.begin() + static_cast<std::ptrdiff_t>(end * c),
            out.data_.begin());
  return out;
}

Tensor Tensor::row(std::int64_t i) const {
  return slice_rows(i, i + 1).reshape({shape_[1]});
}

Tensor Tensor::gather_rows(std::span<const std::size_t> rows) const {
  MDL_CHECK(ndim() == 2, "gather_rows requires 2-D, got " << shape_str());
  const std::int64_t c = shape_[1];
  Tensor out({static_cast<std::int64_t>(rows.size()), c});
  auto dst = out.data_.begin();
  for (const std::size_t r : rows) {
    MDL_CHECK(r < static_cast<std::size_t>(shape_[0]),
              "row " << r << " out of range for " << shape_str());
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(r) * c, c, dst);
    dst += c;
  }
  return out;
}

Tensor Tensor::time_step(std::int64_t t) const {
  MDL_CHECK(ndim() == 3, "time_step requires 3-D, got " << shape_str());
  MDL_CHECK(t >= 0 && t < shape_[0], "time step " << t << " out of range");
  const std::int64_t plane = shape_[1] * shape_[2];
  Tensor out({shape_[1], shape_[2]});
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(t * plane),
            data_.begin() + static_cast<std::ptrdiff_t>((t + 1) * plane),
            out.data_.begin());
  return out;
}

void Tensor::set_time_step(std::int64_t t, const Tensor& src) {
  MDL_CHECK(ndim() == 3, "set_time_step requires 3-D, got " << shape_str());
  MDL_CHECK(t >= 0 && t < shape_[0], "time step " << t << " out of range");
  const std::int64_t plane = shape_[1] * shape_[2];
  MDL_CHECK(src.size() == plane, "plane size mismatch");
  std::copy(src.data_.begin(), src.data_.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(t * plane));
}

Tensor Tensor::concat_cols(std::span<const Tensor> parts) {
  MDL_CHECK(!parts.empty(), "concat_cols needs at least one tensor");
  const std::int64_t rows = parts.front().shape(0);
  std::int64_t cols = 0;
  for (const Tensor& p : parts) {
    MDL_CHECK(p.ndim() == 2 && p.shape(0) == rows,
              "concat_cols row-count mismatch");
    cols += p.shape(1);
  }
  Tensor out({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t off = 0;
    for (const Tensor& p : parts) {
      const std::int64_t pc = p.shape(1);
      std::copy(p.data_.begin() + static_cast<std::ptrdiff_t>(r * pc),
                p.data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * pc),
                out.data_.begin() +
                    static_cast<std::ptrdiff_t>(r * cols + off));
      off += pc;
    }
  }
  return out;
}

std::vector<Tensor> Tensor::split_cols(
    std::span<const std::int64_t> widths) const {
  MDL_CHECK(ndim() == 2, "split_cols needs a 2-D tensor, got " << shape_str());
  std::int64_t total = 0;
  for (const std::int64_t w : widths) {
    MDL_CHECK(w > 0, "split_cols width must be positive, got " << w);
    total += w;
  }
  const std::int64_t rows = shape_[0];
  const std::int64_t cols = shape_[1];
  MDL_CHECK(total == cols, "split_cols widths sum to " << total << ", tensor "
                                                       << shape_str());
  std::vector<Tensor> parts;
  parts.reserve(widths.size());
  std::int64_t off = 0;
  for (const std::int64_t w : widths) {
    Tensor part({rows, w});
    for (std::int64_t r = 0; r < rows; ++r)
      std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r * cols + off),
                data_.begin() + static_cast<std::ptrdiff_t>(r * cols + off + w),
                part.data_.begin() + static_cast<std::ptrdiff_t>(r * w));
    parts.push_back(std::move(part));
    off += w;
  }
  return parts;
}

Tensor Tensor::concat_rows(std::span<const Tensor> parts) {
  MDL_CHECK(!parts.empty(), "concat_rows needs at least one tensor");
  const std::int64_t cols = parts.front().shape(1);
  std::int64_t rows = 0;
  for (const Tensor& p : parts) {
    MDL_CHECK(p.ndim() == 2 && p.shape(1) == cols,
              "concat_rows column-count mismatch");
    rows += p.shape(0);
  }
  Tensor out({rows, cols});
  auto it = out.data_.begin();
  for (const Tensor& p : parts) it = std::copy(p.data_.begin(), p.data_.end(), it);
  return out;
}

Tensor& Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

#define MDL_CHECK_SAME_SHAPE(other)                                        \
  MDL_CHECK(same_shape(other), "shape mismatch: " << shape_str() << " vs " \
                                                  << (other).shape_str())

Tensor& Tensor::add_(const Tensor& other) {
  MDL_CHECK_SAME_SHAPE(other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  MDL_CHECK_SAME_SHAPE(other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  MDL_CHECK_SAME_SHAPE(other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::div_(const Tensor& other) {
  MDL_CHECK_SAME_SHAPE(other);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] /= other.data_[i];
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float alpha) {
  MDL_CHECK_SAME_SHAPE(other);
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
  return *this;
}

Tensor& Tensor::add_(float s) {
  for (auto& v : data_) v += s;
  return *this;
}

Tensor& Tensor::mul_(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::clamp_(float lo, float hi) {
  MDL_CHECK(lo <= hi, "clamp bounds inverted");
  for (auto& v : data_) v = std::clamp(v, lo, hi);
  return *this;
}

Tensor& Tensor::apply_(const std::function<float(float)>& f) {
  for (auto& v : data_) v = f(v);
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out = *this;
  out.add_(other);
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor out = *this;
  out.sub_(other);
  return out;
}

Tensor Tensor::operator*(const Tensor& other) const {
  Tensor out = *this;
  out.mul_(other);
  return out;
}

Tensor Tensor::operator*(float s) const {
  Tensor out = *this;
  out.mul_(s);
  return out;
}

Tensor Tensor::operator+(float s) const {
  Tensor out = *this;
  out.add_(s);
  return out;
}

Tensor Tensor::operator-() const { return *this * -1.0F; }

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::mean() const {
  MDL_CHECK(!data_.empty(), "mean of empty tensor");
  return sum() / static_cast<double>(data_.size());
}

float Tensor::max() const {
  MDL_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  MDL_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

double Tensor::dot(const Tensor& other) const {
  MDL_CHECK(size() == other.size(),
            "dot size mismatch " << size() << " vs " << other.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    acc += static_cast<double>(data_[i]) * static_cast<double>(other.data_[i]);
  return acc;
}

double Tensor::norm() const { return std::sqrt(dot(*this)); }

Tensor Tensor::sum_rows() const {
  MDL_CHECK(ndim() == 2, "sum_rows requires 2-D, got " << shape_str());
  const std::int64_t r = shape_[0];
  const std::int64_t c = shape_[1];
  Tensor out({c});
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j)
      out.data_[static_cast<std::size_t>(j)] +=
          data_[static_cast<std::size_t>(i * c + j)];
  return out;
}

std::vector<std::int64_t> Tensor::argmax_rows() const {
  MDL_CHECK(ndim() == 2, "argmax_rows requires 2-D, got " << shape_str());
  MDL_CHECK(shape_[1] > 0, "argmax_rows on zero columns");
  std::vector<std::int64_t> out(static_cast<std::size_t>(shape_[0]));
  for (std::int64_t i = 0; i < shape_[0]; ++i) {
    const float* r = data_.data() + i * shape_[1];
    out[static_cast<std::size_t>(i)] =
        std::max_element(r, r + shape_[1]) - r;
  }
  return out;
}

std::int64_t Tensor::argmax() const {
  MDL_CHECK(!data_.empty(), "argmax of empty tensor");
  return std::max_element(data_.begin(), data_.end()) - data_.begin();
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor" << t.shape_str() << " {";
  const std::int64_t show = std::min<std::int64_t>(t.size(), 8);
  for (std::int64_t i = 0; i < show; ++i) {
    if (i) os << ", ";
    os << t[i];
  }
  if (t.size() > show) os << ", ...";
  return os << '}';
}

// The allocating products. Their _acc forms and matvec live next to the
// kernels in gemm.cpp, which checks the shapes and picks the kernel suite.

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out({a.shape(0), b.shape(1)});
  matmul_acc(a, b, out);
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor out({a.shape(1), b.shape(1)});
  matmul_tn_acc(a, b, out);
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor out({a.shape(0), b.shape(0)});
  matmul_nt_acc(a, b, out);
  return out;
}

void add_row_broadcast(Tensor& t, const Tensor& bias) {
  MDL_CHECK(t.ndim() == 2 && bias.ndim() == 1 && bias.shape(0) == t.shape(1),
            "bias broadcast mismatch " << t.shape_str() << " vs "
                                       << bias.shape_str());
  const std::int64_t r = t.shape(0);
  const std::int64_t c = t.shape(1);
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) t[i * c + j] += bias[j];
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  MDL_CHECK(a.same_shape(b), "max_abs_diff shape mismatch");
  float m = 0.0F;
  for (std::int64_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float tol) {
  return a.same_shape(b) && max_abs_diff(a, b) <= tol;
}

}  // namespace mdl
