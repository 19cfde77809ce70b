#include "compress/low_rank.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "compress/rebuild.hpp"

namespace mdl::compress {

Svd svd_jacobi(const Tensor& a, int max_sweeps, double tol) {
  MDL_CHECK(a.ndim() == 2, "svd needs a 2-D tensor, got " << a.shape_str());
  const std::int64_t m = a.shape(0);
  const std::int64_t n = a.shape(1);

  // Work on the tall orientation; transpose back at the end.
  if (m < n) {
    Svd t = svd_jacobi(a.transposed(), max_sweeps, tol);
    return {std::move(t.v), std::move(t.s), std::move(t.u)};
  }

  // Columns of `work` are rotated until pairwise orthogonal; `v`
  // accumulates the same rotations applied to the identity.
  std::vector<double> work(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m * n; ++i) work[static_cast<std::size_t>(i)] = a[i];
  std::vector<double> v(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t j = 0; j < n; ++j) v[static_cast<std::size_t>(j * n + j)] = 1.0;

  auto col_dot = [&](std::int64_t p, std::int64_t q) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < m; ++i)
      acc += work[static_cast<std::size_t>(i * n + p)] *
             work[static_cast<std::size_t>(i * n + q)];
    return acc;
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (std::int64_t p = 0; p < n - 1; ++p) {
      for (std::int64_t q = p + 1; q < n; ++q) {
        const double app = col_dot(p, p);
        const double aqq = col_dot(q, q);
        const double apq = col_dot(p, q);
        if (std::abs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0)
          continue;
        converged = false;
        // Jacobi rotation zeroing the (p, q) off-diagonal of A^T A.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(tau) + std::sqrt(1.0 + tau * tau)), tau);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::int64_t i = 0; i < m; ++i) {
          const double wp = work[static_cast<std::size_t>(i * n + p)];
          const double wq = work[static_cast<std::size_t>(i * n + q)];
          work[static_cast<std::size_t>(i * n + p)] = c * wp - s * wq;
          work[static_cast<std::size_t>(i * n + q)] = s * wp + c * wq;
        }
        for (std::int64_t i = 0; i < n; ++i) {
          const double vp = v[static_cast<std::size_t>(i * n + p)];
          const double vq = v[static_cast<std::size_t>(i * n + q)];
          v[static_cast<std::size_t>(i * n + p)] = c * vp - s * vq;
          v[static_cast<std::size_t>(i * n + q)] = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  // Singular values = column norms; U = normalized columns.
  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j)
    sigma[static_cast<std::size_t>(j)] = std::sqrt(col_dot(j, j));

  // Sort descending.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), std::int64_t{0});
  std::sort(order.begin(), order.end(), [&](std::int64_t x, std::int64_t y) {
    return sigma[static_cast<std::size_t>(x)] > sigma[static_cast<std::size_t>(y)];
  });

  Svd out;
  out.u = Tensor({m, n});
  out.s = Tensor({n});
  out.v = Tensor({n, n});
  for (std::int64_t jj = 0; jj < n; ++jj) {
    const std::int64_t j = order[static_cast<std::size_t>(jj)];
    const double sg = sigma[static_cast<std::size_t>(j)];
    out.s[jj] = static_cast<float>(sg);
    const double inv = sg > 1e-30 ? 1.0 / sg : 0.0;
    for (std::int64_t i = 0; i < m; ++i)
      out.u[i * n + jj] = static_cast<float>(
          work[static_cast<std::size_t>(i * n + j)] * inv);
    for (std::int64_t i = 0; i < n; ++i)
      out.v[i * n + jj] =
          static_cast<float>(v[static_cast<std::size_t>(i * n + j)]);
  }
  return out;
}

Tensor low_rank_approx(const Svd& svd, std::int64_t rank) {
  const std::int64_t m = svd.u.shape(0);
  const std::int64_t n = svd.v.shape(0);
  const std::int64_t r = std::min<std::int64_t>(rank, svd.s.shape(0));
  MDL_CHECK(r > 0, "rank must be positive");
  Tensor out({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < r; ++k)
        acc += static_cast<double>(svd.u[i * svd.u.shape(1) + k]) * svd.s[k] *
               svd.v[j * svd.v.shape(1) + k];
      out[i * n + j] = static_cast<float>(acc);
    }
  return out;
}

std::pair<Tensor, Tensor> factorize_weight(const Tensor& w,
                                           std::int64_t rank) {
  MDL_CHECK(w.ndim() == 2, "factorize_weight needs a matrix");
  const std::int64_t out_f = w.shape(0);
  const std::int64_t in_f = w.shape(1);
  const Svd svd = svd_jacobi(w);
  const std::int64_t r = std::min<std::int64_t>(rank, svd.s.shape(0));
  MDL_CHECK(r > 0, "rank must be positive");
  Tensor b({out_f, r});  // U_r diag(S_r)
  Tensor a({r, in_f});   // V_r^T
  for (std::int64_t i = 0; i < out_f; ++i)
    for (std::int64_t k = 0; k < r; ++k)
      b[i * r + k] = svd.u[i * svd.u.shape(1) + k] * svd.s[k];
  for (std::int64_t k = 0; k < r; ++k)
    for (std::int64_t j = 0; j < in_f; ++j)
      a[k * in_f + j] = svd.v[j * svd.v.shape(1) + k];
  return {std::move(b), std::move(a)};
}

std::unique_ptr<nn::Sequential> low_rank_factorize_mlp(nn::Sequential& model,
                                                       std::int64_t rank,
                                                       Rng& rng) {
  MDL_CHECK(rank > 0, "rank must be positive");
  return detail::rebuild_mlp(
      model, "low_rank_factorize_mlp",
      [&](nn::Linear& lin, nn::Sequential& out) {
        const std::int64_t in_f = lin.in_features();
        const std::int64_t out_f = lin.out_features();
        if (std::min(in_f, out_f) <= rank) {
          // Not worth factorizing; copy as-is.
          auto& copy =
              out.emplace<nn::Linear>(in_f, out_f, rng, lin.has_bias());
          copy.weight().value = lin.weight().value;
          if (lin.has_bias()) copy.bias().value = lin.bias().value;
          return;
        }
        auto [b, a] = factorize_weight(lin.weight().value, rank);
        auto& first = out.emplace<nn::Linear>(in_f, rank, rng, false);
        first.weight().value = std::move(a);
        auto& second =
            out.emplace<nn::Linear>(rank, out_f, rng, lin.has_bias());
        second.weight().value = std::move(b);
        if (lin.has_bias()) second.bias().value = lin.bias().value;
      });
}

std::int64_t low_rank_param_count(std::int64_t out, std::int64_t in,
                                  std::int64_t rank) {
  return rank * (out + in);
}

}  // namespace mdl::compress
