#include "core/tensor.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mdl {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.ndim(), 0U);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, FillConstructor) {
  Tensor t({4}, 2.5F);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5F);
}

TEST(Tensor, ExplicitValues) {
  Tensor t({2, 2}, {1.0F, 2.0F, 3.0F, 4.0F});
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(1, 1), 4.0F);
}

TEST(Tensor, ValueCountMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0F, 2.0F}), Error);
}

TEST(Tensor, NegativeExtentThrows) { EXPECT_THROW(Tensor({-1, 3}), Error); }

TEST(Tensor, Factories) {
  EXPECT_EQ(Tensor::ones({3}).sum(), 3.0);
  EXPECT_EQ(Tensor::full({2, 2}, 0.5F).sum(), 2.0);
  const Tensor r = Tensor::arange(5);
  EXPECT_EQ(r.at(4), 4.0F);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(1);
  const Tensor t = Tensor::randn({10000}, rng, 1.0F, 2.0F);
  EXPECT_NEAR(t.mean(), 1.0, 0.1);
  double var = 0.0;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const double d = t[i] - t.mean();
    var += d * d;
  }
  var /= static_cast<double>(t.size());
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, RandBounds) {
  Rng rng(2);
  const Tensor t = Tensor::rand({1000}, rng, -2.0F, 3.0F);
  EXPECT_GE(t.min(), -2.0F);
  EXPECT_LT(t.max(), 3.0F);
}

TEST(Tensor, At3d) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 7.0F;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0F);
  EXPECT_THROW(t.at(2, 0, 0), Error);
  EXPECT_THROW(t.at(0, 0), Error);  // wrong arity
}

TEST(Tensor, ReshapeInference) {
  Tensor t({2, 6});
  const Tensor r = t.reshape({3, -1});
  EXPECT_EQ(r.shape(1), 4);
  EXPECT_THROW(t.reshape({5, -1}), Error);
  EXPECT_THROW(t.reshape({-1, -1}), Error);
  EXPECT_THROW(t.reshape({13}), Error);
}

TEST(Tensor, TransposeRoundTrip) {
  Rng rng(3);
  const Tensor a = Tensor::randn({3, 5}, rng);
  const Tensor att = a.transposed().transposed();
  EXPECT_TRUE(allclose(a, att, 0.0F));
  EXPECT_EQ(a.transposed().at(4, 2), a.at(2, 4));
}

TEST(Tensor, SliceRowsAndRow) {
  Tensor t({4, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  const Tensor s = t.slice_rows(1, 3);
  EXPECT_EQ(s.shape(0), 2);
  EXPECT_EQ(s.at(0, 0), 2.0F);
  EXPECT_EQ(t.slice_rows(3, 4).at(0, 1), 7.0F);
  EXPECT_THROW(t.slice_rows(3, 2), Error);
  EXPECT_THROW(t.slice_rows(0, 5), Error);
}

TEST(Tensor, GatherRows) {
  const Tensor t({3, 2}, {0, 1, 2, 3, 4, 5});
  const std::vector<std::size_t> rows = {2, 0, 2};
  EXPECT_EQ(t.gather_rows(rows), Tensor({3, 2}, {4, 5, 0, 1, 4, 5}));
  const Tensor none = t.gather_rows({});
  EXPECT_EQ(none.shape(), (std::vector<std::int64_t>{0, 2}));
  const std::vector<std::size_t> bad = {1, 3};
  EXPECT_THROW(t.gather_rows(bad), Error);
  EXPECT_THROW(Tensor({6}).gather_rows(rows), Error);
  EXPECT_THROW(Tensor({1, 3, 2}).gather_rows({}), Error);
}

TEST(Tensor, TimeStepRoundTrip) {
  Rng rng(4);
  Tensor seq({3, 2, 4});
  const Tensor plane = Tensor::randn({2, 4}, rng);
  seq.set_time_step(1, plane);
  EXPECT_TRUE(allclose(seq.time_step(1), plane, 0.0F));
  EXPECT_EQ(seq.time_step(0).sum(), 0.0);
  EXPECT_THROW(seq.time_step(3), Error);
}

TEST(Tensor, ConcatCols) {
  const Tensor a({2, 1}, {1, 2});
  const Tensor b({2, 2}, {3, 4, 5, 6});
  const std::vector<Tensor> parts{a, b};
  const Tensor c = Tensor::concat_cols(parts);
  EXPECT_EQ(c.shape(1), 3);
  EXPECT_EQ(c.at(0, 0), 1.0F);
  EXPECT_EQ(c.at(0, 1), 3.0F);
  EXPECT_EQ(c.at(1, 2), 6.0F);
}

TEST(Tensor, SplitColsInvertsConcatCols) {
  Rng rng(12);
  const std::vector<Tensor> parts{Tensor::randn({3, 2}, rng),
                                  Tensor::randn({3, 5}, rng),
                                  Tensor::randn({3, 1}, rng)};
  const std::vector<std::int64_t> widths{2, 5, 1};
  EXPECT_EQ(Tensor::concat_cols(parts).split_cols(widths), parts);
  const Tensor whole = Tensor::randn({4, 6}, rng);
  const std::vector<std::int64_t> single{6};
  EXPECT_EQ(whole.split_cols(single).front(), whole);
}

TEST(Tensor, SplitColsRejectsBadWidths) {
  const Tensor t({2, 4});
  const std::vector<std::int64_t> short_sum{1, 2};
  const std::vector<std::int64_t> long_sum{3, 2};
  const std::vector<std::int64_t> zero{4, 0};
  const std::vector<std::int64_t> negative{5, -1};
  const std::vector<std::int64_t> ok{4};
  EXPECT_THROW(t.split_cols(short_sum), Error);
  EXPECT_THROW(t.split_cols(long_sum), Error);
  EXPECT_THROW(t.split_cols(zero), Error);
  EXPECT_THROW(t.split_cols(negative), Error);
  EXPECT_THROW(Tensor({8}).split_cols(ok), Error);
}

TEST(Tensor, ConcatRows) {
  const Tensor a({1, 2}, {1, 2});
  const Tensor b({2, 2}, {3, 4, 5, 6});
  const std::vector<Tensor> parts{a, b};
  const Tensor c = Tensor::concat_rows(parts);
  EXPECT_EQ(c.shape(0), 3);
  EXPECT_EQ(c.at(2, 1), 6.0F);
}

TEST(Tensor, ConcatShapeMismatchThrows) {
  const std::vector<Tensor> parts{Tensor({2, 2}), Tensor({3, 2})};
  EXPECT_THROW(Tensor::concat_cols(parts), Error);
}

TEST(Tensor, InPlaceArithmetic) {
  Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {4, 5, 6});
  a.add_(b);
  EXPECT_EQ(a.at(0), 5.0F);
  a.sub_(b);
  EXPECT_EQ(a.at(2), 3.0F);
  a.mul_(b);
  EXPECT_EQ(a.at(1), 10.0F);
  a.div_(b);
  EXPECT_EQ(a.at(1), 2.0F);
  a.add_scaled_(b, 2.0F);
  EXPECT_EQ(a.at(0), 9.0F);
  a.mul_(0.0F);
  EXPECT_EQ(a.sum(), 0.0);
}

TEST(Tensor, ShapeMismatchArithmeticThrows) {
  Tensor a({3});
  const Tensor b({4});
  EXPECT_THROW(a.add_(b), Error);
  EXPECT_THROW(a.mul_(b), Error);
}

TEST(Tensor, ClampAndApply) {
  Tensor a({4}, {-2, -0.5F, 0.5F, 2});
  a.clamp_(-1.0F, 1.0F);
  EXPECT_EQ(a.at(0), -1.0F);
  EXPECT_EQ(a.at(3), 1.0F);
  a.apply_([](float v) { return v * v; });
  EXPECT_EQ(a.at(1), 0.25F);
}

TEST(Tensor, Reductions) {
  const Tensor a({2, 2}, {1, -2, 3, 4});
  EXPECT_EQ(a.sum(), 6.0);
  EXPECT_EQ(a.mean(), 1.5);
  EXPECT_EQ(a.max(), 4.0F);
  EXPECT_EQ(a.min(), -2.0F);
  EXPECT_NEAR(a.norm(), std::sqrt(30.0), 1e-6);
  const Tensor rows = a.sum_rows();
  EXPECT_EQ(rows.at(0), 4.0F);
  EXPECT_EQ(rows.at(1), 2.0F);
}

TEST(Tensor, Argmax) {
  const Tensor a({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto rows = a.argmax_rows();
  EXPECT_EQ(rows[0], 1);
  EXPECT_EQ(rows[1], 0);
  EXPECT_EQ(Tensor({3}, {1, 7, 3}).argmax(), 1);
}

TEST(Tensor, DotAndNorm) {
  const Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {4, 5, 6});
  EXPECT_EQ(a.dot(b), 32.0);
}

TEST(Tensor, StreamOutput) {
  std::ostringstream os;
  os << Tensor({2}, {1, 2});
  EXPECT_NE(os.str().find("Tensor[2]"), std::string::npos);
}

// --- Matmul property tests: all variants agree with the naive definition --

struct MatmulShapes {
  std::int64_t m, k, n;
};

class MatmulTest : public ::testing::TestWithParam<MatmulShapes> {};

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  return c;
}

TEST_P(MatmulTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor expected = naive_matmul(a, b);
  EXPECT_TRUE(allclose(matmul(a, b), expected, 1e-4F));
  EXPECT_TRUE(allclose(matmul_tn(a.transposed(), b), expected, 1e-4F));
  EXPECT_TRUE(allclose(matmul_nt(a, b.transposed()), expected, 1e-4F));
}

TEST_P(MatmulTest, MatvecMatchesMatmul) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(8);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor x = Tensor::randn({k}, rng);
  const Tensor via_mm = matmul(a, x.reshape({k, 1}));
  const Tensor via_mv = matvec(a, x);
  for (std::int64_t i = 0; i < m; ++i)
    EXPECT_NEAR(via_mv[i], via_mm[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulTest,
                         ::testing::Values(MatmulShapes{1, 1, 1},
                                           MatmulShapes{2, 3, 4},
                                           MatmulShapes{5, 1, 7},
                                           MatmulShapes{1, 9, 1},
                                           MatmulShapes{8, 8, 8},
                                           MatmulShapes{13, 7, 3}));

TEST(Tensor, MatmulAccAccumulates) {
  Rng rng(9);
  const Tensor a = Tensor::randn({2, 3}, rng);
  const Tensor b = Tensor::randn({3, 2}, rng);
  Tensor out = Tensor::ones({2, 2});
  matmul_acc(a, b, out);
  const Tensor expected = matmul(a, b) + Tensor::ones({2, 2});
  EXPECT_TRUE(allclose(out, expected, 1e-5F));
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})), Error);
  EXPECT_THROW(matmul_tn(Tensor({2, 3}), Tensor({3, 3})), Error);
  EXPECT_THROW(matmul_nt(Tensor({2, 3}), Tensor({2, 4})), Error);
}

TEST(Tensor, AddRowBroadcast) {
  Tensor t({2, 3});
  add_row_broadcast(t, Tensor({3}, {1, 2, 3}));
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(1, 2), 3.0F);
  Tensor bad({2});
  EXPECT_THROW(add_row_broadcast(t, bad), Error);
}

TEST(Tensor, AllcloseAndMaxAbsDiff) {
  const Tensor a({2}, {1.0F, 2.0F});
  const Tensor b({2}, {1.0F, 2.0005F});
  EXPECT_TRUE(allclose(a, b, 1e-3F));
  EXPECT_FALSE(allclose(a, b, 1e-5F));
  EXPECT_NEAR(max_abs_diff(a, b), 5e-4F, 1e-6F);
  EXPECT_FALSE(allclose(a, Tensor({3})));
}

}  // namespace
}  // namespace mdl
