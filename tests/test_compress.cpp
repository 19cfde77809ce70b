#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>

#include "compress/codec.hpp"
#include "compress/deep_compression.hpp"
#include "compress/distill.hpp"
#include "compress/low_rank.hpp"
#include "compress/prune.hpp"
#include "compress/quantize.hpp"
#include "compress/sparse_matrix.hpp"
#include "core/gemm.hpp"
#include "data/synthetic.hpp"
#include "federated/common.hpp"
#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "prop.hpp"

namespace mdl::compress {
namespace {

// The sparse kernels are scalar and claim bit-identity against the dense
// canonical ascending-k chain. Pin the dense side to the scalar blocked
// suite for those comparisons — under the AVX2 default (MDL_GEMM unset on
// an AVX2 machine) dense floats follow the fma chain instead, which is
// ULP-close but not bit-identical.
struct ScalarChainGuard {
  gemm::Mode saved = gemm::mode();
  ScalarChainGuard() { gemm::set_mode(gemm::Mode::kBlocked); }
  ~ScalarChainGuard() { gemm::set_mode(saved); }
};

// ------------------------------------------------------------------- CSR

TEST(Csr, DenseRoundTrip) {
  Rng rng(1);
  Tensor d = Tensor::randn({5, 7}, rng);
  d[3] = 0.0F;
  d[10] = 0.0F;
  const CsrMatrix m = CsrMatrix::from_dense(d);
  EXPECT_TRUE(allclose(m.to_dense(), d, 0.0F));
  EXPECT_EQ(m.nnz(), 33);
}

TEST(Csr, ThresholdDropsSmallEntries) {
  const Tensor d({2, 2}, {0.05F, -0.5F, 0.2F, 0.01F});
  const CsrMatrix m = CsrMatrix::from_dense(d, 0.1F);
  EXPECT_EQ(m.nnz(), 2);
  const Tensor back = m.to_dense();
  EXPECT_EQ(back.at(0, 0), 0.0F);
  EXPECT_EQ(back.at(0, 1), -0.5F);
}

TEST(Csr, MatvecMatchesDense) {
  Rng rng(2);
  Tensor d = Tensor::randn({6, 9}, rng);
  prune_by_magnitude(d, 0.5);
  const CsrMatrix m = CsrMatrix::from_dense(d);
  const Tensor x = Tensor::randn({9}, rng);
  const Tensor dense_y = matvec(d, x);
  const Tensor sparse_y = m.matvec(x);
  for (std::int64_t i = 0; i < 6; ++i)
    EXPECT_NEAR(sparse_y[i], dense_y[i], 1e-4);
  EXPECT_THROW(m.matvec(Tensor({8})), Error);
}

TEST(Csr, MatmulMatchesDense) {
  Rng rng(3);
  Tensor d = Tensor::randn({4, 6}, rng);
  prune_by_magnitude(d, 0.4);
  const Tensor b = Tensor::randn({6, 5}, rng);
  EXPECT_TRUE(allclose(CsrMatrix::from_dense(d).matmul(b), matmul(d, b),
                       1e-4F));
}

TEST(Csr, StorageBytesFormula) {
  const Tensor d({2, 3}, {1, 0, 2, 0, 0, 3});
  const CsrMatrix m = CsrMatrix::from_dense(d);
  // 3 values*4 + 3 col idx*4 + 3 row ptr*4 = 36.
  EXPECT_EQ(m.storage_bytes(), 36U);
  EXPECT_NEAR(m.density(), 0.5, 1e-9);
}

// ----------------------------------------------------------------- Prune

std::int64_t count_zeros(const Tensor& t) {
  return std::count(t.flat().begin(), t.flat().end(), 0.0F);
}

// Fraction of exactly-zero entries.
double measure_sparsity(const Tensor& t) {
  return static_cast<double>(count_zeros(t)) / static_cast<double>(t.size());
}

// Fraction of exactly-zero entries over the model's 2-D (weight) tensors.
double measure_model_sparsity(nn::Module& model) {
  std::int64_t total = 0, zeros = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (p->value.ndim() != 2) continue;
    total += p->value.size();
    zeros += count_zeros(p->value);
  }
  return static_cast<double>(zeros) / static_cast<double>(total);
}

TEST(Prune, ExactSparsityFraction) {
  Rng rng(4);
  Tensor t = Tensor::randn({40, 25}, rng);
  prune_by_magnitude(t, 0.9);
  EXPECT_NEAR(measure_sparsity(t), 0.9, 1e-3);
}

TEST(Prune, KeepsLargestMagnitudes) {
  Tensor t({6}, {0.1F, -5.0F, 0.2F, 3.0F, -0.05F, 1.0F});
  prune_by_magnitude(t, 0.5);
  EXPECT_EQ(t[1], -5.0F);
  EXPECT_EQ(t[3], 3.0F);
  EXPECT_EQ(t[5], 1.0F);
  EXPECT_EQ(t[0], 0.0F);
  EXPECT_EQ(t[2], 0.0F);
  EXPECT_EQ(t[4], 0.0F);
}

TEST(Prune, ZeroSparsityIsNoop) {
  Rng rng(5);
  const Tensor orig = Tensor::randn({10}, rng);
  Tensor t = orig;
  prune_by_magnitude(t, 0.0);
  EXPECT_TRUE(allclose(t, orig, 0.0F));
  EXPECT_THROW(prune_by_magnitude(t, 1.0), Error);
}

TEST(Prune, ModelPruneSkipsBiases) {
  Rng rng(6);
  nn::Sequential model;
  model.emplace<nn::Linear>(10, 10, rng);
  // Make the bias nonzero so we can verify it survives.
  model.parameters()[1]->value.fill(1.0F);
  const double sparsity = prune_model(model, 0.8);
  EXPECT_NEAR(sparsity, 0.8, 0.01);
  EXPECT_EQ(model.parameters()[1]->value.min(), 1.0F);  // bias untouched
  EXPECT_NEAR(measure_model_sparsity(model), 0.8, 0.01);
}

TEST(Prune, GradientMaskKeepsZerosPruned) {
  Rng rng(7);
  nn::Sequential model;
  model.emplace<nn::Linear>(4, 4, rng);
  prune_model(model, 0.5);
  for (nn::Parameter* p : model.parameters()) p->grad.fill(1.0F);
  mask_pruned_gradients(model);
  const nn::Parameter* w = model.parameters()[0];
  for (std::int64_t i = 0; i < w->value.size(); ++i)
    EXPECT_EQ(w->grad[i], w->value[i] == 0.0F ? 0.0F : 1.0F);
}

// --------------------------------------------- sparse-aware entry points

TEST(SparseEntry, PrunedMatmulMatchesDenseBitForBit) {
  // Dense kernels carry no zero-skip branch; a pruned weight runs as CSR,
  // and its product is still identical to the dense kernel's.
  ScalarChainGuard chain;
  Rng rng(40);
  Tensor a = Tensor::randn({13, 21}, rng);
  prune_by_magnitude(a, 0.6);
  const Tensor b = Tensor::randn({21, 9}, rng);
  const Tensor dense = matmul(a, b);
  const Tensor sparse = CsrMatrix::from_dense(a).matmul(b);
  ASSERT_TRUE(sparse.same_shape(dense));
  for (std::int64_t i = 0; i < dense.size(); ++i)
    EXPECT_EQ(sparse[i], dense[i]) << "element " << i;
}

TEST(SparseEntry, PrunedMatvecMatchesDenseBitForBit) {
  ScalarChainGuard chain;
  Rng rng(41);
  Tensor a = Tensor::randn({17, 23}, rng);
  prune_by_magnitude(a, 0.7);
  const Tensor x = Tensor::randn({23}, rng);
  const Tensor dense = matvec(a, x);
  const Tensor sparse = CsrMatrix::from_dense(a).matvec(x);
  ASSERT_TRUE(sparse.same_shape(dense));
  for (std::int64_t i = 0; i < dense.size(); ++i)
    EXPECT_EQ(sparse[i], dense[i]) << "element " << i;
}

TEST(SparseEntry, PrunedLinearMatchesDenseForward) {
  ScalarChainGuard chain;
  Rng rng(43);
  nn::Linear dense(14, 6, rng);
  prune_by_magnitude(dense.weight().value, 0.5);
  PrunedLinear sparse(dense);
  EXPECT_NEAR(sparse.sparsity(), 0.5, 0.01);
  EXPECT_GT(sparse.storage_bytes(), 0U);

  const Tensor x = Tensor::randn({5, 14}, rng);
  const Tensor want = dense.forward(x);
  const Tensor got = sparse.forward(x);
  EXPECT_TRUE(allclose(got, want, 0.0F));  // bit-exact
  EXPECT_THROW(sparse.backward(Tensor({5, 6})), Error);
  EXPECT_THROW(sparse.forward(Tensor({5, 13})), Error);
}

TEST(SparseEntry, PrunedLinearKeepsNaNWeights) {
  Rng rng(45);
  nn::Linear dense(4, 3, rng);
  dense.weight().value[5] = std::numeric_limits<float>::quiet_NaN();  // (1,1)
  const PrunedLinear sparse(dense);
  const Tensor y = sparse.infer(Tensor::randn({2, 4}, rng));
  for (std::int64_t b = 0; b < 2; ++b) {
    EXPECT_TRUE(std::isnan(y.at(b, 1)));
    EXPECT_TRUE(std::isfinite(y.at(b, 0)));
    EXPECT_TRUE(std::isfinite(y.at(b, 2)));
  }
}

TEST(SparseEntry, SparseDeployMlpMatchesSource) {
  ScalarChainGuard chain;
  Rng rng(44);
  auto model = federated::mlp_factory(8, 10, 3)(rng);
  prune_model(*model, 0.6);
  auto deployed = sparse_deploy_mlp(*model);
  const Tensor x = Tensor::randn({7, 8}, rng);
  EXPECT_TRUE(allclose(deployed->forward(x), model->forward(x), 0.0F));
}

// -------------------------------------------------------------- Quantize

TEST(Quantize, RoundTripPreservesShapeAndZeros) {
  Rng rng(8);
  Tensor t = Tensor::randn({8, 8}, rng);
  prune_by_magnitude(t, 0.5);
  QuantizeConfig cfg;
  cfg.bits = 5;
  const QuantizedTensor q = quantize_kmeans(t, cfg);
  const Tensor back = q.dequantize();
  EXPECT_TRUE(back.same_shape(t));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    if (t[i] == 0.0F) {
      EXPECT_EQ(back[i], 0.0F);  // pruning survives
    }
  }
}

TEST(Quantize, MoreBitsLessError) {
  Rng rng(9);
  const Tensor t = Tensor::randn({30, 30}, rng);
  QuantizeConfig low;
  low.bits = 2;
  QuantizeConfig high;
  high.bits = 8;
  const float err_low = quantize_kmeans(t, low).max_error(t);
  const float err_high = quantize_kmeans(t, high).max_error(t);
  EXPECT_LT(err_high, err_low);
  EXPECT_LT(err_high, 0.1F);
}

TEST(Quantize, CodebookSizeBounded) {
  Rng rng(10);
  const Tensor t = Tensor::randn({100}, rng);
  QuantizeConfig cfg;
  cfg.bits = 3;
  const QuantizedTensor q = quantize_kmeans(t, cfg);
  EXPECT_LE(q.codebook.size(), 8U);  // 2^3 - 1 nonzero + zero slot
  EXPECT_EQ(q.codebook[0], 0.0F);
  for (const std::uint32_t idx : q.indices) EXPECT_LT(idx, q.codebook.size());
  EXPECT_THROW(quantize_kmeans(t, {.bits = 0}), Error);
}

TEST(Quantize, AllZeroTensor) {
  const Tensor t({4, 4});
  const QuantizedTensor q = quantize_kmeans(t, {});
  EXPECT_EQ(q.dequantize().sum(), 0.0);
}

TEST(Quantize, FewDistinctValuesExactlyRepresentable) {
  Tensor t({6}, {1.0F, 2.0F, 1.0F, 2.0F, 0.0F, 1.0F});
  QuantizeConfig cfg;
  cfg.bits = 4;
  const QuantizedTensor q = quantize_kmeans(t, cfg);
  EXPECT_LT(q.max_error(t), 1e-5F);
}

TEST(Quantize, StorageBytesAccountsBitWidth) {
  Rng rng(11);
  const Tensor t = Tensor::randn({1000}, rng);
  QuantizeConfig cfg;
  cfg.bits = 4;
  const QuantizedTensor q = quantize_kmeans(t, cfg);
  EXPECT_EQ(q.storage_bytes(), (1000 * 4 + 7) / 8 + q.codebook.size() * 4);
}

// ------------------------------------------------- Huffman (index stage)
// Deep Compression's Huffman stage: encode_indices/decode_indices over
// BlockCodec. Short streams fit one block, so the framing is one stream
// header plus one block header ahead of the code table and bitstream.

constexpr std::size_t kOneBlockFraming =
    BlockCodec::kStreamHeaderBytes + BlockCodec::kBlockHeaderBytes;

TEST(Huffman, RoundTripRandomStreams) {
  // Codebooks up to 256 entries code one byte per index; larger ones a
  // low-byte plane and a high-byte plane.
  Rng rng(13);
  for (const std::uint32_t alphabet :
       {2U, 5U, 17U, 64U, 256U, 257U, 4000U, 65536U}) {
    std::vector<std::uint32_t> symbols(500);
    for (auto& s : symbols)
      s = static_cast<std::uint32_t>(rng.uniform_int(alphabet));
    const auto enc = encode_indices(symbols, alphabet);
    EXPECT_EQ(decode_indices(enc, symbols.size(), alphabet), symbols)
        << "alphabet " << alphabet;
    // The stream's length must match the element count and index width.
    EXPECT_THROW(decode_indices(enc, symbols.size() + 1, alphabet), Error);
    EXPECT_THROW(decode_indices(enc, symbols.size(),
                                alphabet <= 256 ? 257 : 256),
                 Error);
  }
}

TEST(Huffman, SingleSymbolStream) {
  const std::vector<std::uint32_t> symbols(100, 3);
  const auto enc = encode_indices(symbols, 8);
  EXPECT_EQ(decode_indices(enc, symbols.size(), 8), symbols);
  // One 1-bit code => 13 bytes of bitstream, behind a 7-byte table
  // (nibble-packed lengths for literals 0..3 and the five run symbols).
  EXPECT_EQ(enc.size(), kOneBlockFraming + 7 + 13);
}

TEST(Huffman, EmptyStream) {
  const auto enc = encode_indices({}, 4);
  EXPECT_EQ(enc.size(), BlockCodec::kStreamHeaderBytes);
  EXPECT_TRUE(decode_indices(enc, 0, 4).empty());
}

TEST(Huffman, SkewedStreamBeatsFixedWidth) {
  // 90% zeros over a 16-symbol alphabet: the coded stream, framing
  // included, should beat the 4-bit fixed-width encoding substantially.
  Rng rng(14);
  std::vector<std::uint32_t> symbols(4000);
  for (auto& s : symbols)
    s = rng.bernoulli(0.9)
            ? 0U
            : static_cast<std::uint32_t>(1 + rng.uniform_int(15));
  const auto enc = encode_indices(symbols, 16);
  const double fixed_bits = 4.0 * static_cast<double>(symbols.size());
  const double coded_bits = 8.0 * static_cast<double>(enc.size());
  EXPECT_LT(coded_bits, 0.6 * fixed_bits);
  // And it can't beat entropy.
  const double entropy_bits = prop::order0_entropy_bits(symbols) *
                              static_cast<double>(symbols.size());
  EXPECT_GE(coded_bits + 8.0, entropy_bits);
  EXPECT_EQ(decode_indices(enc, symbols.size(), 16), symbols);
}

TEST(Huffman, NearEntropyOnUniform) {
  Rng rng(15);
  std::vector<std::uint32_t> symbols(8000);
  for (auto& s : symbols)
    s = static_cast<std::uint32_t>(rng.uniform_int(8));
  const auto enc = encode_indices(symbols, 8);
  // Bitstream only: framing and the 9-byte table are fixed costs.
  const double bits_per_symbol =
      8.0 * static_cast<double>(enc.size() - kOneBlockFraming - 9) /
      static_cast<double>(symbols.size());
  EXPECT_NEAR(bits_per_symbol, 3.0, 0.1);  // entropy = 3 bits
}

TEST(Huffman, AlphabetSizeOneRoundTrips) {
  // Degenerate codebook: only one possible index, so the stream carries no
  // information beyond its length — one zero-run token.
  const std::vector<std::uint32_t> symbols(50, 0);
  const auto enc = encode_indices(symbols, 1);
  EXPECT_EQ(decode_indices(enc, symbols.size(), 1), symbols);
  EXPECT_LE(enc.size(), kOneBlockFraming + 7);
}

TEST(Huffman, AllEqualFrequenciesGiveFixedWidthCode) {
  // A uniform 8-symbol stream has no skew to exploit: every code must be
  // exactly log2(8) = 3 bits, so the bitstream is exactly 3 bits/symbol
  // behind a 9-byte table (eight literal nibbles + the run symbols').
  std::vector<std::uint32_t> symbols;
  for (int rep = 0; rep < 32; ++rep)
    for (std::uint32_t s = 0; s < 8; ++s) symbols.push_back(s);
  const auto enc = encode_indices(symbols, 8);
  EXPECT_EQ(enc.size(), kOneBlockFraming + 9 + symbols.size() * 3 / 8);
  EXPECT_EQ(decode_indices(enc, symbols.size(), 8), symbols);
}

TEST(Huffman, EmptyAlphabetThrows) {
  EXPECT_THROW(encode_indices({}, 0), Error);
  EXPECT_THROW(encode_indices({}, 65537), Error);
  EXPECT_THROW(decode_indices(encode_indices({}, 1), 0, 0), Error);
}

TEST(Huffman, SymbolOutsideAlphabetThrows) {
  EXPECT_THROW(encode_indices(std::vector<std::uint32_t>{5}, 4), Error);
  EXPECT_THROW(encode_indices(std::vector<std::uint32_t>{256}, 256), Error);
}

TEST(Huffman, EntropyHelper) {
  // The order-0 entropy the size guards above and in test_codec.cpp use.
  const std::vector<std::uint32_t> uniform{0, 1, 2, 3};
  EXPECT_NEAR(prop::order0_entropy_bits(uniform), 2.0, 1e-9);
  const std::vector<std::uint32_t> constant{1, 1, 1};
  EXPECT_NEAR(prop::order0_entropy_bits(constant), 0.0, 1e-9);
}

// -------------------------------------------------------------- Low rank

TEST(Svd, ReconstructsMatrix) {
  Rng rng(16);
  const Tensor a = Tensor::randn({6, 4}, rng);
  const Svd svd = svd_jacobi(a);
  const Tensor recon = low_rank_approx(svd, 4);
  EXPECT_LT(max_abs_diff(recon, a), 1e-3F);
}

TEST(Svd, WideMatrix) {
  Rng rng(17);
  const Tensor a = Tensor::randn({3, 8}, rng);
  const Svd svd = svd_jacobi(a);
  EXPECT_LT(max_abs_diff(low_rank_approx(svd, 3), a), 1e-3F);
}

TEST(Svd, SingularValuesSortedNonNegative) {
  Rng rng(18);
  const Svd svd = svd_jacobi(Tensor::randn({5, 5}, rng));
  for (std::int64_t i = 0; i < svd.s.size(); ++i) {
    EXPECT_GE(svd.s[i], 0.0F);
    if (i > 0) {
      EXPECT_LE(svd.s[i], svd.s[i - 1]);
    }
  }
}

TEST(Svd, ColumnsOrthonormal) {
  Rng rng(19);
  const Svd svd = svd_jacobi(Tensor::randn({7, 4}, rng));
  const Tensor utu = matmul_tn(svd.u, svd.u);
  const Tensor vtv = matmul_tn(svd.v, svd.v);
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 4; ++j) {
      const float expected = i == j ? 1.0F : 0.0F;
      EXPECT_NEAR(utu.at(i, j), expected, 1e-3);
      EXPECT_NEAR(vtv.at(i, j), expected, 1e-3);
    }
}

TEST(Svd, KnownRankOneMatrix) {
  // a = u v^T has exactly one nonzero singular value = |u||v|.
  const Tensor u({3}, {1, 2, 2});  // norm 3
  const Tensor v({2}, {3, 4});     // norm 5
  Tensor a({3, 2});
  for (std::int64_t i = 0; i < 3; ++i)
    for (std::int64_t j = 0; j < 2; ++j) a[i * 2 + j] = u[i] * v[j];
  const Svd svd = svd_jacobi(a);
  EXPECT_NEAR(svd.s[0], 15.0F, 1e-3);
  EXPECT_NEAR(svd.s[1], 0.0F, 1e-3);
}

TEST(LowRank, TruncationErrorBoundedBySingularValues) {
  Rng rng(20);
  const Tensor a = Tensor::randn({8, 8}, rng);
  const Svd svd = svd_jacobi(a);
  const Tensor r4 = low_rank_approx(svd, 4);
  // Spectral-norm error of best rank-4 approx = sigma_5; elementwise diff
  // can't exceed it by much.
  EXPECT_LE(max_abs_diff(r4, a), svd.s[4] + 1e-3F);
}

TEST(LowRank, FactorizeWeightComposes) {
  Rng rng(21);
  const Tensor w = Tensor::randn({6, 10}, rng);
  const auto [b, a] = factorize_weight(w, 6);
  EXPECT_EQ(b.shape(0), 6);
  EXPECT_EQ(a.shape(1), 10);
  EXPECT_LT(max_abs_diff(matmul(b, a), w), 1e-3F);
}

TEST(LowRank, FactorizeMlpLosslessOnLowRankWeights) {
  Rng rng(22);
  nn::Sequential model;
  auto& l1 = model.emplace<nn::Linear>(6, 8, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Linear>(8, 3, rng);
  // Give the first layer an exactly rank-3 weight so rank-5 factorization
  // is lossless; the 8->3 head (min dim 3 <= 5) must be copied verbatim.
  l1.weight().value =
      matmul(Tensor::randn({8, 3}, rng), Tensor::randn({3, 6}, rng));
  auto factored = low_rank_factorize_mlp(model, 5, rng);
  const Tensor x = Tensor::randn({4, 6}, rng);
  EXPECT_LT(max_abs_diff(model.forward(x), factored->forward(x)), 1e-2F);
  EXPECT_EQ(factored->size(), 4U);  // 6->5, 5->8, ReLU, 8->3
}

TEST(LowRank, FactorizeMlpCopiesSmallLayers) {
  Rng rng(30);
  nn::Sequential model;
  model.emplace<nn::Linear>(4, 5, rng);
  // Rank >= min dim: splitting cannot pay off, layer is copied as-is.
  auto factored = low_rank_factorize_mlp(model, 4, rng);
  EXPECT_EQ(factored->size(), 1U);
  const Tensor x = Tensor::randn({2, 4}, rng);
  EXPECT_TRUE(allclose(model.forward(x), factored->forward(x), 1e-6F));
}

TEST(LowRank, FactorizeMlpDropsDropout) {
  // Dropout is the identity at inference, so the rebuilt graph omits it,
  // as int8_quantize_mlp and sparse_deploy_mlp do.
  Rng rng(31);
  nn::Sequential model;
  model.emplace<nn::Linear>(6, 8, rng);
  model.emplace<nn::Dropout>(0.5, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Linear>(8, 3, rng);
  auto factored = low_rank_factorize_mlp(model, 5, rng);
  EXPECT_EQ(factored->size(), 4U);  // 6->5, 5->8, ReLU, 8->3
  for (std::size_t i = 0; i < factored->size(); ++i)
    EXPECT_EQ(dynamic_cast<nn::Dropout*>(&factored->layer(i)), nullptr);
}

TEST(LowRank, ParamCountHelper) {
  EXPECT_EQ(low_rank_param_count(100, 200, 10), 10 * 300);
}

// ----------------------------------------------------- Deep Compression

struct CompressFixture : ::testing::Test {
  CompressFixture() {
    Rng data_rng(23);
    data::SyntheticConfig c;
    c.num_samples = 300;
    c.num_features = 16;
    c.num_classes = 4;
    c.class_sep = 3.0;
    const auto ds = data::make_classification(c, data_rng);
    const auto split = data::train_test_split(ds, 0.25, data_rng);
    train_set = split.train;
    test_set = split.test;
    Rng model_rng(24);
    model = federated::mlp_factory(16, 32, 4)(model_rng);
    Rng sgd_rng(25);
    federated::local_sgd(*model, train_set, 30, 16, 0.1, sgd_rng);
  }
  data::TabularDataset train_set, test_set;
  std::unique_ptr<nn::Sequential> model;
};

TEST_F(CompressFixture, PipelineShrinksStorageMonotonically) {
  const double base_acc = federated::evaluate_accuracy(*model, test_set);
  EXPECT_GT(base_acc, 0.78);
  const std::uint64_t dense = model_dense_bytes(*model);

  prune_model(*model, 0.7);
  const std::uint64_t pruned = model_pruned_bytes(*model);
  EXPECT_LT(pruned, dense);

  QuantizeConfig qc;
  qc.bits = 5;
  const CompressedModel cm = compress_model(*model, qc);
  EXPECT_LT(cm.quantized_bytes(), pruned);
  EXPECT_LT(cm.compressed_bytes(), cm.quantized_bytes());
}

TEST_F(CompressFixture, RestoreKeepsAccuracy) {
  const double base_acc = federated::evaluate_accuracy(*model, test_set);
  prune_model(*model, 0.5);
  QuantizeConfig qc;
  qc.bits = 6;
  const CompressedModel cm = compress_model(*model, qc);

  Rng rng(26);
  auto restored = federated::mlp_factory(16, 32, 4)(rng);
  cm.restore_into(*restored);
  const double restored_acc =
      federated::evaluate_accuracy(*restored, test_set);
  EXPECT_GT(restored_acc, base_acc - 0.1);
}

TEST_F(CompressFixture, ArtifactSerializationRoundTrip) {
  prune_model(*model, 0.6);
  const CompressedModel cm = compress_model(*model, {});
  std::stringstream ss;
  BinaryWriter w(ss);
  write_compressed(w, cm);
  BinaryReader r(ss);
  const CompressedModel back = read_compressed(r);
  ASSERT_EQ(back.entries.size(), cm.entries.size());

  Rng rng(27);
  auto m1 = federated::mlp_factory(16, 32, 4)(rng);
  auto m2 = federated::mlp_factory(16, 32, 4)(rng);
  cm.restore_into(*m1);
  back.restore_into(*m2);
  const Tensor x = Tensor::randn({3, 16}, rng);
  EXPECT_TRUE(allclose(m1->forward(x), m2->forward(x), 0.0F));
}

TEST_F(CompressFixture, RestoreIntoWrongModelThrows) {
  const CompressedModel cm = compress_model(*model, {});
  Rng rng(28);
  auto wrong = federated::mlp_factory(16, 16, 4)(rng);
  EXPECT_THROW(cm.restore_into(*wrong), Error);
}

TEST_F(CompressFixture, DistilledStudentApproachesTeacher) {
  Rng rng(29);
  auto student = federated::mlp_factory(16, 6, 4)(rng);
  DistillConfig dc;
  dc.epochs = 25;
  const double distilled_acc =
      distill(*model, *student, train_set, test_set, dc);
  const double teacher_acc = federated::evaluate_accuracy(*model, test_set);
  // A 6-hidden-unit student should recover most of the 32-unit teacher's
  // accuracy from its soft targets (§III-B model distillation).
  EXPECT_GT(distilled_acc, teacher_acc - 0.12);
  EXPECT_GT(distilled_acc, 0.7);
}

TEST_F(CompressFixture, DistillationAlphaBlendsObjectives) {
  // Pure-soft (alpha=1) training must still produce a working student even
  // with no hard labels — the teacher's distribution carries the task.
  Rng rng(31);
  auto student = federated::mlp_factory(16, 8, 4)(rng);
  DistillConfig dc;
  dc.alpha = 1.0;
  dc.epochs = 25;
  const double acc = distill(*model, *student, train_set, test_set, dc);
  EXPECT_GT(acc, 0.6);
}

// ------------------------------------------------ Deep Compression artifact
// read_compressed parses untrusted bytes; these sweeps run under ASan+UBSan
// in CI (the DeepCompression* filter in smoke.sh and ci.yml).

std::string serialize(const CompressedModel& cm) {
  std::ostringstream os;
  BinaryWriter w(os);
  write_compressed(w, cm);
  return os.str();
}

/// read_compressed + restore_into; nullopt when either throws mdl::Error.
std::optional<CompressedModel> load_into(const std::string& bytes,
                                         nn::Module& model) {
  std::istringstream is(bytes);
  BinaryReader r(is);
  try {
    CompressedModel cm = read_compressed(r);
    cm.restore_into(model);
    return cm;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::uint64_t element_count(const CompressedModel::Entry& e) {
  std::uint64_t n = 1;
  for (const std::int64_t d : e.shape) n *= static_cast<std::uint64_t>(d);
  return n;
}

/// A pruned MLP(8-12-3) compressed at `bits`.
CompressedModel small_artifact(int bits) {
  Rng rng(40);
  auto model = federated::mlp_factory(8, 12, 3)(rng);
  prune_model(*model, 0.6);
  return compress_model(*model, {.bits = bits});
}

TEST(DeepCompressionArtifact, EveryBitFlipAndTruncationThrowsOrRestores) {
  const CompressedModel cm = small_artifact(4);
  const std::string good = serialize(cm);
  std::vector<std::vector<std::uint32_t>> want;
  for (const auto& e : cm.entries)
    want.push_back(
        decode_indices(e.indices, element_count(e), e.codebook.size()));
  Rng rng(41);
  auto target = federated::mlp_factory(8, 12, 3)(rng);
  ASSERT_TRUE(load_into(good, *target).has_value());

  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    const auto back = load_into(bad, *target);
    if (!back) continue;
    // Accepted flips land outside the index streams (a codebook value, the
    // bits byte): BlockCodec's CRC turns a flip inside a stream into a
    // throw, so every stream still decodes to the original indices.
    ASSERT_EQ(back->entries.size(), want.size()) << "bit " << bit;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto& e = back->entries[i];
      EXPECT_EQ(decode_indices(e.indices, want[i].size(), e.codebook.size()),
                want[i])
          << "bit " << bit << ", entry " << i;
    }
  }
  // Every field is read, so no proper prefix parses.
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_FALSE(load_into(good.substr(0, len), *target).has_value())
        << "truncated to " << len << " bytes";
}

TEST(DeepCompressionArtifact, IndexOutsideCodebookThrowsOnRestore) {
  // A well-formed index stream of the right length whose first index names
  // a codebook slot that does not exist: the reader accepts it, restore
  // refuses it.
  CompressedModel cm = small_artifact(4);
  CompressedModel::Entry& e = cm.entries[0];
  ASSERT_LT(e.codebook.size(), 256U);
  std::vector<std::uint8_t> planes(element_count(e), 0);
  planes[0] = static_cast<std::uint8_t>(e.codebook.size());
  e.indices = BlockCodec().encode(planes);

  std::istringstream is(serialize(cm));
  BinaryReader r(is);
  const CompressedModel back = read_compressed(r);
  Rng rng(42);
  auto target = federated::mlp_factory(8, 12, 3)(rng);
  EXPECT_THROW(back.restore_into(*target), Error);
}

TEST(DeepCompressionArtifact, SixteenBitTwoPlaneRoundTripIsBitIdentical) {
  Rng rng(43);
  const auto factory = federated::mlp_factory(16, 64, 4);
  auto model = factory(rng);
  prune_model(*model, 0.3);
  const QuantizeConfig qc{.bits = 16};
  const CompressedModel cm = compress_model(*model, qc);
  ASSERT_GT(cm.entries[0].codebook.size(), 256U);  // two index planes

  auto restored = factory(rng);
  ASSERT_TRUE(load_into(serialize(cm), *restored).has_value());
  const auto params = model->parameters();
  const auto got = restored->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    QuantizeConfig cfg = qc;
    if (params[i]->value.ndim() < 2) cfg.bits = 8;  // as compress_model
    const Tensor want = quantize_kmeans(params[i]->value, cfg).dequantize();
    ASSERT_TRUE(want.same_shape(got[i]->value));
    EXPECT_EQ(std::memcmp(want.data(), got[i]->value.data(),
                          static_cast<std::size_t>(want.size()) *
                              sizeof(float)),
              0)
        << "parameter " << i;
  }
}

TEST(DeepCompressionArtifact, ReaderRejectsBadShapesLengthsAndVersions) {
  // One hand-written entry; the reader must refuse before allocating.
  const auto artifact = [](std::uint32_t version,
                           const std::vector<std::int64_t>& shape,
                           std::uint64_t stream_len) {
    std::ostringstream os;
    BinaryWriter w(os);
    write_archive_header(w, version);
    w.write_u32(1);
    w.write_shape(shape);
    w.write_u8(4);
    w.write_f32_vector({0.0F});
    w.write_u64(stream_len);
    return os.str();
  };
  const auto read = [](const std::string& bytes) {
    std::istringstream is(bytes);
    BinaryReader r(is);
    return read_compressed(r);
  };
  EXPECT_NO_THROW(read(artifact(3, {2, 3}, 0)));
  EXPECT_THROW(read(artifact(2, {2, 3}, 0)), Error);   // pre-BlockCodec
  EXPECT_THROW(read(artifact(3, {-1, 3}, 0)), Error);  // negative dimension
  EXPECT_THROW(read(artifact(3, {0, -3}, 0)), Error);  // ... after a zero
  EXPECT_THROW(read(artifact(3, {1LL << 32, 1LL << 32}, 0)),
               Error);                                  // count overflows
  EXPECT_THROW(read(artifact(3, {2, 3}, 100)), Error);  // past the input
}

}  // namespace
}  // namespace mdl::compress
