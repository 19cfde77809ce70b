#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/activations.hpp"

namespace mdl::ml {

constexpr double kLearningRate = 0.25;
constexpr double kLambda = 1.0;          ///< L2 on leaf weights
constexpr double kGamma = 0.0;           ///< min split gain
constexpr double kMinChildWeight = 1.0;  ///< min hessian sum per leaf
constexpr double kColsample = 0.8;       ///< feature subsampling per tree

GradientBoostedTrees::GradientBoostedTrees(GBDTConfig config)
    : config_(config) {
  MDL_CHECK(config.rounds > 0 && config.max_depth >= 1, "invalid GBDT config");
  MDL_CHECK(config.subsample > 0.0 && config.subsample <= 1.0,
            "subsample fraction must be in (0, 1]");
}

float GradientBoostedTrees::RegTree::predict(std::span<const float> row) const {
  std::int32_t cur = 0;
  while (nodes[static_cast<std::size_t>(cur)].feature >= 0) {
    const RegNode& nd = nodes[static_cast<std::size_t>(cur)];
    cur = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                    : nd.right;
  }
  return nodes[static_cast<std::size_t>(cur)].value;
}

std::int32_t GradientBoostedTrees::build(
    RegTree& tree, const Tensor& x, std::span<const double> grad,
    std::span<const double> hess, std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end,
    std::span<const std::int64_t> features, std::int64_t depth) const {
  const std::size_t n = end - begin;
  double g_sum = 0.0, h_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_sum += grad[rows[i]];
    h_sum += hess[rows[i]];
  }

  auto leaf_value = [&](double g, double h) {
    return static_cast<float>(-kLearningRate * g / (h + kLambda));
  };
  auto make_leaf = [&]() {
    RegNode node;
    node.value = leaf_value(g_sum, h_sum);
    tree.nodes.push_back(node);
    return static_cast<std::int32_t>(tree.nodes.size() - 1);
  };

  if (depth >= config_.max_depth || n < 2) return make_leaf();

  const double parent_score = g_sum * g_sum / (h_sum + kLambda);
  double best_gain = kGamma + 1e-12;
  std::int64_t best_feature = -1;
  float best_threshold = 0.0F;

  std::vector<std::pair<float, std::size_t>> vals(n);  // (value, row)
  for (std::int64_t f : features) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = rows[begin + i];
      vals[i] = {x[static_cast<std::int64_t>(r) * dim_ + f], r};
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;

    double gl = 0.0, hl = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      gl += grad[vals[i].second];
      hl += hess[vals[i].second];
      if (vals[i].first == vals[i + 1].first) continue;
      const double gr = g_sum - gl;
      const double hr = h_sum - hl;
      if (hl < kMinChildWeight || hr < kMinChildWeight) continue;
      const double gain = 0.5 * (gl * gl / (hl + kLambda) +
                                 gr * gr / (hr + kLambda) - parent_score);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5F * (vals[i].first + vals[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t r) {
        return x[static_cast<std::int64_t>(r) * dim_ + best_feature] <=
               best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == begin || mid == end) return make_leaf();

  const auto me = static_cast<std::int32_t>(tree.nodes.size());
  tree.nodes.emplace_back();
  tree.nodes[static_cast<std::size_t>(me)].feature =
      static_cast<std::int32_t>(best_feature);
  tree.nodes[static_cast<std::size_t>(me)].threshold = best_threshold;
  const std::int32_t left =
      build(tree, x, grad, hess, rows, begin, mid, features, depth + 1);
  const std::int32_t right =
      build(tree, x, grad, hess, rows, mid, end, features, depth + 1);
  tree.nodes[static_cast<std::size_t>(me)].left = left;
  tree.nodes[static_cast<std::size_t>(me)].right = right;
  return me;
}

GradientBoostedTrees::RegTree GradientBoostedTrees::fit_tree(
    const Tensor& x, std::span<const double> grad,
    std::span<const double> hess, std::span<const std::size_t> rows,
    std::span<const std::int64_t> features, Rng& /*rng*/) const {
  RegTree tree;
  std::vector<std::size_t> work(rows.begin(), rows.end());
  build(tree, x, grad, hess, work, 0, work.size(), features, 0);
  return tree;
}

void GradientBoostedTrees::fit(const data::TabularDataset& train) {
  MDL_CHECK(train.size() > 1, "GBDT needs >= 2 samples");
  classes_ = train.num_classes;
  dim_ = train.dim();
  const auto n = static_cast<std::size_t>(train.size());
  const Tensor& x = train.features;
  Rng rng(config_.seed);

  trees_.clear();
  trees_.reserve(static_cast<std::size_t>(config_.rounds * classes_));

  // Running margins F[i * classes_ + c].
  std::vector<double> margins(n * static_cast<std::size_t>(classes_), 0.0);
  std::vector<double> probs(static_cast<std::size_t>(classes_));
  std::vector<double> grad(n), hess(n);

  for (std::int64_t round = 0; round < config_.rounds; ++round) {
    // Row subsample for this round.
    std::vector<std::size_t> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (config_.subsample >= 1.0 || rng.bernoulli(config_.subsample))
        rows.push_back(i);
    if (rows.empty()) rows.push_back(static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(n))));

    for (std::int64_t c = 0; c < classes_; ++c) {
      // Column subsample per tree.
      std::vector<std::int64_t> feats(static_cast<std::size_t>(dim_));
      std::iota(feats.begin(), feats.end(), std::int64_t{0});
      rng.shuffle(feats);
      feats.resize(std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::llround(kColsample * static_cast<double>(dim_)))));

      // Softmax gradients/hessians for class c.
      for (const std::size_t i : rows) {
        const double* m = margins.data() + i * static_cast<std::size_t>(classes_);
        double mx = m[0];
        for (std::int64_t k = 1; k < classes_; ++k) mx = std::max(mx, m[k]);
        double sum = 0.0;
        for (std::int64_t k = 0; k < classes_; ++k) {
          probs[static_cast<std::size_t>(k)] = std::exp(m[k] - mx);
          sum += probs[static_cast<std::size_t>(k)];
        }
        const double p = probs[static_cast<std::size_t>(c)] / sum;
        const double y = train.labels[i] == c ? 1.0 : 0.0;
        grad[i] = p - y;
        hess[i] = std::max(p * (1.0 - p), 1e-6);
      }

      RegTree tree = fit_tree(x, grad, hess, rows, feats, rng);

      // Update margins for ALL rows (subsampled rows trained the tree, but
      // the ensemble prediction includes every example).
      for (std::size_t i = 0; i < n; ++i)
        margins[i * static_cast<std::size_t>(classes_) +
                static_cast<std::size_t>(c)] +=
            tree.predict({x.data() + static_cast<std::int64_t>(i) * dim_,
                          static_cast<std::size_t>(dim_)});
      trees_.push_back(std::move(tree));
    }
  }
}

Tensor GradientBoostedTrees::decision_function(const Tensor& features) const {
  MDL_CHECK(!trees_.empty(), "predict before fit");
  MDL_CHECK(features.ndim() == 2 && features.shape(1) == dim_,
            "feature shape mismatch");
  const std::int64_t n = features.shape(0);
  Tensor margins({n, classes_});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::span<const float> row{features.data() + i * dim_,
                                     static_cast<std::size_t>(dim_)};
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      const auto c = static_cast<std::int64_t>(t) %
                     classes_;  // trees are round-major
      margins[i * classes_ + c] += trees_[t].predict(row);
    }
  }
  return margins;
}

std::vector<std::int64_t> GradientBoostedTrees::predict(
    const Tensor& features) const {
  return decision_function(features).argmax_rows();
}

}  // namespace mdl::ml
