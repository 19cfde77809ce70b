#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mdl::ml {

constexpr std::size_t kMinSamplesSplit = 2;  ///< smaller nodes become leaves

DecisionTree::DecisionTree(TreeConfig config) : config_(config) {
  MDL_CHECK(config.max_depth >= 0, "max_depth must be >= 0");
  MDL_CHECK(config.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
}

void DecisionTree::fit(const data::TabularDataset& train) {
  std::vector<std::size_t> indices(static_cast<std::size_t>(train.size()));
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  fit_indices(train, indices);
}

void DecisionTree::fit_indices(const data::TabularDataset& train,
                               std::span<const std::size_t> indices) {
  MDL_CHECK(!indices.empty(), "cannot fit a tree on zero samples");
  MDL_CHECK(train.num_classes > 0, "dataset lacks num_classes");
  classes_ = train.num_classes;
  dim_ = train.dim();
  nodes_.clear();
  Rng rng(config_.seed);
  std::vector<std::size_t> work(indices.begin(), indices.end());
  build(train, work, 0, work.size(), 0, rng);
}

std::int32_t DecisionTree::make_leaf(const data::TabularDataset& train,
                                     std::span<const std::size_t> indices) {
  Node node;
  node.class_probs.assign(static_cast<std::size_t>(classes_), 0.0);
  for (std::size_t i : indices)
    node.class_probs[static_cast<std::size_t>(train.labels[i])] += 1.0;
  node.label = static_cast<std::int64_t>(
      std::max_element(node.class_probs.begin(), node.class_probs.end()) -
      node.class_probs.begin());
  for (double& p : node.class_probs) p /= static_cast<double>(indices.size());
  nodes_.push_back(std::move(node));
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

std::int32_t DecisionTree::build(const data::TabularDataset& train,
                                 std::vector<std::size_t>& indices,
                                 std::size_t begin, std::size_t end,
                                 std::int64_t depth, Rng& rng) {
  const std::size_t n = end - begin;
  const std::span<const std::size_t> here(indices.data() + begin, n);

  // Purity / stopping checks.
  bool pure = true;
  for (std::size_t i = 1; i < n; ++i)
    if (train.labels[here[i]] != train.labels[here[0]]) {
      pure = false;
      break;
    }
  if (pure || depth >= config_.max_depth || n < kMinSamplesSplit)
    return make_leaf(train, here);

  // Candidate features.
  std::vector<std::int64_t> feats(static_cast<std::size_t>(dim_));
  std::iota(feats.begin(), feats.end(), std::int64_t{0});
  if (config_.max_features > 0 &&
      config_.max_features < dim_) {
    rng.shuffle(feats);
    feats.resize(static_cast<std::size_t>(config_.max_features));
  }

  // Parent class counts for incremental Gini.
  std::vector<double> parent_counts(static_cast<std::size_t>(classes_), 0.0);
  for (std::size_t i : here)
    parent_counts[static_cast<std::size_t>(train.labels[i])] += 1.0;
  auto gini_from = [&](const std::vector<double>& counts, double total) {
    if (total <= 0.0) return 0.0;
    double sq = 0.0;
    for (double c : counts) sq += c * c;
    return 1.0 - sq / (total * total);
  };
  const double parent_gini = gini_from(parent_counts, static_cast<double>(n));

  double best_gain = 1e-12;
  std::int64_t best_feature = -1;
  float best_threshold = 0.0F;

  std::vector<std::pair<float, std::int64_t>> vals(n);  // (value, label)
  std::vector<double> left_counts(static_cast<std::size_t>(classes_));
  for (std::int64_t f : feats) {
    for (std::size_t i = 0; i < n; ++i)
      vals[i] = {train.features[static_cast<std::int64_t>(here[i]) * dim_ + f],
                 train.labels[here[i]]};
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_counts[static_cast<std::size_t>(vals[i].second)] += 1.0;
      if (vals[i].first == vals[i + 1].first) continue;
      const auto n_left = static_cast<double>(i + 1);
      const auto n_right = static_cast<double>(n - i - 1);
      if (n_left < static_cast<double>(config_.min_samples_leaf) ||
          n_right < static_cast<double>(config_.min_samples_leaf))
        continue;
      double left_g = gini_from(left_counts, n_left);
      // Right counts derive from parent - left.
      double right_sq = 0.0;
      for (std::size_t c = 0; c < left_counts.size(); ++c) {
        const double rc = parent_counts[c] - left_counts[c];
        right_sq += rc * rc;
      }
      const double right_g = 1.0 - right_sq / (n_right * n_right);
      const double gain = parent_gini - (n_left * left_g + n_right * right_g) /
                                            static_cast<double>(n);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        // Midpoint threshold generalizes better than the left value.
        best_threshold = 0.5F * (vals[i].first + vals[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return make_leaf(train, here);

  // Partition indices in place.
  auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) {
        return train.features[static_cast<std::int64_t>(i) * dim_ +
                              best_feature] <= best_threshold;
      });
  const auto mid =
      static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf(train, here);

  const std::int32_t me = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(me)].feature =
      static_cast<std::int32_t>(best_feature);
  nodes_[static_cast<std::size_t>(me)].threshold = best_threshold;
  const std::int32_t left = build(train, indices, begin, mid, depth + 1, rng);
  const std::int32_t right = build(train, indices, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(me)].left = left;
  nodes_[static_cast<std::size_t>(me)].right = right;
  return me;
}

std::int64_t DecisionTree::predict_one(std::span<const float> row) const {
  MDL_CHECK(!nodes_.empty(), "predict before fit");
  MDL_CHECK(static_cast<std::int64_t>(row.size()) == dim_,
            "feature width mismatch");
  std::int32_t cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].feature >= 0) {
    const Node& nd = nodes_[static_cast<std::size_t>(cur)];
    cur = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold
              ? nd.left
              : nd.right;
  }
  return nodes_[static_cast<std::size_t>(cur)].label;
}

std::vector<double> DecisionTree::predict_proba_one(
    std::span<const float> row) const {
  MDL_CHECK(!nodes_.empty(), "predict before fit");
  std::int32_t cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].feature >= 0) {
    const Node& nd = nodes_[static_cast<std::size_t>(cur)];
    cur = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold
              ? nd.left
              : nd.right;
  }
  return nodes_[static_cast<std::size_t>(cur)].class_probs;
}

std::vector<std::int64_t> DecisionTree::predict(const Tensor& features) const {
  MDL_CHECK(features.ndim() == 2 && features.shape(1) == dim_,
            "feature shape mismatch");
  std::vector<std::int64_t> out(static_cast<std::size_t>(features.shape(0)));
  for (std::int64_t i = 0; i < features.shape(0); ++i)
    out[static_cast<std::size_t>(i)] = predict_one(
        {features.data() + i * dim_, static_cast<std::size_t>(dim_)});
  return out;
}

std::int64_t DecisionTree::depth_below(std::int32_t node) const {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  if (nd.feature < 0) return 0;
  return 1 + std::max(depth_below(nd.left), depth_below(nd.right));
}

std::int64_t DecisionTree::depth() const {
  MDL_CHECK(!nodes_.empty(), "depth before fit");
  return depth_below(0);
}

}  // namespace mdl::ml
