// Dataset containers and batching utilities.
//
// Two dataset shapes cover everything in the paper:
//   - TabularDataset: [N, D] features + integer labels, consumed by the
//     classical baselines (LR/SVM/trees) and the federated experiments;
//   - MultiViewDataset: per-example multi-view fixed-length time series,
//     consumed by DeepMood / DEEPSERVICE (alphanumeric, special-character,
//     and accelerometer views of one phone-usage session).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/random.hpp"
#include "core/tensor.hpp"

namespace mdl::data {

/// Dense features with integer class labels.
struct TabularDataset {
  Tensor features;                    ///< [N, D]
  std::vector<std::int64_t> labels;   ///< length N
  std::int64_t num_classes = 0;

  std::int64_t size() const { return features.empty() ? 0 : features.shape(0); }
  std::int64_t dim() const { return features.empty() ? 0 : features.shape(1); }

  /// Subset by row indices (copies).
  TabularDataset subset(std::span<const std::size_t> indices) const;
};

/// Random train/test split of a tabular dataset.
struct TabularSplit {
  TabularDataset train;
  TabularDataset test;
};
TabularSplit train_test_split(const TabularDataset& ds, double test_fraction,
                              Rng& rng);

/// Class-stratified train/test split (keeps label proportions in both
/// halves) — used where per-class test counts matter (Table I).
TabularSplit stratified_split(const TabularDataset& ds, double test_fraction,
                              Rng& rng);

/// One multi-view session: view p is a [T_p, dim_p] time series.
struct MultiViewExample {
  std::vector<Tensor> views;
  std::int64_t label = 0;
  std::int64_t group = 0;  ///< owning participant/user (Fig. 5 grouping)
};

/// A set of multi-view sessions with homogeneous per-view shapes.
struct MultiViewDataset {
  std::vector<MultiViewExample> examples;
  std::vector<std::int64_t> view_dims;  ///< dim_p per view
  std::vector<std::int64_t> seq_lens;   ///< T_p per view
  std::int64_t num_classes = 0;

  std::int64_t size() const { return static_cast<std::int64_t>(examples.size()); }
  std::int64_t num_views() const { return static_cast<std::int64_t>(view_dims.size()); }

  MultiViewDataset subset(std::span<const std::size_t> indices) const;
  /// Validates every example against view_dims/seq_lens; throws on mismatch.
  void check_consistent() const;
};

/// Random train/test split of a multi-view dataset.
struct MultiViewSplit {
  MultiViewDataset train;
  MultiViewDataset test;
};
MultiViewSplit train_test_split(const MultiViewDataset& ds,
                                double test_fraction, Rng& rng);

/// A batch assembled for the multi-view models: per-view [T_p, B, dim_p]
/// sequence tensors plus labels.
struct MultiViewBatch {
  std::vector<Tensor> views;
  std::vector<std::int64_t> labels;
  std::int64_t batch_size() const { return static_cast<std::int64_t>(labels.size()); }
};

/// Gathers the examples at `indices` into time-major batch tensors.
MultiViewBatch make_batch(const MultiViewDataset& ds,
                          std::span<const std::size_t> indices);

/// Copies one [T, dim] sequence into column `bi` of a time-major
/// [T, B, dim] batch tensor (the layout the recurrent encoders consume).
void put_time_major(const Tensor& sequence, std::int64_t bi, Tensor& batch);

/// Yields shuffled minibatch index lists covering [0, n).
std::vector<std::vector<std::size_t>> minibatch_indices(std::size_t n,
                                                        std::size_t batch_size,
                                                        Rng& rng);

/// Standardizes multi-view sequence data per (view, feature) over all
/// time steps of the training examples. Zero-padded steps are included in
/// the statistics (they are part of what the model sees); the recurrent
/// encoders train far better on unit-scale inputs.
class MultiViewScaler {
 public:
  void fit(const MultiViewDataset& ds);
  /// Standardizes every example of `ds` in place.
  void apply(MultiViewDataset& ds) const;
  bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<std::vector<float>> mean_;  ///< [view][feature]
  std::vector<std::vector<float>> std_;
};

/// Per-feature standardization (zero mean, unit variance) fit on training
/// data and applied to both splits — required by the margin-based baselines.
class StandardScaler {
 public:
  /// Learns per-column mean/std from [N, D] features.
  void fit(const Tensor& features);
  /// Applies (x - mean) / std column-wise; std floors at 1e-8.
  Tensor transform(const Tensor& features) const;
  bool fitted() const { return !mean_.empty(); }

 private:
  Tensor mean_;
  Tensor std_;
};

}  // namespace mdl::data
