#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mdl::data {

TabularDataset TabularDataset::subset(
    std::span<const std::size_t> indices) const {
  TabularDataset out;
  out.num_classes = num_classes;
  out.features = features.gather_rows(indices);
  out.labels.reserve(indices.size());
  for (const std::size_t i : indices) out.labels.push_back(labels[i]);
  return out;
}

TabularSplit train_test_split(const TabularDataset& ds, double test_fraction,
                              Rng& rng) {
  MDL_CHECK(test_fraction > 0.0 && test_fraction < 1.0,
            "test fraction must be in (0, 1)");
  const auto n = static_cast<std::size_t>(ds.size());
  auto perm = rng.permutation(n);
  const auto n_test = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(test_fraction * static_cast<double>(n))));
  MDL_CHECK(n_test < n, "split leaves no training data");
  const std::span<const std::size_t> all(perm);
  return {ds.subset(all.subspan(n_test)), ds.subset(all.first(n_test))};
}

TabularSplit stratified_split(const TabularDataset& ds, double test_fraction,
                              Rng& rng) {
  MDL_CHECK(test_fraction > 0.0 && test_fraction < 1.0,
            "test fraction must be in (0, 1)");
  std::vector<std::vector<std::size_t>> by_class(
      static_cast<std::size_t>(ds.num_classes));
  for (std::size_t i = 0; i < ds.labels.size(); ++i)
    by_class[static_cast<std::size_t>(ds.labels[i])].push_back(i);

  std::vector<std::size_t> train_idx, test_idx;
  for (auto& cls : by_class) {
    rng.shuffle(cls);
    const auto n_test = static_cast<std::size_t>(
        std::llround(test_fraction * static_cast<double>(cls.size())));
    for (std::size_t i = 0; i < cls.size(); ++i)
      (i < n_test ? test_idx : train_idx).push_back(cls[i]);
  }
  rng.shuffle(train_idx);
  rng.shuffle(test_idx);
  MDL_CHECK(!train_idx.empty() && !test_idx.empty(),
            "stratified split produced an empty half");
  return {ds.subset(train_idx), ds.subset(test_idx)};
}

MultiViewDataset MultiViewDataset::subset(
    std::span<const std::size_t> indices) const {
  MultiViewDataset out;
  out.view_dims = view_dims;
  out.seq_lens = seq_lens;
  out.num_classes = num_classes;
  out.examples.reserve(indices.size());
  for (std::size_t i : indices) {
    MDL_CHECK(i < examples.size(), "subset index " << i << " out of range");
    out.examples.push_back(examples[i]);
  }
  return out;
}

void MultiViewDataset::check_consistent() const {
  MDL_CHECK(view_dims.size() == seq_lens.size(),
            "view_dims/seq_lens length mismatch");
  for (const auto& ex : examples) {
    MDL_CHECK(ex.views.size() == view_dims.size(),
              "example has " << ex.views.size() << " views, dataset declares "
                             << view_dims.size());
    MDL_CHECK(ex.label >= 0 && ex.label < num_classes,
              "label " << ex.label << " out of range");
    for (std::size_t p = 0; p < ex.views.size(); ++p) {
      MDL_CHECK(ex.views[p].ndim() == 2 &&
                    ex.views[p].shape(0) == seq_lens[p] &&
                    ex.views[p].shape(1) == view_dims[p],
                "view " << p << " shape " << ex.views[p].shape_str());
    }
  }
}

MultiViewSplit train_test_split(const MultiViewDataset& ds,
                                double test_fraction, Rng& rng) {
  MDL_CHECK(test_fraction > 0.0 && test_fraction < 1.0,
            "test fraction must be in (0, 1)");
  const auto n = ds.examples.size();
  auto perm = rng.permutation(n);
  const auto n_test = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(test_fraction * static_cast<double>(n))));
  MDL_CHECK(n_test < n, "split leaves no training data");
  const std::span<const std::size_t> all(perm);
  return {ds.subset(all.subspan(n_test)), ds.subset(all.first(n_test))};
}

MultiViewBatch make_batch(const MultiViewDataset& ds,
                          std::span<const std::size_t> indices) {
  MDL_CHECK(!indices.empty(), "empty batch");
  MultiViewBatch batch;
  const auto b = static_cast<std::int64_t>(indices.size());
  batch.views.reserve(ds.view_dims.size());
  for (std::size_t p = 0; p < ds.view_dims.size(); ++p)
    batch.views.emplace_back(
        std::vector<std::int64_t>{ds.seq_lens[p], b, ds.view_dims[p]});
  batch.labels.reserve(indices.size());

  for (std::size_t bi = 0; bi < indices.size(); ++bi) {
    MDL_CHECK(indices[bi] < ds.examples.size(),
              "batch index " << indices[bi] << " out of range");
    const MultiViewExample& ex = ds.examples[indices[bi]];
    batch.labels.push_back(ex.label);
    for (std::size_t p = 0; p < ex.views.size(); ++p)
      put_time_major(ex.views[p], static_cast<std::int64_t>(bi),
                     batch.views[p]);
  }
  return batch;
}

void put_time_major(const Tensor& sequence, std::int64_t bi, Tensor& batch) {
  const std::int64_t t_len = batch.shape(0);
  const std::int64_t b = batch.shape(1);
  const std::int64_t dim = batch.shape(2);
  MDL_CHECK(bi >= 0 && bi < b && sequence.size() == t_len * dim,
            "sequence does not fit column " << bi << " of the batch");
  for (std::int64_t t = 0; t < t_len; ++t)
    std::copy_n(sequence.data() + t * dim, dim,
                batch.data() + (t * b + bi) * dim);
}

std::vector<std::vector<std::size_t>> minibatch_indices(std::size_t n,
                                                        std::size_t batch_size,
                                                        Rng& rng) {
  MDL_CHECK(batch_size > 0, "batch size must be positive");
  auto perm = rng.permutation(n);
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(n, start + batch_size);
    out.emplace_back(perm.begin() + static_cast<std::ptrdiff_t>(start),
                     perm.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

void MultiViewScaler::fit(const MultiViewDataset& ds) {
  MDL_CHECK(ds.size() > 0, "cannot fit scaler on empty dataset");
  const std::size_t views = ds.view_dims.size();
  mean_.assign(views, {});
  std_.assign(views, {});
  for (std::size_t p = 0; p < views; ++p) {
    const auto dim = static_cast<std::size_t>(ds.view_dims[p]);
    std::vector<double> sum(dim, 0.0), sq(dim, 0.0);
    double count = 0.0;
    for (const MultiViewExample& ex : ds.examples) {
      const Tensor& v = ex.views[p];
      for (std::int64_t t = 0; t < v.shape(0); ++t)
        for (std::size_t f = 0; f < dim; ++f) {
          const double x = v[t * static_cast<std::int64_t>(dim) +
                             static_cast<std::int64_t>(f)];
          sum[f] += x;
          sq[f] += x * x;
        }
      count += static_cast<double>(v.shape(0));
    }
    mean_[p].resize(dim);
    std_[p].resize(dim);
    for (std::size_t f = 0; f < dim; ++f) {
      const double mu = sum[f] / count;
      const double var = std::max(sq[f] / count - mu * mu, 1e-12);
      mean_[p][f] = static_cast<float>(mu);
      std_[p][f] = static_cast<float>(std::sqrt(var));
    }
  }
}

void MultiViewScaler::apply(MultiViewDataset& ds) const {
  MDL_CHECK(fitted(), "apply before fit");
  MDL_CHECK(ds.view_dims.size() == mean_.size(), "view count mismatch");
  for (MultiViewExample& ex : ds.examples) {
    for (std::size_t p = 0; p < mean_.size(); ++p) {
      Tensor& v = ex.views[p];
      const auto dim = static_cast<std::int64_t>(mean_[p].size());
      MDL_CHECK(v.shape(1) == dim, "feature width mismatch in view " << p);
      for (std::int64_t t = 0; t < v.shape(0); ++t)
        for (std::int64_t f = 0; f < dim; ++f) {
          float& x = v[t * dim + f];
          x = (x - mean_[p][static_cast<std::size_t>(f)]) /
              std_[p][static_cast<std::size_t>(f)];
        }
    }
  }
}

void StandardScaler::fit(const Tensor& features) {
  MDL_CHECK(features.ndim() == 2 && features.shape(0) > 0,
            "scaler needs non-empty [N, D] features");
  const std::int64_t n = features.shape(0);
  const std::int64_t d = features.shape(1);
  mean_ = Tensor({d});
  std_ = Tensor({d});
  for (std::int64_t j = 0; j < d; ++j) {
    double s = 0.0;
    for (std::int64_t i = 0; i < n; ++i) s += features[i * d + j];
    const double mu = s / static_cast<double>(n);
    double sq = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double dlt = features[i * d + j] - mu;
      sq += dlt * dlt;
    }
    mean_[j] = static_cast<float>(mu);
    std_[j] = static_cast<float>(
        std::max(std::sqrt(sq / static_cast<double>(n)), 1e-8));
  }
}

Tensor StandardScaler::transform(const Tensor& features) const {
  MDL_CHECK(fitted(), "transform before fit");
  MDL_CHECK(features.ndim() == 2 && features.shape(1) == mean_.shape(0),
            "feature width mismatch");
  const std::int64_t n = features.shape(0);
  const std::int64_t d = features.shape(1);
  Tensor out = features;
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < d; ++j)
      out[i * d + j] = (out[i * d + j] - mean_[j]) / std_[j];
  return out;
}

}  // namespace mdl::data
