#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "data/dataset.hpp"
#include "data/synthetic.hpp"

namespace mdl::data {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig c;
  c.num_samples = 200;
  c.num_features = 10;
  c.num_classes = 4;
  c.class_sep = 3.0;
  return c;
}

TEST(Synthetic, ShapesAndLabelRange) {
  Rng rng(1);
  const TabularDataset ds = make_classification(small_config(), rng);
  EXPECT_EQ(ds.size(), 200);
  EXPECT_EQ(ds.dim(), 10);
  EXPECT_EQ(ds.num_classes, 4);
  for (const auto y : ds.labels) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 4);
  }
}

TEST(Synthetic, BalancedClasses) {
  Rng rng(2);
  const TabularDataset ds = make_classification(small_config(), rng);
  std::vector<int> counts(4, 0);
  for (const auto y : ds.labels) ++counts[static_cast<std::size_t>(y)];
  for (const int c : counts) EXPECT_EQ(c, 50);
}

TEST(Synthetic, SeparationControlsDifficulty) {
  // Nearest-centroid accuracy should be near-perfect at high separation and
  // near-chance at zero separation.
  auto nearest_centroid_acc = [](double sep, std::uint64_t seed) {
    Rng rng(seed);
    SyntheticConfig c = small_config();
    c.class_sep = sep;
    c.num_samples = 400;
    const TabularDataset ds = make_classification(c, rng);
    // Estimate centroids from the data itself.
    Tensor centroids({c.num_classes, c.num_features});
    std::vector<int> counts(static_cast<std::size_t>(c.num_classes), 0);
    for (std::int64_t i = 0; i < ds.size(); ++i) {
      const auto y = ds.labels[static_cast<std::size_t>(i)];
      ++counts[static_cast<std::size_t>(y)];
      for (std::int64_t j = 0; j < c.num_features; ++j)
        centroids[y * c.num_features + j] += ds.features[i * c.num_features + j];
    }
    for (std::int64_t k = 0; k < c.num_classes; ++k)
      for (std::int64_t j = 0; j < c.num_features; ++j)
        centroids[k * c.num_features + j] /=
            static_cast<float>(counts[static_cast<std::size_t>(k)]);
    int correct = 0;
    for (std::int64_t i = 0; i < ds.size(); ++i) {
      double best = 1e30;
      std::int64_t arg = -1;
      for (std::int64_t k = 0; k < c.num_classes; ++k) {
        double d2 = 0.0;
        for (std::int64_t j = 0; j < c.num_features; ++j) {
          const double d = ds.features[i * c.num_features + j] -
                           centroids[k * c.num_features + j];
          d2 += d * d;
        }
        if (d2 < best) {
          best = d2;
          arg = k;
        }
      }
      if (arg == ds.labels[static_cast<std::size_t>(i)]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(ds.size());
  };
  EXPECT_GT(nearest_centroid_acc(5.0, 3), 0.95);
  EXPECT_LT(nearest_centroid_acc(0.0, 4), 0.5);
}

TEST(Synthetic, LabelNoiseRelabels) {
  Rng rng(5);
  SyntheticConfig c = small_config();
  c.label_noise = 0.5;
  c.class_sep = 10.0;
  const TabularDataset noisy = make_classification(c, rng);
  // With huge separation and 50% noise, labels disagree with position-based
  // class (i % classes) roughly 0.5 * (1 - 1/k) of the time.
  int disagree = 0;
  for (std::int64_t i = 0; i < noisy.size(); ++i)
    if (noisy.labels[static_cast<std::size_t>(i)] != i % 4) ++disagree;
  EXPECT_GT(disagree, 40);
  EXPECT_THROW(
      [&] {
        SyntheticConfig bad = small_config();
        bad.label_noise = 1.0;
        Rng r(1);
        make_classification(bad, r);
      }(),
      Error);
}

TEST(Subset, PreservesRowsAndLabels) {
  Rng rng(6);
  const TabularDataset ds = make_classification(small_config(), rng);
  const std::vector<std::size_t> idx{5, 0, 19};
  const TabularDataset sub = ds.subset(idx);
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.labels[0], ds.labels[5]);
  EXPECT_TRUE(allclose(sub.features.slice_rows(1, 2),
                       ds.features.slice_rows(0, 1), 0.0F));
  const std::vector<std::size_t> bad{1000};
  EXPECT_THROW(ds.subset(bad), Error);
}

TEST(Split, TrainTestDisjointAndComplete) {
  Rng rng(7);
  const TabularDataset ds = make_classification(small_config(), rng);
  const TabularSplit split = train_test_split(ds, 0.25, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  EXPECT_EQ(split.test.size(), 50);
  EXPECT_THROW(train_test_split(ds, 0.0, rng), Error);
  EXPECT_THROW(train_test_split(ds, 1.0, rng), Error);
}

TEST(Split, StratifiedKeepsProportions) {
  Rng rng(8);
  const TabularDataset ds = make_classification(small_config(), rng);
  const TabularSplit split = stratified_split(ds, 0.2, rng);
  std::vector<int> test_counts(4, 0);
  for (const auto y : split.test.labels)
    ++test_counts[static_cast<std::size_t>(y)];
  for (const int c : test_counts) EXPECT_EQ(c, 10);  // 20% of 50 per class
}

TEST(Partition, IidShardsCoverDataset) {
  Rng rng(9);
  const TabularDataset ds = make_classification(small_config(), rng);
  const auto shards = partition_iid(ds, 4, rng);
  ASSERT_EQ(shards.size(), 4U);
  std::int64_t total = 0;
  for (const auto& s : shards) total += s.size();
  EXPECT_EQ(total, ds.size());
  for (const auto& s : shards) EXPECT_EQ(s.size(), 50);
}

TEST(Partition, DirichletProducesSkew) {
  Rng rng(10);
  SyntheticConfig c = small_config();
  c.num_samples = 1000;
  const TabularDataset ds = make_classification(c, rng);
  const auto skewed = partition_dirichlet(ds, 5, 0.1, rng);
  const auto uniform = partition_dirichlet(ds, 5, 100.0, rng);

  auto max_class_fraction = [](const TabularDataset& shard) {
    std::vector<double> counts(static_cast<std::size_t>(shard.num_classes), 0);
    for (const auto y : shard.labels) counts[static_cast<std::size_t>(y)] += 1;
    double mx = 0.0;
    for (const double v : counts)
      mx = std::max(mx, v / static_cast<double>(shard.size()));
    return mx;
  };
  double skew_avg = 0.0, uni_avg = 0.0;
  for (const auto& s : skewed) skew_avg += max_class_fraction(s);
  for (const auto& s : uniform) uni_avg += max_class_fraction(s);
  skew_avg /= 5.0;
  uni_avg /= 5.0;
  EXPECT_GT(skew_avg, uni_avg + 0.15);

  std::int64_t total = 0;
  for (const auto& s : skewed) {
    EXPECT_GT(s.size(), 0);
    total += s.size();
  }
  EXPECT_EQ(total, ds.size());
}

TEST(Batching, MinibatchesCoverEveryIndexOnce) {
  Rng rng(11);
  const auto batches = minibatch_indices(25, 8, rng);
  EXPECT_EQ(batches.size(), 4U);
  EXPECT_EQ(batches.back().size(), 1U);
  std::set<std::size_t> seen;
  for (const auto& b : batches) seen.insert(b.begin(), b.end());
  EXPECT_EQ(seen.size(), 25U);
  EXPECT_THROW(minibatch_indices(10, 0, rng), Error);
}

TEST(Scaler, StandardizesColumns) {
  Tensor x({4, 2}, {0, 10, 2, 20, 4, 30, 6, 40});
  StandardScaler scaler;
  EXPECT_FALSE(scaler.fitted());
  scaler.fit(x);
  const Tensor z = scaler.transform(x);
  for (std::int64_t j = 0; j < 2; ++j) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t i = 0; i < 4; ++i) mean += z.at(i, j);
    mean /= 4.0;
    for (std::int64_t i = 0; i < 4; ++i) {
      const double d = z.at(i, j) - mean;
      var += d * d;
    }
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var / 4.0, 1.0, 1e-4);
  }
}

TEST(Scaler, ConstantColumnSafe) {
  Tensor x({3, 1}, {5, 5, 5});
  StandardScaler scaler;
  scaler.fit(x);
  const Tensor z = scaler.transform(x);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FALSE(std::isnan(z[i]));
  EXPECT_THROW(StandardScaler().transform(x), Error);
}

TEST(MultiView, BatchLayoutIsTimeMajor) {
  MultiViewDataset ds;
  ds.view_dims = {2};
  ds.seq_lens = {3};
  ds.num_classes = 2;
  for (int e = 0; e < 2; ++e) {
    MultiViewExample ex;
    Tensor v({3, 2});
    for (std::int64_t t = 0; t < 3; ++t)
      for (std::int64_t f = 0; f < 2; ++f)
        v[t * 2 + f] = static_cast<float>(100 * e + 10 * t + f);
    ex.views.push_back(std::move(v));
    ex.label = e;
    ds.examples.push_back(std::move(ex));
  }
  ds.check_consistent();
  const std::vector<std::size_t> idx{0, 1};
  const MultiViewBatch batch = make_batch(ds, idx);
  ASSERT_EQ(batch.views.size(), 1U);
  const Tensor& v = batch.views[0];
  EXPECT_EQ(v.shape(0), 3);  // T
  EXPECT_EQ(v.shape(1), 2);  // B
  EXPECT_EQ(v.shape(2), 2);  // F
  EXPECT_EQ(v.at(1, 0, 1), 11.0F);   // example 0, t=1, f=1
  EXPECT_EQ(v.at(2, 1, 0), 120.0F);  // example 1, t=2, f=0
  EXPECT_EQ(batch.labels[1], 1);
}

TEST(MultiView, ConsistencyCheckCatchesBadShapes) {
  MultiViewDataset ds;
  ds.view_dims = {2};
  ds.seq_lens = {3};
  ds.num_classes = 2;
  MultiViewExample ex;
  ex.views.push_back(Tensor({3, 1}));  // wrong dim
  ex.label = 0;
  ds.examples.push_back(ex);
  EXPECT_THROW(ds.check_consistent(), Error);
  ds.examples[0].views[0] = Tensor({3, 2});
  ds.examples[0].label = 5;  // out of range
  EXPECT_THROW(ds.check_consistent(), Error);
}

TEST(MultiViewScaler, StandardizesPerViewFeature) {
  MultiViewDataset ds;
  ds.view_dims = {2};
  ds.seq_lens = {4};
  ds.num_classes = 2;
  Rng rng(20);
  for (int e = 0; e < 30; ++e) {
    MultiViewExample ex;
    Tensor v({4, 2});
    for (std::int64_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>(rng.normal(5.0, 3.0));
    ex.views.push_back(std::move(v));
    ex.label = e % 2;
    ds.examples.push_back(std::move(ex));
  }
  MultiViewScaler scaler;
  EXPECT_FALSE(scaler.fitted());
  scaler.fit(ds);
  scaler.apply(ds);
  // Pooled per-feature statistics should now be ~N(0, 1).
  for (std::int64_t f = 0; f < 2; ++f) {
    double sum = 0.0, sq = 0.0, n = 0.0;
    for (const auto& ex : ds.examples)
      for (std::int64_t t = 0; t < 4; ++t) {
        const double x = ex.views[0][t * 2 + f];
        sum += x;
        sq += x * x;
        n += 1.0;
      }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-3);
  }
}

TEST(MultiViewScaler, ApplyBeforeFitThrows) {
  MultiViewDataset ds;
  ds.view_dims = {1};
  ds.seq_lens = {1};
  ds.num_classes = 2;
  MultiViewScaler scaler;
  EXPECT_THROW(scaler.apply(ds), Error);
}

TEST(MultiView, SplitPreservesMetadata) {
  MultiViewDataset ds;
  ds.view_dims = {1};
  ds.seq_lens = {2};
  ds.num_classes = 2;
  for (int e = 0; e < 10; ++e) {
    MultiViewExample ex;
    ex.views.push_back(Tensor({2, 1}));
    ex.label = e % 2;
    ex.group = e;
    ds.examples.push_back(ex);
  }
  Rng rng(12);
  const MultiViewSplit split = train_test_split(ds, 0.3, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), 10);
  EXPECT_EQ(split.test.view_dims, ds.view_dims);
  EXPECT_EQ(split.train.num_classes, 2);
}

}  // namespace
}  // namespace mdl::data
