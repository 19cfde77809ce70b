#include "federated/common.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace mdl::federated {

namespace {
// v2 appended `rolled_back`; older records are refused.
constexpr std::uint32_t kRoundStatsVersion = 2;
}

void serialize_round_stats(BinaryWriter& w, const RoundStats& s) {
  w.write_u32(kRoundStatsVersion);
  w.write_i64(s.round);
  w.write_f64(s.test_accuracy);
  w.write_f64(s.train_loss);
  w.write_u64(s.cumulative_bytes);
  w.write_i64(s.clients_selected);
  w.write_i64(s.clients_delivered);
  w.write_i64(s.dropouts);
  w.write_i64(s.deadline_misses);
  w.write_i64(s.retries);
  w.write_u64(s.bytes_wasted);
  w.write_u8(s.aborted ? 1 : 0);
  w.write_f64(s.sim_latency_s);
  w.write_f64(s.sim_energy_j);
  w.write_u8(s.rolled_back ? 1 : 0);
}

RoundStats deserialize_round_stats(BinaryReader& r) {
  const std::uint32_t version = r.read_u32();
  MDL_CHECK(version == kRoundStatsVersion,
            "unsupported RoundStats version " << version);
  RoundStats s;
  s.round = r.read_i64();
  s.test_accuracy = r.read_f64();
  s.train_loss = r.read_f64();
  s.cumulative_bytes = r.read_u64();
  s.clients_selected = r.read_i64();
  s.clients_delivered = r.read_i64();
  s.dropouts = r.read_i64();
  s.deadline_misses = r.read_i64();
  s.retries = r.read_i64();
  s.bytes_wasted = r.read_u64();
  s.aborted = r.read_u8() != 0;
  s.sim_latency_s = r.read_f64();
  s.sim_energy_j = r.read_f64();
  s.rolled_back = r.read_u8() != 0;
  return s;
}

ModelFactory mlp_factory(std::int64_t in_features, std::int64_t hidden,
                         std::int64_t classes) {
  MDL_CHECK(in_features > 0 && hidden > 0 && classes > 1,
            "invalid MLP factory dims");
  return [=](Rng& rng) {
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Linear>(in_features, hidden, rng);
    model->emplace<nn::ReLU>();
    model->emplace<nn::Linear>(hidden, classes, rng);
    return model;
  };
}

double local_sgd(nn::Sequential& model, const data::TabularDataset& shard,
                 std::int64_t epochs, std::int64_t batch_size, double lr,
                 Rng& rng) {
  MDL_CHECK(shard.size() > 0, "empty shard");
  MDL_CHECK(epochs > 0 && batch_size > 0 && lr > 0.0, "invalid SGD config");
  model.set_training(true);
  nn::SGD optimizer(model.parameters(), lr);
  nn::SoftmaxCrossEntropy loss;
  double last_epoch_loss = 0.0;
  for (std::int64_t e = 0; e < epochs; ++e) {
    const auto batches =
        data::minibatch_indices(static_cast<std::size_t>(shard.size()),
                                static_cast<std::size_t>(batch_size), rng);
    double sum = 0.0;
    for (const auto& batch : batches) {
      const data::TabularDataset b = shard.subset(batch);
      sum += loss.forward(model.forward(b.features), b.labels);
      model.zero_grad();
      model.backward(loss.backward());
      optimizer.step();
    }
    last_epoch_loss = sum / static_cast<double>(batches.size());
  }
  return last_epoch_loss;
}

double full_batch_gradient(nn::Sequential& model,
                           const data::TabularDataset& shard) {
  MDL_CHECK(shard.size() > 0, "empty shard");
  model.set_training(true);
  nn::SoftmaxCrossEntropy loss;
  const Tensor logits = model.forward(shard.features);
  const double l = loss.forward(logits, shard.labels);
  model.zero_grad();
  model.backward(loss.backward());
  return l;
}

double evaluate_accuracy(nn::Sequential& model,
                         const data::TabularDataset& ds) {
  MDL_CHECK(ds.size() > 0, "empty evaluation set");
  model.set_training(false);
  const Tensor logits = model.forward(ds.features);
  model.set_training(true);
  return nn::accuracy(ds.labels, logits.argmax_rows());
}

std::vector<std::size_t> sample_cohort(Rng& rng, std::size_t n,
                                       std::size_t k) {
  MDL_CHECK(k <= n, "cannot sample " << k << " distinct clients from " << n);
  // Sparse replay of Rng::sample_without_replacement's partial Fisher-Yates:
  // the dense version walks `idx = iota(n)` doing `swap(idx[i], idx[j])`;
  // here the permutation vector is virtual — `perm` records only displaced
  // entries (at most 2k of them), and reads fall back to the identity. Same
  // draws consumed, same cohort returned, O(k) memory.
  std::unordered_map<std::size_t, std::size_t> perm;
  perm.reserve(2 * k);
  const auto at = [&perm](std::size_t i) {
    const auto it = perm.find(i);
    return it == perm.end() ? i : it->second;
  };
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j =
        static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(n - i))) +
        i;
    const std::size_t vi = at(i);
    const std::size_t vj = at(j);
    out.push_back(vj);
    perm[j] = vi;
    perm[i] = vj;
  }
  return out;
}

std::vector<std::size_t> sample_bernoulli_cohort(Rng& rng, std::size_t n,
                                                 double p) {
  MDL_CHECK(p >= 0.0, "negative sampling probability " << p);
  std::vector<std::size_t> out;
  if (n == 0 || p <= 0.0) return out;
  if (p >= 1.0) {  // log1p(-1) is -inf; everyone is selected
    out.resize(n);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
  }
  // Geometric gap skipping: the index gap to the next success is
  // floor(log(U) / log(1-p)) with U ~ Uniform(0,1], so a round costs
  // O(n*p) draws instead of n Bernoulli trials — same joint distribution.
  const double denom = std::log1p(-p);
  std::size_t i = 0;
  while (true) {
    const double u = 1.0 - rng.uniform();  // in (0, 1]
    const double gap = std::floor(std::log(u) / denom);
    // Guard the cast: gap can exceed the remaining range (or any size_t).
    if (!(gap < static_cast<double>(n - i))) break;
    i += static_cast<std::size_t>(gap);
    out.push_back(i);
    if (++i >= n) break;
  }
  return out;
}

std::vector<ChunkRange> chunk_ranges(std::size_t n, std::size_t max_chunks) {
  std::vector<ChunkRange> chunks;
  if (n == 0) return chunks;
  MDL_CHECK(max_chunks > 0, "need at least one aggregation shard");
  const std::size_t count = std::min(n, max_chunks);
  const std::size_t base = n / count;
  const std::size_t extra = n % count;
  chunks.reserve(count);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    chunks.push_back({begin, begin + len});
    begin += len;
  }
  return chunks;
}

}  // namespace mdl::federated
