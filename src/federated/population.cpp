#include "federated/population.hpp"

#include <cmath>

#include "core/error.hpp"
#include "core/random.hpp"

namespace mdl::federated {

namespace {

/// Keys independent streams off (population_seed, client, salt) triples.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return mix64(a + 0x9E3779B97F4A7C15ULL * (b + 0x632BE59BD9B4E019ULL));
}

constexpr std::uint64_t kCentroidSalt = 0x43454E54ULL;  // "CENT"
constexpr std::uint64_t kClientSalt = 0x434C4E54ULL;    // "CLNT"
constexpr std::uint64_t kTestSalt = 0x54455354ULL;      // "TEST"

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

// ------------------------------------------------------------------------
// MaterializedPopulation

MaterializedPopulation::MaterializedPopulation(
    std::vector<data::TabularDataset> shards)
    : shards_(std::move(shards)) {
  // Digest of the shard layout: enough to catch a resume against a
  // different partition (sizes or dims changed) without hashing the data.
  std::uint64_t fp = mix(0x6D617465ULL, shards_.size());
  for (const data::TabularDataset& s : shards_) {
    fp = mix(fp, static_cast<std::uint64_t>(s.size()));
    fp = mix(fp, static_cast<std::uint64_t>(s.dim()));
    fp = mix(fp, static_cast<std::uint64_t>(s.num_classes));
  }
  fingerprint_ = fp;
}

std::int64_t MaterializedPopulation::shard_size(std::size_t client) const {
  MDL_CHECK(client < shards_.size(), "client " << client << " out of range ("
                                               << shards_.size()
                                               << " shards)");
  return shards_[client].size();
}

const data::TabularDataset& MaterializedPopulation::shard(
    std::size_t client, data::TabularDataset& scratch) const {
  (void)scratch;  // stored shards are returned directly
  MDL_CHECK(client < shards_.size(), "client " << client << " out of range ("
                                               << shards_.size()
                                               << " shards)");
  return shards_[client];
}

// ------------------------------------------------------------------------
// VirtualPopulation

VirtualPopulation::VirtualPopulation(VirtualPopulationConfig config)
    : config_(config) {
  MDL_CHECK(config_.num_clients > 0, "need at least one client");
  MDL_CHECK(config_.num_features > 0 && config_.num_classes > 1,
            "invalid virtual population dims");
  MDL_CHECK(config_.min_examples >= 1 &&
                config_.max_examples >= config_.min_examples,
            "invalid per-client example range ["
                << config_.min_examples << ", " << config_.max_examples
                << "]");
  MDL_CHECK(config_.label_skew_alpha > 0.0,
            "label skew alpha must be positive");

  // Shared task: random unit directions scaled by class_sep, exactly the
  // centroid scheme of data::make_classification.
  Rng rng(mix(config_.population_seed, kCentroidSalt));
  centroids_ = Tensor({config_.num_classes, config_.num_features});
  for (std::int64_t c = 0; c < config_.num_classes; ++c) {
    double norm_sq = 0.0;
    for (std::int64_t j = 0; j < config_.num_features; ++j) {
      const double v = rng.normal();
      centroids_[c * config_.num_features + j] = static_cast<float>(v);
      norm_sq += v * v;
    }
    const float scale = static_cast<float>(
        config_.class_sep / std::sqrt(std::max(norm_sq, 1e-12)));
    for (std::int64_t j = 0; j < config_.num_features; ++j)
      centroids_[c * config_.num_features + j] *= scale;
  }
}

Rng VirtualPopulation::client_rng(std::size_t client) const {
  return Rng(mix(mix(config_.population_seed, kClientSalt),
                 static_cast<std::uint64_t>(client)));
}

std::int64_t VirtualPopulation::shard_size(std::size_t client) const {
  MDL_CHECK(client < size(), "client " << client << " out of range ("
                                       << size() << " clients)");
  // The example count is the client stream's *first* draw, so it can be
  // recomputed in O(1) without generating the shard.
  Rng rng = client_rng(client);
  return config_.min_examples +
         rng.uniform_int(config_.max_examples - config_.min_examples + 1);
}

const data::TabularDataset& VirtualPopulation::shard(
    std::size_t client, data::TabularDataset& scratch) const {
  MDL_CHECK(client < size(), "client " << client << " out of range ("
                                       << size() << " clients)");
  Rng rng = client_rng(client);
  const std::int64_t n =
      config_.min_examples +
      rng.uniform_int(config_.max_examples - config_.min_examples + 1);
  const std::int64_t d = config_.num_features;

  // Per-client label mix: Dirichlet(alpha) over the shared classes — the
  // standard non-IID federated partition, derived instead of partitioned.
  const std::vector<double> class_mix =
      rng.dirichlet(static_cast<std::size_t>(config_.num_classes),
                    config_.label_skew_alpha);

  scratch.num_classes = config_.num_classes;
  if (scratch.features.empty() || scratch.features.shape(0) != n ||
      scratch.features.shape(1) != d)
    scratch.features = Tensor({n, d});
  scratch.labels.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto y = static_cast<std::int64_t>(rng.categorical(class_mix));
    scratch.labels[static_cast<std::size_t>(i)] = y;
    for (std::int64_t j = 0; j < d; ++j)
      scratch.features[i * d + j] =
          centroids_[y * d + j] + static_cast<float>(rng.normal());
  }
  return scratch;
}

std::uint64_t VirtualPopulation::fingerprint() const {
  std::uint64_t fp = mix(0x76697274ULL, config_.population_seed);
  fp = mix(fp, config_.num_clients);
  fp = mix(fp, static_cast<std::uint64_t>(config_.num_features));
  fp = mix(fp, static_cast<std::uint64_t>(config_.num_classes));
  fp = mix(fp, double_bits(config_.class_sep));
  fp = mix(fp, static_cast<std::uint64_t>(config_.min_examples));
  fp = mix(fp, static_cast<std::uint64_t>(config_.max_examples));
  fp = mix(fp, double_bits(config_.label_skew_alpha));
  return fp;
}

data::TabularDataset VirtualPopulation::test_set(
    std::int64_t num_examples) const {
  MDL_CHECK(num_examples > 0, "test set needs at least one example");
  Rng rng(mix(config_.population_seed, kTestSalt));
  const std::int64_t d = config_.num_features;
  data::TabularDataset ds;
  ds.num_classes = config_.num_classes;
  ds.features = Tensor({num_examples, d});
  ds.labels.resize(static_cast<std::size_t>(num_examples));
  for (std::int64_t i = 0; i < num_examples; ++i) {
    const std::int64_t y = i % config_.num_classes;  // balanced classes
    ds.labels[static_cast<std::size_t>(i)] = y;
    for (std::int64_t j = 0; j < d; ++j)
      ds.features[i * d + j] =
          centroids_[y * d + j] + static_cast<float>(rng.normal());
  }
  return ds;
}

std::vector<data::TabularDataset> VirtualPopulation::materialize() const {
  std::vector<data::TabularDataset> shards;
  shards.reserve(size());
  for (std::size_t k = 0; k < size(); ++k) {
    data::TabularDataset scratch;
    shard(k, scratch);
    shards.push_back(std::move(scratch));
  }
  return shards;
}

}  // namespace mdl::federated
