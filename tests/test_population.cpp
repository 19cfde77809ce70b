// Virtual client populations (ISSUE 9): derivation determinism, O(cohort)
// sampling helpers, and the materialized-vs-virtual bit-identity pins for
// every federated trainer. Suites are Population*-prefixed so the TSan
// smoke legs can select them by filter.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <numeric>
#include <unordered_set>

#include "core/threadpool.hpp"
#include "federated/common.hpp"
#include "federated/fedavg.hpp"
#include "federated/population.hpp"
#include "federated/selective_sgd.hpp"
#include "nn/param_utils.hpp"
#include "privacy/dp_fedavg.hpp"

namespace mdl::federated {
namespace {

namespace fs = std::filesystem;

VirtualPopulationConfig small_config(std::uint64_t clients = 48) {
  VirtualPopulationConfig vc;
  vc.population_seed = 99;
  vc.num_clients = clients;
  vc.num_features = 12;
  vc.num_classes = 4;
  vc.class_sep = 2.5;
  vc.min_examples = 8;
  vc.max_examples = 24;
  vc.label_skew_alpha = 0.5;
  return vc;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool datasets_equal(const data::TabularDataset& a,
                    const data::TabularDataset& b) {
  if (a.num_classes != b.num_classes || a.labels != b.labels) return false;
  if (a.features.size() != b.features.size()) return false;
  return std::memcmp(a.features.data(), b.features.data(),
                     static_cast<std::size_t>(a.features.size()) *
                         sizeof(float)) == 0;
}

struct SharedPoolOverride {
  explicit SharedPoolOverride(std::size_t n) : saved(shared_pool_threads()) {
    set_shared_pool_threads(n);
  }
  ~SharedPoolOverride() { set_shared_pool_threads(saved); }
  std::size_t saved;
};

// ---------------------------------------------------------------------------
// VirtualPopulation derivation

TEST(PopulationVirtual, ShardIsPureFunctionOfSeedAndClient) {
  const VirtualPopulation pop(small_config());
  data::TabularDataset s1, s2;
  // Same client twice — and out of order relative to other clients.
  pop.shard(7, s1);
  data::TabularDataset other;
  pop.shard(3, other);
  pop.shard(11, other);
  pop.shard(7, s2);
  EXPECT_TRUE(datasets_equal(s1, s2));

  // A fresh population object with the same config derives the same data.
  const VirtualPopulation twin(small_config());
  data::TabularDataset s3;
  twin.shard(7, s3);
  EXPECT_TRUE(datasets_equal(s1, s3));
}

TEST(PopulationVirtual, DistinctClientsGetDistinctShards) {
  const VirtualPopulation pop(small_config());
  data::TabularDataset a, b;
  pop.shard(0, a);
  const data::TabularDataset first = a;  // copy out of the scratch
  pop.shard(1, b);
  EXPECT_FALSE(datasets_equal(first, b));
}

TEST(PopulationVirtual, ShardSizeMatchesGeneratedShard) {
  const VirtualPopulation pop(small_config());
  data::TabularDataset scratch;
  for (std::size_t k = 0; k < pop.size(); ++k) {
    const auto& shard = pop.shard(k, scratch);
    EXPECT_EQ(pop.shard_size(k), shard.size()) << "client " << k;
    EXPECT_GE(shard.size(), small_config().min_examples);
    EXPECT_LE(shard.size(), small_config().max_examples);
  }
}

TEST(PopulationVirtual, MaterializeMatchesOnDemand) {
  const VirtualPopulation pop(small_config(16));
  const auto shards = pop.materialize();
  ASSERT_EQ(shards.size(), pop.size());
  data::TabularDataset scratch;
  for (std::size_t k = 0; k < pop.size(); ++k)
    EXPECT_TRUE(datasets_equal(shards[k], pop.shard(k, scratch)));
}

TEST(PopulationVirtual, FingerprintTracksConfig) {
  const VirtualPopulation pop(small_config());
  EXPECT_EQ(pop.fingerprint(), VirtualPopulation(small_config()).fingerprint());
  auto changed = small_config();
  changed.population_seed += 1;
  EXPECT_NE(pop.fingerprint(), VirtualPopulation(changed).fingerprint());
  changed = small_config();
  changed.num_clients += 1;
  EXPECT_NE(pop.fingerprint(), VirtualPopulation(changed).fingerprint());
  changed = small_config();
  changed.label_skew_alpha = 0.7;
  EXPECT_NE(pop.fingerprint(), VirtualPopulation(changed).fingerprint());
}

TEST(PopulationVirtual, TestSetIsDeterministicAndBalanced) {
  const VirtualPopulation pop(small_config());
  const auto t1 = pop.test_set(64);
  const auto t2 = pop.test_set(64);
  EXPECT_TRUE(datasets_equal(t1, t2));
  std::vector<int> counts(static_cast<std::size_t>(t1.num_classes), 0);
  for (const auto y : t1.labels) ++counts[static_cast<std::size_t>(y)];
  for (const int c : counts) EXPECT_EQ(c, 16);
}

TEST(PopulationVirtual, InvalidConfigThrows) {
  auto vc = small_config();
  vc.num_clients = 0;
  EXPECT_THROW(VirtualPopulation{vc}, Error);
  vc = small_config();
  vc.min_examples = 10;
  vc.max_examples = 5;
  EXPECT_THROW(VirtualPopulation{vc}, Error);
  vc = small_config();
  vc.label_skew_alpha = 0.0;
  EXPECT_THROW(VirtualPopulation{vc}, Error);
}

TEST(PopulationVirtual, MaterializedFingerprintTracksLayout) {
  const VirtualPopulation pop(small_config(8));
  const MaterializedPopulation a(pop.materialize());
  const MaterializedPopulation b(pop.materialize());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  auto shards = pop.materialize();
  shards.pop_back();
  EXPECT_NE(a.fingerprint(), MaterializedPopulation(shards).fingerprint());
}

// ---------------------------------------------------------------------------
// O(cohort) sampling helpers

TEST(PopulationSampling, SampleCohortMatchesDensePath) {
  // The sparse sampler must replay Rng::sample_without_replacement exactly:
  // same draws consumed, same cohort, for every (n, k) tried.
  for (const std::size_t n : {1UL, 5UL, 64UL, 1000UL}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n}) {
      Rng dense_rng(4217);
      Rng sparse_rng(4217);
      const auto dense = dense_rng.sample_without_replacement(n, k);
      const auto sparse = sample_cohort(sparse_rng, n, k);
      EXPECT_EQ(dense, sparse) << "n=" << n << " k=" << k;
      // Post-state must match too (next round continues the same stream).
      EXPECT_EQ(dense_rng.uniform_int(1 << 30),
                sparse_rng.uniform_int(1 << 30));
    }
  }
}

TEST(PopulationSampling, SampleCohortIsDistinctAndInRange) {
  Rng rng(11);
  const std::size_t n = 1000000, k = 100;
  const auto cohort = sample_cohort(rng, n, k);
  ASSERT_EQ(cohort.size(), k);
  std::unordered_set<std::size_t> seen;
  for (const std::size_t c : cohort) {
    EXPECT_LT(c, n);
    EXPECT_TRUE(seen.insert(c).second) << "duplicate client " << c;
  }
}

TEST(PopulationSampling, SampleCohortIsUniform) {
  // Chi-squared-style sanity: each of 10 clients should appear in a k=2
  // cohort with probability 1/5 over many trials.
  Rng rng(123);
  const std::size_t n = 10, k = 2, trials = 20000;
  std::vector<std::size_t> counts(n, 0);
  for (std::size_t t = 0; t < trials; ++t)
    for (const std::size_t c : sample_cohort(rng, n, k)) ++counts[c];
  const double expected = static_cast<double>(trials * k) / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]), expected, 0.08 * expected)
        << "client " << i;
  }
}

TEST(PopulationSampling, BernoulliCohortMatchesExpectation) {
  Rng rng(77);
  const std::size_t n = 10000;
  const double p = 0.05;
  double total = 0.0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const auto cohort = sample_bernoulli_cohort(rng, n, p);
    // Sorted, distinct, in range.
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      EXPECT_LT(cohort[i], n);
      if (i > 0) {
        EXPECT_LT(cohort[i - 1], cohort[i]);
      }
    }
    total += static_cast<double>(cohort.size());
  }
  const double mean = total / trials;
  EXPECT_NEAR(mean, p * static_cast<double>(n), 0.1 * p * n);
}

TEST(PopulationSampling, BernoulliCohortEdgeCases) {
  Rng rng(5);
  EXPECT_TRUE(sample_bernoulli_cohort(rng, 0, 0.5).empty());
  EXPECT_TRUE(sample_bernoulli_cohort(rng, 100, 0.0).empty());
  const auto all = sample_bernoulli_cohort(rng, 100, 1.0);
  ASSERT_EQ(all.size(), 100U);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  // Tiny p over a huge range: must terminate and stay in range.
  const auto rare = sample_bernoulli_cohort(rng, 1000000, 1e-7);
  for (const std::size_t c : rare) EXPECT_LT(c, 1000000U);
}

TEST(PopulationSampling, ChunkRangesPartitionContiguously) {
  for (const std::size_t n : {0UL, 1UL, 7UL, 16UL, 17UL, 100UL}) {
    for (const std::size_t m : {1UL, 4UL, 16UL, 200UL}) {
      const auto chunks = chunk_ranges(n, m);
      if (n == 0) {
        EXPECT_TRUE(chunks.empty());
        continue;
      }
      EXPECT_EQ(chunks.size(), std::min(n, m));
      std::size_t covered = 0, max_len = 0, min_len = n + 1;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_EQ(chunks[c].begin, covered);  // contiguous, in order
        EXPECT_GT(chunks[c].size(), 0U);
        covered = chunks[c].end;
        max_len = std::max(max_len, chunks[c].size());
        min_len = std::min(min_len, chunks[c].size());
      }
      EXPECT_EQ(covered, n);
      EXPECT_LE(max_len - min_len, 1U);  // balanced
    }
  }
}

// ---------------------------------------------------------------------------
// Trainer bit-identity: materialized vs virtual, and across thread counts

struct PopulationTrainers : ::testing::Test {
  PopulationTrainers()
      : pop(std::make_shared<VirtualPopulation>(small_config())),
        materialized(
            std::make_shared<MaterializedPopulation>(pop->materialize())),
        test_set(pop->test_set(200)),
        factory(mlp_factory(12, 16, 4)) {}

  std::shared_ptr<VirtualPopulation> pop;
  std::shared_ptr<MaterializedPopulation> materialized;
  data::TabularDataset test_set;
  ModelFactory factory;
};

TEST_F(PopulationTrainers, FedAvgVirtualMatchesMaterialized) {
  FedAvgConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 8;
  cfg.local_epochs = 2;

  FedAvgTrainer virt(factory, pop, cfg);
  FedAvgTrainer mat(factory, materialized, cfg);
  const auto hv = virt.run(test_set);
  const auto hm = mat.run(test_set);
  EXPECT_TRUE(bits_equal(nn::flatten_values(virt.global_model().parameters()),
                         nn::flatten_values(mat.global_model().parameters())));
  ASSERT_EQ(hv.size(), hm.size());
  for (std::size_t i = 0; i < hv.size(); ++i) EXPECT_EQ(hv[i], hm[i]);
}

TEST_F(PopulationTrainers, FedSgdVirtualMatchesMaterialized) {
  FedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 6;
  cfg.fedsgd = true;
  cfg.server_lr = 0.2;

  FedAvgTrainer virt(factory, pop, cfg);
  FedAvgTrainer mat(factory, materialized, cfg);
  virt.run(test_set);
  mat.run(test_set);
  EXPECT_TRUE(bits_equal(nn::flatten_values(virt.global_model().parameters()),
                         nn::flatten_values(mat.global_model().parameters())));
}

TEST_F(PopulationTrainers, SelectiveSgdVirtualMatchesMaterialized) {
  SelectiveSGDConfig cfg;
  cfg.rounds = 3;
  cfg.upload_fraction = 0.2;
  cfg.local_epochs = 1;

  SelectiveSGDTrainer virt(factory, pop, cfg);
  SelectiveSGDTrainer mat(factory, materialized, cfg);
  virt.run(test_set);
  mat.run(test_set);
  const auto& gv = virt.global_parameters();
  const auto& gm = mat.global_parameters();
  EXPECT_TRUE(bits_equal(gv, gm));
}

TEST_F(PopulationTrainers, DpFedAvgVirtualMatchesMaterialized) {
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.client_sample_prob = 0.3;
  cfg.local_epochs = 1;

  privacy::DpFedAvgTrainer virt(factory, pop, cfg);
  privacy::DpFedAvgTrainer mat(factory, materialized, cfg);
  virt.run(test_set);
  mat.run(test_set);
  EXPECT_TRUE(bits_equal(nn::flatten_values(virt.global_model().parameters()),
                         nn::flatten_values(mat.global_model().parameters())));
}

TEST_F(PopulationTrainers, StreamingAggregatorThreadIdentity) {
  // Cohort 40 > kAggShards 16 → genuinely multi-client chunks; the chunked
  // reduction must still be bit-identical between 1 and 8 threads.
  FedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 40;
  cfg.local_epochs = 2;

  std::vector<float> serial;
  std::vector<RoundStats> serial_history;
  {
    SharedPoolOverride pool(1);
    FedAvgTrainer trainer(factory, pop, cfg);
    serial_history = trainer.run(test_set);
    serial = nn::flatten_values(trainer.global_model().parameters());
  }
  SharedPoolOverride pool(8);
  FedAvgTrainer trainer(factory, pop, cfg);
  const auto history = trainer.run(test_set);
  EXPECT_TRUE(bits_equal(
      serial, nn::flatten_values(trainer.global_model().parameters())));
  ASSERT_EQ(history.size(), serial_history.size());
  for (std::size_t i = 0; i < history.size(); ++i)
    EXPECT_EQ(history[i], serial_history[i]);
}

TEST_F(PopulationTrainers, DpStreamingAggregatorThreadIdentity) {
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 2;
  cfg.client_sample_prob = 0.8;  // realized cohort ~38 > kAggShards
  cfg.local_epochs = 1;

  std::vector<float> serial;
  {
    SharedPoolOverride pool(1);
    privacy::DpFedAvgTrainer trainer(factory, pop, cfg);
    trainer.run(test_set);
    serial = nn::flatten_values(trainer.global_model().parameters());
  }
  SharedPoolOverride pool(8);
  privacy::DpFedAvgTrainer trainer(factory, pop, cfg);
  trainer.run(test_set);
  EXPECT_TRUE(bits_equal(
      serial, nn::flatten_values(trainer.global_model().parameters())));
}

TEST_F(PopulationTrainers, WorkerPoolCappedAtChunkCount) {
  FedAvgConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 40;  // > kAggShards
  cfg.local_epochs = 1;
  FedAvgTrainer trainer(factory, pop, cfg);
  trainer.run(test_set);
  EXPECT_LE(trainer.worker_pool_size(), kAggShards);

  FedAvgConfig small = cfg;
  small.clients_per_round = 5;  // < kAggShards: pool caps at the cohort
  FedAvgTrainer small_trainer(factory, pop, small);
  small_trainer.run(test_set);
  EXPECT_LE(small_trainer.worker_pool_size(), 5U);
}

TEST_F(PopulationTrainers, CheckpointGuardsPopulationFingerprint) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      (fs::temp_directory_path() / (std::string("mdl_pop_") + info->name()))
          .string();
  fs::remove_all(dir);

  FedAvgConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 4;
  cfg.local_epochs = 1;
  cfg.checkpoint.dir = dir;
  {
    FedAvgTrainer trainer(factory, pop, cfg);
    trainer.run(test_set);  // leaves ckpt.1, ckpt.2 behind
  }

  // The matching population restores round 2 and continues at round 3.
  cfg.checkpoint.resume = true;
  cfg.rounds = 4;
  {
    FedAvgTrainer resumed(factory, pop, cfg);
    const auto history = resumed.run(test_set);
    ASSERT_EQ(history.size(), 2U);
    EXPECT_EQ(history.front().round, 3);
  }

  // A different population seed fails the fingerprint guard on every
  // archived checkpoint — the resume is refused and training restarts
  // from round 1 (same contract as a config-seed mismatch).
  auto other_cfg = small_config();
  other_cfg.population_seed += 1;
  const auto other = std::make_shared<VirtualPopulation>(other_cfg);
  FedAvgTrainer refused(factory, other, cfg);
  const auto history = refused.run(test_set);
  ASSERT_EQ(history.size(), 4U);
  EXPECT_EQ(history.front().round, 1);
  fs::remove_all(dir);
}

// A resume the fingerprint guard refuses must leave no trace: checkpoints
// written against `pop` are offered to a run on a different population, and
// that run must equal a fresh one — history and final parameters, bit for
// bit. Every guard has to fire before any state is assigned, or the
// "fresh" run trains from a half-restored trainer.
std::vector<float> final_params(FedAvgTrainer& t) {
  return nn::flatten_values(t.global_model().parameters());
}
std::vector<float> final_params(SelectiveSGDTrainer& t) {
  return t.global_parameters();
}
std::vector<float> final_params(privacy::DpFedAvgTrainer& t) {
  return nn::flatten_values(t.global_model().parameters());
}
bool same_round(const RoundStats& a, const RoundStats& b) { return a == b; }
bool same_round(const privacy::DpRoundStats& a,
                const privacy::DpRoundStats& b) {
  return a.round == b.round && a.test_accuracy == b.test_accuracy &&
         a.train_loss == b.train_loss && a.epsilon == b.epsilon &&
         a.clients_selected == b.clients_selected &&
         a.clients_delivered == b.clients_delivered &&
         a.aborted == b.aborted && a.rolled_back == b.rolled_back;
}

template <class Trainer, class Config>
void expect_refused_resume_is_fresh(const PopulationTrainers& fx,
                                    Config cfg) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      (fs::temp_directory_path() / (std::string("mdl_pop_") + info->name()))
          .string();
  fs::remove_all(dir);
  auto other_cfg = small_config();
  other_cfg.population_seed += 1;
  const auto other = std::make_shared<VirtualPopulation>(other_cfg);

  Trainer fresh(fx.factory, other, cfg);
  const auto expected = fresh.run(fx.test_set);

  Config writer = cfg;
  writer.rounds = 2;
  writer.checkpoint.dir = dir;
  Trainer(fx.factory, fx.pop, writer).run(fx.test_set);

  Config resume = cfg;
  resume.checkpoint.dir = dir;
  resume.checkpoint.resume = true;
  Trainer refused(fx.factory, other, resume);
  const auto history = refused.run(fx.test_set);

  ASSERT_EQ(history.size(), expected.size());
  for (std::size_t i = 0; i < history.size(); ++i)
    EXPECT_TRUE(same_round(history[i], expected[i])) << "round " << i + 1;
  EXPECT_TRUE(bits_equal(final_params(refused), final_params(fresh)));
  fs::remove_all(dir);
}

TEST_F(PopulationTrainers, RefusedResumeMatchesFreshRunFedAvg) {
  FedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local_epochs = 1;
  expect_refused_resume_is_fresh<FedAvgTrainer>(*this, cfg);
}

TEST_F(PopulationTrainers, RefusedResumeMatchesFreshRunSelectiveSgd) {
  SelectiveSGDConfig cfg;
  cfg.rounds = 3;
  cfg.upload_fraction = 0.2;
  cfg.download_fraction = 0.5;
  expect_refused_resume_is_fresh<SelectiveSGDTrainer>(*this, cfg);
}

TEST_F(PopulationTrainers, RefusedResumeMatchesFreshRunDpFedAvg) {
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.client_sample_prob = 0.2;
  cfg.local_epochs = 1;
  expect_refused_resume_is_fresh<privacy::DpFedAvgTrainer>(*this, cfg);
}

}  // namespace
}  // namespace mdl::federated
