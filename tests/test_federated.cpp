#include <gtest/gtest.h>

#include <cstring>

#include "core/threadpool.hpp"
#include "data/synthetic.hpp"
#include "federated/fedavg.hpp"
#include "federated/selective_sgd.hpp"
#include "nn/param_utils.hpp"

namespace mdl::federated {
namespace {

struct FedFixture : ::testing::Test {
  FedFixture() {
    Rng rng(1);
    data::SyntheticConfig c;
    c.num_samples = 600;
    c.num_features = 12;
    c.num_classes = 4;
    c.class_sep = 2.5;
    const auto ds = data::make_classification(c, rng);
    const auto split = data::train_test_split(ds, 0.25, rng);
    test_set = split.test;
    shards = data::partition_dirichlet(split.train, 6, 0.5, rng);
    factory = mlp_factory(12, 16, 4);
  }
  data::TabularDataset test_set;
  std::vector<data::TabularDataset> shards;
  ModelFactory factory;
};

TEST_F(FedFixture, FedAvgLearns) {
  FedAvgConfig cfg;
  cfg.rounds = 15;
  cfg.clients_per_round = 6;
  cfg.local_epochs = 3;
  FedAvgTrainer trainer(factory, shards, cfg);
  const auto history = trainer.run(test_set);
  ASSERT_FALSE(history.empty());
  EXPECT_GT(history.back().test_accuracy, 0.8);
  // Accuracy improves over training.
  EXPECT_GT(history.back().test_accuracy, history.front().test_accuracy);
}

TEST_F(FedFixture, FedSgdLearnsSlower) {
  FedAvgConfig avg_cfg;
  avg_cfg.rounds = 10;
  avg_cfg.clients_per_round = 6;
  avg_cfg.local_epochs = 5;
  FedAvgConfig sgd_cfg = avg_cfg;
  sgd_cfg.fedsgd = true;
  sgd_cfg.server_lr = 0.1;

  FedAvgTrainer avg(factory, shards, avg_cfg);
  FedAvgTrainer sgd(factory, shards, sgd_cfg);
  const auto ha = avg.run(test_set);
  const auto hs = sgd.run(test_set);
  // After equal rounds (equal communication), FedAvg should be ahead.
  EXPECT_GT(ha.back().test_accuracy, hs.back().test_accuracy);
}

TEST_F(FedFixture, LedgerCountsExactBytes) {
  FedAvgConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 1;
  FedAvgTrainer trainer(factory, shards, cfg);
  trainer.run(test_set);
  const std::uint64_t model_bytes =
      static_cast<std::uint64_t>(trainer.model_size()) * 4;
  // 2 rounds x 3 clients x (down + up).
  EXPECT_EQ(trainer.ledger().bytes_down, 2 * 3 * model_bytes);
  EXPECT_EQ(trainer.ledger().bytes_up, 2 * 3 * model_bytes);
}

TEST_F(FedFixture, TargetAccuracyStopsEarly) {
  FedAvgConfig cfg;
  cfg.rounds = 50;
  cfg.clients_per_round = 6;
  cfg.local_epochs = 5;
  cfg.target_accuracy = 0.5;
  FedAvgTrainer trainer(factory, shards, cfg);
  const auto history = trainer.run(test_set);
  EXPECT_LT(history.size(), 50U);
  EXPECT_GE(history.back().test_accuracy, 0.5);
}

TEST_F(FedFixture, InvalidConfigThrows) {
  FedAvgConfig cfg;
  cfg.clients_per_round = 100;  // more than shards
  EXPECT_THROW(FedAvgTrainer(factory, shards, cfg), Error);
  EXPECT_THROW(FedAvgTrainer(factory, std::vector<data::TabularDataset>{},
                              FedAvgConfig{}),
               Error);
}

TEST_F(FedFixture, SelectiveSgdLearnsWithPartialUpload) {
  SelectiveSGDConfig cfg;
  cfg.rounds = 12;
  cfg.upload_fraction = 0.1;
  SelectiveSGDTrainer trainer(factory, shards, cfg);
  const auto history = trainer.run(test_set);
  EXPECT_GT(history.back().test_accuracy, 0.7);
}

TEST_F(FedFixture, SelectiveUploadFractionControlsBytes) {
  SelectiveSGDConfig small;
  small.rounds = 3;
  small.upload_fraction = 0.05;
  small.download_fraction = 0.05;
  SelectiveSGDConfig large = small;
  large.upload_fraction = 0.5;
  large.download_fraction = 0.5;

  SelectiveSGDTrainer a(factory, shards, small);
  SelectiveSGDTrainer b(factory, shards, large);
  a.run(test_set);
  b.run(test_set);
  EXPECT_LT(a.ledger().total(), b.ledger().total());
  // ~10x fewer coordinates -> ~10x fewer bytes.
  EXPECT_NEAR(static_cast<double>(b.ledger().total()) /
                  static_cast<double>(a.ledger().total()),
              10.0, 1.5);
}

TEST_F(FedFixture, SelectiveParticipantsBenefitFromSharing) {
  // A participant's local replica should beat a model trained only on its
  // own shard (the core claim of distributed selective SGD).
  SelectiveSGDConfig cfg;
  cfg.rounds = 12;
  cfg.upload_fraction = 0.2;
  SelectiveSGDTrainer trainer(factory, shards, cfg);
  trainer.run(test_set);
  const double shared_acc = trainer.participant_accuracy(0, test_set);

  Rng rng(5);
  auto standalone = factory(rng);
  Rng train_rng(6);
  local_sgd(*standalone, shards[0], 12, 16, 0.1, train_rng);
  const double solo_acc = evaluate_accuracy(*standalone, test_set);
  EXPECT_GT(shared_acc, solo_acc);
}

TEST_F(FedFixture, SelectiveInvalidFractionsThrow) {
  SelectiveSGDConfig cfg;
  cfg.upload_fraction = 0.0;
  EXPECT_THROW(SelectiveSGDTrainer(factory, shards, cfg), Error);
  cfg.upload_fraction = 0.5;
  cfg.download_fraction = 1.5;
  EXPECT_THROW(SelectiveSGDTrainer(factory, shards, cfg), Error);
}

// -------------------------------------- intra-round parallel determinism
//
// The local-training phase of each round runs under parallel_for; the
// contract (DESIGN.md) is that the trained global model is bit-identical
// at every shared-pool size. Run the same config serially (pool size 1 ->
// inline execution) and with 8 threads, and compare the models bitwise.

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct SharedPoolOverride {
  explicit SharedPoolOverride(std::size_t n) : saved(shared_pool_threads()) {
    set_shared_pool_threads(n);
  }
  ~SharedPoolOverride() { set_shared_pool_threads(saved); }
  std::size_t saved;
};

TEST_F(FedFixture, FedAvgBitIdenticalAcrossThreadCounts) {
  FedAvgConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 5;
  cfg.local_epochs = 2;

  std::vector<float> serial_weights;
  std::vector<RoundStats> serial_history;
  {
    SharedPoolOverride pool(1);
    FedAvgTrainer trainer(factory, shards, cfg);
    serial_history = trainer.run(test_set);
    serial_weights = nn::flatten_values(trainer.global_model().parameters());
  }
  SharedPoolOverride pool(8);
  FedAvgTrainer trainer(factory, shards, cfg);
  const auto history = trainer.run(test_set);
  const std::vector<float> weights =
      nn::flatten_values(trainer.global_model().parameters());

  EXPECT_TRUE(bits_equal(serial_weights, weights));
  ASSERT_EQ(history.size(), serial_history.size());
  for (std::size_t r = 0; r < history.size(); ++r) {
    EXPECT_EQ(history[r].train_loss, serial_history[r].train_loss);
    EXPECT_EQ(history[r].test_accuracy, serial_history[r].test_accuracy);
  }
}

TEST_F(FedFixture, SelectiveSgdBitIdenticalAcrossThreadCounts) {
  SelectiveSGDConfig cfg;
  cfg.rounds = 4;
  cfg.upload_fraction = 0.2;
  cfg.download_fraction = 0.5;

  std::vector<float> serial_global;
  {
    SharedPoolOverride pool(1);
    SelectiveSGDTrainer trainer(factory, shards, cfg);
    trainer.run(test_set);
    serial_global = trainer.global_parameters();
  }
  SharedPoolOverride pool(8);
  SelectiveSGDTrainer trainer(factory, shards, cfg);
  trainer.run(test_set);
  EXPECT_TRUE(bits_equal(serial_global, trainer.global_parameters()));
}

TEST(FederatedCommon, MlpFactoryShapes) {
  auto factory = mlp_factory(5, 7, 3);
  Rng rng(2);
  auto model = factory(rng);
  const Tensor y = model->forward(Tensor({2, 5}));
  EXPECT_EQ(y.shape(1), 3);
  EXPECT_EQ(model->param_count(), 5 * 7 + 7 + 7 * 3 + 3);
  EXPECT_THROW(mlp_factory(0, 7, 3), Error);
}

TEST(FederatedCommon, FullBatchGradientPopulatesGrads) {
  Rng rng(3);
  auto model = mlp_factory(4, 6, 2)(rng);
  data::TabularDataset ds;
  ds.num_classes = 2;
  ds.features = Tensor::randn({10, 4}, rng);
  ds.labels.assign(10, 0);
  for (std::size_t i = 5; i < 10; ++i) ds.labels[i] = 1;
  const double loss = full_batch_gradient(*model, ds);
  EXPECT_GT(loss, 0.0);
  double grad_norm = 0.0;
  for (nn::Parameter* p : model->parameters())
    grad_norm += p->grad.dot(p->grad);
  EXPECT_GT(grad_norm, 0.0);
}

TEST(FederatedCommon, CommLedgerArithmetic) {
  CommLedger ledger;
  ledger.encoded_up(100 * 4, 150 * 4);  // 150 raw floats coded into 400 B
  ledger.encoded_down(200, 50 * 4);     // 50 floats sent uncoded
  ledger.wasted_up(10 * 8);             // a failed 10-coordinate upload
  EXPECT_EQ(ledger.bytes_up, 100 * 4 + 10 * 8);
  EXPECT_EQ(ledger.bytes_down, 200U);
  EXPECT_EQ(ledger.total(), ledger.bytes_up + ledger.bytes_down);
  EXPECT_EQ(ledger.bytes_up_raw, 150 * 4 + 10 * 8);
  EXPECT_EQ(ledger.bytes_down_raw, 200U);
}

}  // namespace
}  // namespace mdl::federated
