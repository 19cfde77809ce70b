// mdl::sim — fault-injecting federated network simulator.
//
// The contract under test: every fault is driven by (plan.seed, round,
// client), so any run replays bit-identically from its seed; quorum,
// deadline, and retry/backoff semantics match DESIGN.md §Fault simulation.
#include <gtest/gtest.h>

#include <sstream>

#include "core/error.hpp"
#include "data/synthetic.hpp"
#include "federated/fedavg.hpp"
#include "federated/selective_sgd.hpp"
#include "nn/param_utils.hpp"
#include "privacy/dp_fedavg.hpp"
#include "sim/sim_network.hpp"

namespace mdl::sim {
namespace {

FaultPlan lossy_plan() {
  FaultPlan plan;
  plan.seed = 1234;
  plan.dropout_prob = 0.2;
  plan.straggler_prob = 0.3;
  plan.straggler_mean_slowdown = 5.0;
  plan.truncation_prob = 0.1;
  plan.corruption_prob = 0.05;
  plan.round_deadline_s = 60.0;
  plan.max_retries = 2;
  plan.retry_backoff_s = 0.25;
  plan.min_quorum = 1;
  return plan;
}

std::vector<std::size_t> client_ids(std::size_t n) {
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

void expect_identical(const RoundReport& a, const RoundReport& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropouts, b.dropouts);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.upload_failures, b.upload_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.bytes_wasted, b.bytes_wasted);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.round_latency_s, b.round_latency_s);  // bit-identical doubles
  EXPECT_EQ(a.device_energy_j, b.device_energy_j);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    const ClientExchange& x = a.clients[i];
    const ClientExchange& y = b.clients[i];
    EXPECT_EQ(x.client, y.client);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.elapsed_s, y.elapsed_s);
    EXPECT_EQ(x.energy_j, y.energy_j);
    EXPECT_EQ(x.bytes_down, y.bytes_down);
    EXPECT_EQ(x.bytes_up_ok, y.bytes_up_ok);
    EXPECT_EQ(x.bytes_wasted, y.bytes_wasted);
  }
}

TEST(FaultPlan, ValidateRejectsBadKnobs) {
  FaultPlan plan;
  plan.dropout_prob = 1.5;
  EXPECT_THROW(plan.validate(), Error);
  plan = {};
  plan.straggler_mean_slowdown = 0.0;
  EXPECT_THROW(plan.validate(), Error);
  plan = {};
  plan.max_retries = -1;
  EXPECT_THROW(plan.validate(), Error);
  plan = {};
  plan.round_deadline_s = -2.0;
  EXPECT_THROW(plan.validate(), Error);
  plan = {};
  EXPECT_NO_THROW(plan.validate());
  EXPECT_THROW(SimNetwork(FaultPlan{.corruption_prob = 2.0}), Error);
}

TEST(FaultPlan, SerializeRoundTrip) {
  const FaultPlan plan = lossy_plan();
  std::stringstream ss;
  BinaryWriter w(ss);
  plan.serialize(w);
  BinaryReader r(ss);
  const FaultPlan back = FaultPlan::deserialize(r);
  EXPECT_EQ(plan, back);
}

TEST(FaultPlan, DeserializeRejectsUnknownVersion) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_u32(999);
  BinaryReader r(ss);
  EXPECT_THROW(FaultPlan::deserialize(r), Error);
}

TEST(RoundStatsSerialization, RoundTripPreservesEveryField) {
  federated::RoundStats s;
  s.round = 17;
  s.test_accuracy = 0.875;
  s.train_loss = 0.321;
  s.cumulative_bytes = 123456789;
  s.clients_selected = 10;
  s.clients_delivered = 6;
  s.dropouts = 3;
  s.deadline_misses = 1;
  s.retries = 4;
  s.bytes_wasted = 4096;
  s.aborted = true;
  s.sim_latency_s = 12.5;
  s.sim_energy_j = 3.75;

  std::stringstream ss;
  BinaryWriter w(ss);
  federated::serialize_round_stats(w, s);
  BinaryReader r(ss);
  const federated::RoundStats back = federated::deserialize_round_stats(r);
  EXPECT_EQ(s, back);
}

TEST(SimNetwork, SameSeedSameFaultSchedule) {
  SimNetwork a(lossy_plan());
  SimNetwork b(lossy_plan());
  const auto ids = client_ids(16);
  for (std::int64_t round = 1; round <= 5; ++round)
    expect_identical(a.run_round(round, ids, 40000, 40000),
                     b.run_round(round, ids, 40000, 40000));
  EXPECT_EQ(a.counters().dropouts, b.counters().dropouts);
  EXPECT_EQ(a.counters().bytes_wasted, b.counters().bytes_wasted);
}

TEST(SimNetwork, RoundReplaysIndependentlyOfHistory) {
  // Exchanges are keyed by (seed, round, client), not by how many rounds
  // ran before — replaying round 3 alone reproduces it exactly.
  SimNetwork full(lossy_plan());
  SimNetwork single(lossy_plan());
  const auto ids = client_ids(12);
  RoundReport third;
  for (std::int64_t round = 1; round <= 3; ++round)
    third = full.run_round(round, ids, 1000, 1000);
  expect_identical(third, single.run_round(3, ids, 1000, 1000));
}

TEST(SimNetwork, DifferentSeedsDifferentSchedules) {
  FaultPlan p1 = lossy_plan();
  FaultPlan p2 = lossy_plan();
  p2.seed = p1.seed + 1;
  SimNetwork a(p1);
  SimNetwork b(p2);
  const auto ids = client_ids(64);
  a.run_round(1, ids, 40000, 40000);
  b.run_round(1, ids, 40000, 40000);
  EXPECT_NE(a.counters().delivered, b.counters().delivered);
}

TEST(SimNetwork, LossFreePlanDeliversEverything) {
  SimNetwork net(FaultPlan{});  // no faults
  const auto ids = client_ids(8);
  const RoundReport report = net.run_round(1, ids, 1000, 1000);
  EXPECT_EQ(report.delivered, 8);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.bytes_wasted, 0U);
  EXPECT_EQ(report.retries, 0);
  for (const ClientExchange& ex : report.clients) {
    EXPECT_TRUE(ex.delivered());
    EXPECT_EQ(ex.attempts, 1);
    EXPECT_EQ(ex.bytes_up_ok, 1000U);
    EXPECT_GT(ex.elapsed_s, 0.0);
    EXPECT_GT(ex.energy_j, 0.0);
  }
}

TEST(SimNetwork, FullDropoutAbortsRound) {
  FaultPlan plan;
  plan.dropout_prob = 1.0;
  plan.min_quorum = 1;
  SimNetwork net(plan);
  const auto ids = client_ids(6);
  const RoundReport report = net.run_round(1, ids, 1000, 1000);
  EXPECT_EQ(report.dropouts, 6);
  EXPECT_EQ(report.delivered, 0);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(net.counters().aborts, 1);
  for (const ClientExchange& ex : report.clients) {
    EXPECT_EQ(ex.outcome, Outcome::kDropout);
    EXPECT_EQ(ex.elapsed_s, 0.0);
    EXPECT_EQ(ex.bytes_down, 0U);
  }
}

TEST(SimNetwork, QuorumThresholdSeparatesAbortFromSuccess) {
  FaultPlan plan;  // loss-free: all 5 clients deliver
  plan.min_quorum = 5;
  SimNetwork strict(plan);
  EXPECT_FALSE(strict.run_round(1, client_ids(5), 100, 100).aborted);
  plan.min_quorum = 6;
  SimNetwork stricter(plan);
  EXPECT_TRUE(stricter.run_round(1, client_ids(5), 100, 100).aborted);
}

TEST(SimNetwork, StragglersMissTheDeadline) {
  FaultPlan plan;
  plan.seed = 7;
  plan.straggler_prob = 1.0;
  plan.straggler_mean_slowdown = 1000.0;  // transfers blow up ~1000x
  plan.round_deadline_s = 0.5;
  plan.max_retries = 0;
  SimNetwork net(plan, mobile::NetworkModel::cellular_3g());
  const RoundReport report = net.run_round(1, client_ids(20), 100000, 100000);
  EXPECT_GT(report.deadline_misses, 0);
  EXPECT_LT(report.delivered, 20);
  // A stale delivery is rejected: its payload is wasted traffic.
  for (const ClientExchange& ex : report.clients) {
    if (ex.outcome == Outcome::kDeadlineMiss && ex.attempts == 1 &&
        ex.bytes_wasted > 0) {
      EXPECT_EQ(ex.bytes_wasted, 100000U);
    }
  }
}

TEST(SimNetwork, RetriesBackOffThenExhaust) {
  FaultPlan plan;
  plan.seed = 11;
  plan.truncation_prob = 1.0;  // every upload attempt dies mid-transfer
  plan.max_retries = 3;
  plan.retry_backoff_s = 0.5;
  SimNetwork net(plan);
  const RoundReport report = net.run_round(1, client_ids(4), 1000, 1000);
  EXPECT_EQ(report.delivered, 0);
  EXPECT_EQ(report.upload_failures, 4);
  EXPECT_EQ(report.retries, 4 * 3);
  EXPECT_GT(report.bytes_wasted, 0U);
  const double backoff_total = 0.5 + 1.0 + 2.0;  // doubles per retry
  for (const ClientExchange& ex : report.clients) {
    EXPECT_EQ(ex.outcome, Outcome::kRetriesExhausted);
    EXPECT_EQ(ex.attempts, 4);  // 1 try + 3 retries
    EXPECT_GT(ex.elapsed_s, backoff_total);
    EXPECT_EQ(ex.bytes_up_ok, 0U);
  }
}

TEST(SimNetwork, CorruptionWastesTheFullPayload) {
  FaultPlan plan;
  plan.corruption_prob = 1.0;
  plan.max_retries = 1;
  SimNetwork net(plan);
  const RoundReport report = net.run_round(1, client_ids(3), 500, 2000);
  for (const ClientExchange& ex : report.clients) {
    EXPECT_EQ(ex.outcome, Outcome::kRetriesExhausted);
    EXPECT_EQ(ex.bytes_wasted, 2U * 2000U);  // both attempts fully sent
  }
}

TEST(SimNetwork, RetriesCostLatencyAndEnergy) {
  // The same exchange with retries must cost strictly more simulated time
  // and device energy than a loss-free one — the mobile cost model sees
  // the faults, not just the counters.
  FaultPlan clean;
  FaultPlan flaky;
  flaky.corruption_prob = 0.5;
  flaky.max_retries = 4;
  SimNetwork a(clean);
  SimNetwork b(flaky);
  const auto ids = client_ids(32);
  const RoundReport ra = a.run_round(1, ids, 100000, 100000);
  const RoundReport rb = b.run_round(1, ids, 100000, 100000);
  EXPECT_GT(rb.device_energy_j, ra.device_energy_j);
  EXPECT_GT(rb.round_latency_s, ra.round_latency_s);
}

// ---- Federated trainers under fault injection ----------------------------

struct SimFedFixture : ::testing::Test {
  SimFedFixture() {
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
    factory = federated::mlp_factory(12, 16, 4);
  }

  federated::FedAvgConfig fed_config(std::int64_t rounds = 10) const {
    federated::FedAvgConfig cfg;
    cfg.rounds = rounds;
    cfg.clients_per_round = 6;
    cfg.local_epochs = 3;
    return cfg;
  }

  data::TabularDataset test_set;
  std::vector<data::TabularDataset> shards;
  federated::ModelFactory factory;
};

TEST_F(SimFedFixture, FedAvgReplaysBitIdenticallyFromSeed) {
  FaultPlan plan = lossy_plan();
  plan.dropout_prob = 0.3;

  SimNetwork net_a(plan);
  federated::FedAvgTrainer a(factory, shards, fed_config());
  a.attach_network(&net_a);
  const auto history_a = a.run(test_set);

  SimNetwork net_b(plan);
  federated::FedAvgTrainer b(factory, shards, fed_config());
  b.attach_network(&net_b);
  const auto history_b = b.run(test_set);

  ASSERT_EQ(history_a.size(), history_b.size());
  for (std::size_t i = 0; i < history_a.size(); ++i)
    EXPECT_EQ(history_a[i], history_b[i]) << "round " << i + 1;

  // Same seed => identical final model bytes.
  const std::vector<float> wa = nn::flatten_values(a.global_model().parameters());
  const std::vector<float> wb = nn::flatten_values(b.global_model().parameters());
  EXPECT_EQ(wa, wb);
  EXPECT_EQ(a.ledger().total(), b.ledger().total());
}

TEST_F(SimFedFixture, LossFreeSimMatchesBaselineTraining) {
  // A zero-fault plan must not change what the trainer learns: same model
  // bytes and same delivered traffic as the un-simulated baseline.
  federated::FedAvgTrainer base(factory, shards, fed_config(5));
  const auto base_history = base.run(test_set);

  SimNetwork net{FaultPlan{}};
  federated::FedAvgTrainer simmed(factory, shards, fed_config(5));
  simmed.attach_network(&net);
  const auto sim_history = simmed.run(test_set);

  const std::vector<float> wa =
      nn::flatten_values(base.global_model().parameters());
  const std::vector<float> wb =
      nn::flatten_values(simmed.global_model().parameters());
  EXPECT_EQ(wa, wb);
  EXPECT_EQ(base.ledger().total(), simmed.ledger().total());
  ASSERT_EQ(base_history.size(), sim_history.size());
  for (std::size_t i = 0; i < base_history.size(); ++i) {
    EXPECT_EQ(base_history[i].test_accuracy, sim_history[i].test_accuracy);
    EXPECT_EQ(base_history[i].train_loss, sim_history[i].train_loss);
    EXPECT_GT(sim_history[i].sim_latency_s, 0.0);
  }
}

TEST_F(SimFedFixture, FedAvgConvergesUnderThirtyPercentDropout) {
  FaultPlan plan;
  plan.seed = 5;
  plan.dropout_prob = 0.3;
  plan.straggler_prob = 0.2;
  plan.straggler_mean_slowdown = 4.0;
  plan.truncation_prob = 0.05;
  plan.round_deadline_s = 120.0;
  plan.min_quorum = 2;
  SimNetwork net(plan);

  federated::FedAvgTrainer trainer(factory, shards, fed_config(15));
  trainer.attach_network(&net);
  const auto history = trainer.run(test_set);

  ASSERT_EQ(history.size(), 15U);
  EXPECT_GT(history.back().test_accuracy, 0.75);
  EXPECT_GT(history.back().test_accuracy, history.front().test_accuracy);
  EXPECT_GT(net.counters().dropouts, 0);
  // Survivor-weighted rounds keep making progress with partial cohorts.
  for (const federated::RoundStats& rs : history)
    EXPECT_LE(rs.clients_delivered, rs.clients_selected);
}

TEST_F(SimFedFixture, QuorumAbortKeepsGlobalModelUnchanged) {
  FaultPlan plan;
  plan.dropout_prob = 1.0;  // nobody ever participates
  SimNetwork net(plan);
  federated::FedAvgTrainer trainer(factory, shards, fed_config(3));
  trainer.attach_network(&net);

  const std::vector<float> w_before =
      nn::flatten_values(trainer.global_model().parameters());
  const auto history = trainer.run(test_set);
  const std::vector<float> w_after =
      nn::flatten_values(trainer.global_model().parameters());

  EXPECT_EQ(w_before, w_after);
  EXPECT_EQ(net.counters().aborts, 3);
  for (const federated::RoundStats& rs : history) {
    EXPECT_TRUE(rs.aborted);
    EXPECT_EQ(rs.clients_delivered, 0);
    EXPECT_EQ(rs.train_loss, 0.0);
  }
  // Nobody even downloaded: no traffic at all.
  EXPECT_EQ(trainer.ledger().total(), 0U);
}

TEST_F(SimFedFixture, FailedUploadsWasteBytesInTheLedger) {
  FaultPlan plan;
  plan.seed = 3;
  plan.truncation_prob = 1.0;  // every upload dies; all rounds abort
  plan.max_retries = 1;
  SimNetwork net(plan);
  federated::FedAvgTrainer trainer(factory, shards, fed_config(2));
  trainer.attach_network(&net);
  trainer.run(test_set);

  const std::uint64_t model_bytes =
      static_cast<std::uint64_t>(trainer.model_size()) * 4;
  // Downloads all landed; upload traffic exists but delivered nothing.
  EXPECT_EQ(trainer.ledger().bytes_down, 2 * 6 * model_bytes);
  EXPECT_GT(trainer.ledger().bytes_up, 0U);
  EXPECT_EQ(trainer.ledger().bytes_up, net.counters().bytes_wasted);
}

TEST_F(SimFedFixture, SelectiveSgdSurvivesFaultsAndStillLearns) {
  FaultPlan plan;
  plan.seed = 21;
  plan.dropout_prob = 0.25;
  plan.truncation_prob = 0.1;
  SimNetwork net(plan);

  federated::SelectiveSGDConfig cfg;
  cfg.rounds = 12;
  cfg.upload_fraction = 0.2;
  federated::SelectiveSGDTrainer trainer(factory, shards, cfg);
  trainer.attach_network(&net);
  const auto history = trainer.run(test_set);

  EXPECT_GT(history.back().test_accuracy, 0.6);
  EXPECT_GT(net.counters().dropouts, 0);
  for (const federated::RoundStats& rs : history) {
    EXPECT_EQ(rs.clients_selected, 6);
    EXPECT_LE(rs.clients_delivered, rs.clients_selected);
  }
}

TEST_F(SimFedFixture, DpFedAvgAbortChargesNoPrivacyBudget) {
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.client_sample_prob = 0.9;
  cfg.local_epochs = 1;
  cfg.noise_multiplier = 1.0;

  FaultPlan plan;
  plan.dropout_prob = 1.0;  // every round aborts
  SimNetwork net(plan);
  privacy::DpFedAvgTrainer trainer(factory, shards, cfg);
  trainer.attach_network(&net);
  const auto history = trainer.run(test_set);

  ASSERT_EQ(history.size(), 3U);
  for (const privacy::DpRoundStats& rs : history) {
    EXPECT_TRUE(rs.aborted);
    EXPECT_EQ(rs.clients_delivered, 0);
  }
  // Nothing was released, so no budget accrues: epsilon sits at the
  // accountant's delta-only floor and never grows across rounds.
  EXPECT_EQ(history[0].epsilon, history[1].epsilon);
  EXPECT_EQ(history[1].epsilon, history[2].epsilon);
}

TEST_F(SimFedFixture, DpFedAvgTrainsThroughModerateFaults) {
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 8;
  cfg.client_sample_prob = 0.9;
  cfg.local_epochs = 2;
  cfg.noise_multiplier = 0.3;
  cfg.clip_norm = 10.0;

  FaultPlan plan;
  plan.seed = 17;
  plan.dropout_prob = 0.2;
  SimNetwork net(plan);
  privacy::DpFedAvgTrainer trainer(factory, shards, cfg);
  trainer.attach_network(&net);
  const auto history = trainer.run(test_set);

  EXPECT_GT(history.back().test_accuracy, 0.5);
  EXPECT_GT(history.back().epsilon, 0.0);
  EXPECT_GT(net.counters().dropouts, 0);
}

}  // namespace
}  // namespace mdl::sim
