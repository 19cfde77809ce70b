// Slow-labeled scale tests: a 100k-client virtual population run
// completes, stays deterministic, and never materializes the fleet, and a
// 1M-client run peaks at the resident set of a 1k-client one. The fast
// unit pins live in test_population.cpp; these exist to exercise client
// ids far beyond anything a materialized path ever saw.
#include <gtest/gtest.h>

#include <cstring>

#include "federated/fedavg.hpp"
#include "federated/population.hpp"
#include "nn/param_utils.hpp"
#include "obs/resource.hpp"

namespace mdl::federated {
namespace {

/// The E15 fleet: 24 features, 10 classes, 8-64 examples per client,
/// Dirichlet(0.3) label skew.
VirtualPopulationConfig e15_population(std::uint64_t num_clients) {
  VirtualPopulationConfig vc;
  vc.population_seed = 4242;
  vc.num_clients = num_clients;
  vc.num_features = 24;
  vc.num_classes = 10;
  vc.class_sep = 2.8;
  vc.min_examples = 8;
  vc.max_examples = 64;
  vc.label_skew_alpha = 0.3;
  return vc;
}

TEST(PopulationScale, HundredThousandClientsRunAndRepeat) {
  const auto pop =
      std::make_shared<VirtualPopulation>(e15_population(100000));
  const data::TabularDataset test = pop->test_set(500);
  const ModelFactory factory = mlp_factory(24, 32, 10);

  FedAvgConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 20;
  cfg.local_epochs = 2;
  cfg.seed = 7;

  FedAvgTrainer a(factory, pop, cfg);
  const auto ha = a.run(test);
  ASSERT_EQ(ha.size(), 2U);
  EXPECT_EQ(ha.back().clients_delivered, 20);
  // Worker pool scales with the cohort, not the fleet.
  EXPECT_LE(a.worker_pool_size(), kAggShards);

  // Deterministic: a second trainer over the same (seed, population)
  // produces the bit-identical model.
  FedAvgTrainer b(factory, pop, cfg);
  b.run(test);
  const auto wa = nn::flatten_values(a.global_model().parameters());
  const auto wb = nn::flatten_values(b.global_model().parameters());
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
}

// E15's memory bar: per-round cost is O(cohort), so FedAvg over 1M clients
// peaks within 2x the resident set of the same run over 1k. A materialized
// 1M fleet would need about 3.5 GB. Peak RSS is a process high-water mark
// (ctest runs each case in its own process), so the 1k leg runs first: its
// reading is its own, and the 1M leg's can only be inflated by it.
TEST(PopulationScale, MillionClientPeakRssIsOCohort) {
  const ModelFactory factory = mlp_factory(24, 32, 10);
  FedAvgConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 20;
  cfg.local_epochs = 2;
  cfg.seed = 7;

  const auto peak_after_run = [&](std::uint64_t num_clients) {
    const auto pop =
        std::make_shared<VirtualPopulation>(e15_population(num_clients));
    FedAvgTrainer trainer(factory, pop, cfg);
    const auto history = trainer.run(pop->test_set(500));
    EXPECT_EQ(history.back().clients_delivered, cfg.clients_per_round);
    return obs::peak_rss_bytes();
  };
  const std::uint64_t rss_1k = peak_after_run(1000);
  const std::uint64_t rss_1m = peak_after_run(1000000);
  EXPECT_LE(rss_1m, 2 * rss_1k)
      << "1k leg peak " << rss_1k << " B, 1M leg peak " << rss_1m << " B";
}

}  // namespace
}  // namespace mdl::federated
