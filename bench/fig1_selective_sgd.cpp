// E1 — Fig. 1: distributed selective SGD (Shokri & Shmatikov). Sweeps the
// upload fraction theta and the number of participants, comparing against
// the centralized upper bound and the standalone (train-on-own-shard-only)
// lower bound.
//
// Shape targets: theta = 0.1 approaches centralized accuracy while moving
// ~10% of the gradients; even theta = 0.01 beats standalone training.
#include <iostream>

#include "bench_util.hpp"
#include "core/table.hpp"
#include "data/synthetic.hpp"
#include "federated/selective_sgd.hpp"

int main(int argc, char** argv) {
  using namespace mdl;
  bench::banner("E1", "Fig. 1 (distributed selective SGD)",
                "Accuracy vs gradient upload fraction theta and participant "
                "count,\nagainst centralized and standalone baselines.");
  bench::init_logging(argc, argv);
  const bench::CheckpointArgs ckpt_args =
      bench::parse_checkpoint_args(argc, argv);

  Rng rng(314);
  data::SyntheticConfig sc;
  sc.num_samples = bench::scaled(3000, 600);
  sc.num_features = 24;
  sc.num_classes = 10;
  sc.class_sep = 4.0;
  const data::TabularDataset dataset = data::make_classification(sc, rng);
  const data::TabularSplit split = data::train_test_split(dataset, 0.2, rng);
  const federated::ModelFactory factory = federated::mlp_factory(24, 32, 10);
  const std::int64_t rounds = bench::scaled(20, 5);

  // Baselines.
  Rng c_rng(1);
  auto central = factory(c_rng);
  Rng ct_rng(2);
  // Centralized baseline: SGD on the union of shards (upper bound).
  federated::local_sgd(*central, split.train, rounds, 16, 0.1, ct_rng);
  const double centralized_acc =
      federated::evaluate_accuracy(*central, split.test);

  const std::size_t participants = 5;
  Rng part_rng(3);
  const auto shards =
      data::partition_dirichlet(split.train, participants, 0.5, part_rng);
  Rng s_rng(4);
  auto standalone = factory(s_rng);
  Rng st_rng(5);
  federated::local_sgd(*standalone, shards[0], rounds, 16, 0.1, st_rng);
  const double standalone_acc =
      federated::evaluate_accuracy(*standalone, split.test);

  std::cout << "centralized SGD (upper bound): " << centralized_acc * 100.0
            << "%\nstandalone, one shard (lower bound): "
            << standalone_acc * 100.0 << "%\n\n";

  TablePrinter table({"participants", "theta_u", "global acc",
                      "participant-0 acc", "comm (total)"});
  for (const double theta : {0.01, 0.1, 0.5, 1.0}) {
    federated::SelectiveSGDConfig cfg;
    cfg.rounds = rounds;
    cfg.upload_fraction = theta;
    cfg.download_fraction = theta < 1.0 ? theta * 2.0 : 1.0;
    cfg.checkpoint = bench::with_subdir(
        ckpt_args, "theta" + std::to_string(static_cast<int>(theta * 100)));
    federated::SelectiveSGDTrainer trainer(factory, shards, cfg);
    const auto history = trainer.run(split.test);
    for (const federated::RoundStats& rs : history)
      bench::log(bench::record("round")
                     .add("participants", static_cast<std::int64_t>(participants))
                     .add("theta_u", theta)
                     .add("round", rs.round)
                     .add("test_accuracy", rs.test_accuracy)
                     .add("train_loss", rs.train_loss)
                     .add("cumulative_bytes", rs.cumulative_bytes));
    bench::log(bench::record("trial")
                   .add("participants", static_cast<std::int64_t>(participants))
                   .add("theta_u", theta)
                   .add("global_accuracy", history.back().test_accuracy)
                   .add("participant0_accuracy",
                        trainer.participant_accuracy(0, split.test))
                   .add("total_bytes", trainer.ledger().total())
                   .add("centralized_accuracy", centralized_acc)
                   .add("standalone_accuracy", standalone_acc));
    table.begin_row()
        .add(static_cast<std::int64_t>(participants))
        .add(theta, 2)
        .add_percent(history.back().test_accuracy)
        .add_percent(trainer.participant_accuracy(0, split.test))
        .add(format_bytes(trainer.ledger().total()));
  }

  // Participant-count sweep at theta = 0.1.
  for (const std::size_t n : {2UL, 10UL}) {
    Rng p_rng(6 + n);
    const auto n_shards =
        data::partition_dirichlet(split.train, n, 0.5, p_rng);
    federated::SelectiveSGDConfig cfg;
    cfg.rounds = rounds;
    cfg.upload_fraction = 0.1;
    cfg.download_fraction = 0.2;
    cfg.checkpoint =
        bench::with_subdir(ckpt_args, "n" + std::to_string(n));
    federated::SelectiveSGDTrainer trainer(factory, n_shards, cfg);
    const auto history = trainer.run(split.test);
    bench::log(bench::record("trial")
                   .add("participants", static_cast<std::int64_t>(n))
                   .add("theta_u", 0.1)
                   .add("global_accuracy", history.back().test_accuracy)
                   .add("participant0_accuracy",
                        trainer.participant_accuracy(0, split.test))
                   .add("total_bytes", trainer.ledger().total()));
    table.begin_row()
        .add(static_cast<std::int64_t>(n))
        .add(0.1, 2)
        .add_percent(history.back().test_accuracy)
        .add_percent(trainer.participant_accuracy(0, split.test))
        .add(format_bytes(trainer.ledger().total()));
  }
  table.print(std::cout);

  std::cout << "\nShape targets: theta = 0.1 approaches the centralized "
               "bound; every setting beats standalone ("
            << standalone_acc * 100.0 << "%).\n";
  bench::log_metrics_snapshot();
  return 0;
}
