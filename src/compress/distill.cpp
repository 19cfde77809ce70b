#include "compress/distill.hpp"

#include "core/random.hpp"
#include "federated/common.hpp"
#include "nn/optimizer.hpp"

namespace mdl::compress {

double distill(nn::Sequential& teacher, nn::Sequential& student,
               const data::TabularDataset& train,
               const data::TabularDataset& test, const DistillConfig& config) {
  MDL_CHECK(train.size() > 0, "empty training set");
  MDL_CHECK(config.epochs > 0 && config.batch_size > 0 && config.lr > 0.0,
            "invalid distillation config");

  // Teacher logits are fixed; compute once.
  teacher.set_training(false);
  const Tensor teacher_logits = teacher.forward(train.features);

  Rng rng(config.seed);
  nn::DistillationLoss loss(config.temperature, config.alpha);
  student.set_training(true);
  nn::SGD optimizer(student.parameters(), config.lr);

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto batches =
        data::minibatch_indices(static_cast<std::size_t>(train.size()),
                                static_cast<std::size_t>(config.batch_size),
                                rng);
    for (const auto& batch : batches) {
      const data::TabularDataset b = train.subset(batch);
      loss.forward(student.forward(b.features),
                   teacher_logits.gather_rows(batch), b.labels);
      student.zero_grad();
      student.backward(loss.backward());
      optimizer.step();
    }
  }
  return federated::evaluate_accuracy(student, test);
}

}  // namespace mdl::compress
