// Quickstart: train a small classifier with mdl::nn, evaluate it, and save
// a checkpoint — the minimal end-to-end tour of the library.
//
//   $ ./build/examples/quickstart
#include <fstream>
#include <iostream>

#include "data/synthetic.hpp"
#include "federated/common.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

int main() {
  using namespace mdl;

  // 1. Make a synthetic 10-class dataset (stand-in for any tabular task).
  Rng rng(42);
  data::SyntheticConfig config;
  config.num_samples = 2000;
  config.num_features = 20;
  config.num_classes = 10;
  config.class_sep = 2.5;
  const data::TabularDataset dataset = data::make_classification(config, rng);
  const data::TabularSplit split = data::train_test_split(dataset, 0.2, rng);
  std::cout << "dataset: " << split.train.size() << " train / "
            << split.test.size() << " test, " << dataset.dim()
            << " features, " << dataset.num_classes << " classes\n";

  // 2. Build a two-layer MLP.
  nn::Sequential model;
  model.emplace<nn::Linear>(config.num_features, 64, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Linear>(64, config.num_classes, rng);
  std::cout << "model: " << model.name() << " (" << model.param_count()
            << " parameters, " << model.flops_per_example()
            << " FLOPs/example)\n";

  // 3. Train with Adam + cross-entropy.
  nn::Adam optimizer(model.parameters(), 0.01);
  nn::SoftmaxCrossEntropy loss;
  for (int epoch = 1; epoch <= 10; ++epoch) {
    double epoch_loss = 0.0;
    const auto batches = data::minibatch_indices(
        static_cast<std::size_t>(split.train.size()), 64, rng);
    for (const auto& batch : batches) {
      const data::TabularDataset b = split.train.subset(batch);
      epoch_loss += loss.forward(model.forward(b.features), b.labels);
      model.zero_grad();
      model.backward(loss.backward());
      optimizer.step();
    }
    std::cout << "epoch " << epoch << "  loss "
              << epoch_loss / static_cast<double>(batches.size()) << '\n';
  }

  // 4. Evaluate.
  const double acc = federated::evaluate_accuracy(model, split.test);
  std::cout << "test accuracy: " << acc * 100.0 << "%\n";

  // 5. Checkpoint round-trip.
  {
    std::ofstream out("quickstart_model.bin", std::ios::binary);
    BinaryWriter writer(out);
    model.save_state(writer);
    std::cout << "checkpoint written: quickstart_model.bin ("
              << writer.bytes_written() << " bytes)\n";
  }
  nn::Sequential restored;
  restored.emplace<nn::Linear>(config.num_features, 64, rng);
  restored.emplace<nn::ReLU>();
  restored.emplace<nn::Linear>(64, config.num_classes, rng);
  {
    std::ifstream in("quickstart_model.bin", std::ios::binary);
    BinaryReader reader(in);
    restored.load_state(reader);
  }
  std::cout << "restored accuracy: "
            << federated::evaluate_accuracy(restored, split.test) * 100.0
            << "%\n";
  return 0;
}
