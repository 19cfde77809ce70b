// Model compression for mobile deployment (paper §III-B): run the full
// Deep Compression pipeline (prune -> weight sharing -> Huffman) on a
// trained classifier, compare against low-rank factorization and
// distillation, and plan the on-device deployment with the mobile cost
// model.
//
//   $ ./build/examples/compress_deploy
#include <iostream>

#include "compress/deep_compression.hpp"
#include "compress/distill.hpp"
#include "compress/low_rank.hpp"
#include "compress/prune.hpp"
#include "core/table.hpp"
#include "data/synthetic.hpp"
#include "federated/common.hpp"
#include "mobile/cost_model.hpp"
#include "nn/optimizer.hpp"

int main() {
  using namespace mdl;

  Rng rng(41);
  data::SyntheticConfig sc;
  sc.num_samples = 2000;
  sc.num_features = 32;
  sc.num_classes = 8;
  sc.class_sep = 2.5;
  const data::TabularDataset dataset = data::make_classification(sc, rng);
  const data::TabularSplit split = data::train_test_split(dataset, 0.2, rng);

  // Train the "large" reference model.
  Rng model_rng(43);
  auto model = federated::mlp_factory(32, 128, 8)(model_rng);
  Rng train_rng(47);
  federated::local_sgd(*model, split.train, 20, 32, 0.1, train_rng);
  const double base_acc = federated::evaluate_accuracy(*model, split.test);

  TablePrinter table({"Stage", "Storage", "Accuracy"});
  table.begin_row()
      .add("dense f32 (baseline)")
      .add(format_bytes(compress::model_dense_bytes(*model)))
      .add_percent(base_acc);

  // Stage 1: prune 80% of weights, then fine-tune with the mask held.
  compress::prune_model(*model, 0.8);
  nn::SoftmaxCrossEntropy loss;
  nn::SGD optimizer(model->parameters(), 0.05);
  Rng ft_rng(53);
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto batches = data::minibatch_indices(
        static_cast<std::size_t>(split.train.size()), 32, ft_rng);
    for (const auto& batch : batches) {
      const data::TabularDataset b = split.train.subset(batch);
      loss.forward(model->forward(b.features), b.labels);
      model->zero_grad();
      model->backward(loss.backward());
      compress::mask_pruned_gradients(*model);
      optimizer.step();
    }
  }
  table.begin_row()
      .add("pruned 80% (CSR)")
      .add(format_bytes(compress::model_pruned_bytes(*model)))
      .add_percent(federated::evaluate_accuracy(*model, split.test));

  // Stages 2+3: 5-bit weight sharing + Huffman coding.
  compress::QuantizeConfig qc;
  qc.bits = 5;
  const compress::CompressedModel artifact =
      compress::compress_model(*model, qc);
  Rng restore_rng(59);
  auto restored = federated::mlp_factory(32, 128, 8)(restore_rng);
  artifact.restore_into(*restored);
  table.begin_row()
      .add("+ 5-bit weight sharing")
      .add(format_bytes(artifact.quantized_bytes()))
      .add_percent(federated::evaluate_accuracy(*restored, split.test));
  table.begin_row()
      .add("+ Huffman coding")
      .add(format_bytes(artifact.compressed_bytes()))
      .add_percent(federated::evaluate_accuracy(*restored, split.test));

  // Alternative: low-rank factorization of the dense model.
  Rng lr_model_rng(43);
  auto dense_again = federated::mlp_factory(32, 128, 8)(lr_model_rng);
  Rng lr_train_rng(47);
  federated::local_sgd(*dense_again, split.train, 20, 32, 0.1, lr_train_rng);
  Rng lr_rng(61);
  auto low_rank = compress::low_rank_factorize_mlp(*dense_again, 8, lr_rng);
  table.begin_row()
      .add("low-rank (r=8)")
      .add(format_bytes(compress::model_dense_bytes(*low_rank)))
      .add_percent(federated::evaluate_accuracy(*low_rank, split.test));

  // Alternative: distill into a 16-unit student.
  Rng student_rng(67);
  auto student = federated::mlp_factory(32, 16, 8)(student_rng);
  compress::DistillConfig dc;
  dc.epochs = 25;
  const double student_acc =
      compress::distill(*dense_again, *student, split.train, split.test, dc);
  table.begin_row()
      .add("distilled student (16 units)")
      .add(format_bytes(compress::model_dense_bytes(*student)))
      .add_percent(student_acc);

  table.print(std::cout);

  // Deployment plan for the compressed model on a phone.
  mobile::InferencePlanner planner(mobile::DeviceProfile::mobile_soc(),
                                   mobile::DeviceProfile::cloud_server(),
                                   mobile::NetworkModel::lte());
  const auto on_device = planner.on_device(restored->flops_per_example());
  std::cout << "\non-device inference (mobile SoC): "
            << on_device.latency_s * 1e6 << " us/query, app payload "
            << format_bytes(artifact.compressed_bytes()) << " (vs "
            << format_bytes(compress::model_dense_bytes(*restored))
            << " uncompressed)\n";
  return 0;
}
