// E5 — §III-B: model compression and acceleration. Reproduces the three
// approaches the paper surveys with exact storage accounting:
//   1. parameter pruning + k-means weight sharing + Huffman coding
//      (the Deep Compression pipeline, its Huffman stage BlockCodec over
//      the index streams), swept over sparsity and bit width;
//   2. low-rank factorization, swept over rank;
//   3. model distillation into small students.
#include <iostream>

#include "bench_util.hpp"
#include "compress/circulant.hpp"
#include "compress/deep_compression.hpp"
#include "compress/distill.hpp"
#include "compress/int8.hpp"
#include "compress/low_rank.hpp"
#include "compress/prune.hpp"
#include "core/table.hpp"
#include "data/synthetic.hpp"
#include "federated/common.hpp"
#include "nn/activations.hpp"
#include "nn/optimizer.hpp"

namespace {

using namespace mdl;

/// Fine-tunes a pruned model for a few epochs with the zero mask held.
void finetune_pruned(nn::Sequential& model, const data::TabularDataset& train,
                     std::int64_t epochs, std::uint64_t seed) {
  nn::SoftmaxCrossEntropy loss;
  nn::SGD optimizer(model.parameters(), 0.05);
  Rng rng(seed);
  for (std::int64_t e = 0; e < epochs; ++e) {
    const auto batches = data::minibatch_indices(
        static_cast<std::size_t>(train.size()), 32, rng);
    for (const auto& batch : batches) {
      const data::TabularDataset b = train.subset(batch);
      loss.forward(model.forward(b.features), b.labels);
      model.zero_grad();
      model.backward(loss.backward());
      compress::mask_pruned_gradients(model);
      optimizer.step();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E5", "§III-B (model compression)",
                "Deep Compression (prune -> weight share -> Huffman), "
                "low-rank factorization,\nand distillation: storage vs "
                "accuracy with byte-exact accounting.");
  bench::init_logging(argc, argv);

  Rng rng(512);
  data::SyntheticConfig sc;
  sc.num_samples = bench::scaled(2500, 600);
  sc.num_features = 32;
  sc.num_classes = 8;
  sc.class_sep = 2.5;
  const data::TabularDataset dataset = data::make_classification(sc, rng);
  const data::TabularSplit split = data::train_test_split(dataset, 0.2, rng);

  const federated::ModelFactory factory = federated::mlp_factory(32, 128, 8);
  const std::int64_t train_epochs = bench::scaled(20, 6);

  Rng ref_rng(1);
  auto reference = factory(ref_rng);
  Rng ref_train(2);
  federated::local_sgd(*reference, split.train, train_epochs, 32, 0.1,
                       ref_train);
  const double base_acc = federated::evaluate_accuracy(*reference, split.test);
  const std::uint64_t dense_bytes = compress::model_dense_bytes(*reference);
  std::cout << "reference MLP(32-128-8): " << format_bytes(dense_bytes)
            << ", accuracy " << base_acc * 100.0 << "%\n\n";

  std::cout << "--- Deep Compression sweep ---\n";
  TablePrinter dc_table({"sparsity", "bits", "pruned (CSR)", "quantized",
                         "+Huffman", "ratio", "accuracy"});
  for (const double sparsity : {0.5, 0.8, 0.9}) {
    // 12 bits at 50% sparsity outgrows a one-byte index (codebook > 256),
    // so the sweep also covers the two-plane index stream.
    for (const int bits : {4, 6, 8, 12}) {
      Rng m_rng(1);
      auto model = factory(m_rng);
      Rng t_rng(2);
      federated::local_sgd(*model, split.train, train_epochs, 32, 0.1, t_rng);
      compress::prune_model(*model, sparsity);
      finetune_pruned(*model, split.train, bench::scaled(5, 2), 77);
      compress::QuantizeConfig qc;
      qc.bits = bits;
      const compress::CompressedModel artifact =
          compress::compress_model(*model, qc);
      Rng r_rng(3);
      auto restored = factory(r_rng);
      artifact.restore_into(*restored);
      bench::log(bench::record("trial")
                     .add("method", "deep_compression")
                     .add("sparsity", sparsity)
                     .add("bits", bits)
                     .add("compressed_bytes", artifact.compressed_bytes())
                     .add("ratio",
                          static_cast<double>(dense_bytes) /
                              static_cast<double>(artifact.compressed_bytes()))
                     .add("accuracy", federated::evaluate_accuracy(
                                          *restored, split.test)));
      dc_table.begin_row()
          .add(sparsity, 1)
          .add(static_cast<std::int64_t>(bits))
          .add(format_bytes(compress::model_pruned_bytes(*model)))
          .add(format_bytes(artifact.quantized_bytes()))
          .add(format_bytes(artifact.compressed_bytes()))
          .add(static_cast<double>(dense_bytes) /
                   static_cast<double>(artifact.compressed_bytes()),
               1)
          .add_percent(federated::evaluate_accuracy(*restored, split.test));
    }
  }
  dc_table.print(std::cout);

  std::cout << "\n--- Low-rank factorization sweep ---\n";
  TablePrinter lr_table({"rank", "params", "storage", "accuracy"});
  for (const std::int64_t rank : {4, 8, 16}) {
    Rng f_rng(4);
    auto factored = compress::low_rank_factorize_mlp(*reference, rank, f_rng);
    bench::log(bench::record("trial")
                   .add("method", "low_rank")
                   .add("rank", rank)
                   .add("storage_bytes", compress::model_dense_bytes(*factored))
                   .add("accuracy", federated::evaluate_accuracy(
                                        *factored, split.test)));
    lr_table.begin_row()
        .add(rank)
        .add(factored->param_count())
        .add(format_bytes(compress::model_dense_bytes(*factored)))
        .add_percent(federated::evaluate_accuracy(*factored, split.test));
  }
  lr_table.print(std::cout);

  std::cout << "\n--- Fixed-point int8 inference (dynamic-range) ---\n";
  {
    TablePrinter int8_table({"form", "storage", "accuracy"});
    int8_table.begin_row()
        .add("float32 reference")
        .add(format_bytes(dense_bytes))
        .add_percent(base_acc);
    auto deployed = compress::int8_quantize_mlp(*reference);
    std::uint64_t int8_bytes = 0;
    for (std::size_t i = 0; i < deployed->size(); ++i)
      if (auto* q = dynamic_cast<compress::Int8Linear*>(&deployed->layer(i)))
        int8_bytes += q->storage_bytes();
    const double int8_acc = federated::evaluate_accuracy(*deployed, split.test);
    bench::log(bench::record("trial")
                   .add("method", "int8")
                   .add("storage_bytes", int8_bytes)
                   .add("accuracy", int8_acc));
    int8_table.begin_row()
        .add("int8 weights + dynamic activations")
        .add(format_bytes(int8_bytes))
        .add_percent(int8_acc);
    int8_table.print(std::cout);
  }

  std::cout << "\n--- Structured-matrix (block-circulant, CirCNN) sweep ---\n";
  TablePrinter circ_table({"block", "params", "storage", "acc (projected)",
                           "acc (fine-tuned)"});
  for (const std::int64_t block : {4, 8}) {
    // Project both trained Linear layers onto block-circulant structure.
    auto* l1 = dynamic_cast<nn::Linear*>(&reference->layer(0));
    auto* l2 = dynamic_cast<nn::Linear*>(&reference->layer(2));
    MDL_CHECK(l1 != nullptr && l2 != nullptr, "unexpected reference layout");
    Rng c_rng(6);
    nn::Sequential circ_model;
    circ_model.append(compress::circulant_from_linear(*l1, block, c_rng));
    circ_model.emplace<nn::ReLU>();
    circ_model.append(compress::circulant_from_linear(*l2, block, c_rng));
    const double projected_acc =
        federated::evaluate_accuracy(circ_model, split.test);
    // Fine-tune in the circulant parameterization (FFT gradients).
    Rng ft2(7);
    federated::local_sgd(circ_model, split.train, bench::scaled(8, 3), 32,
                         0.05, ft2);
    const double finetuned_acc =
        federated::evaluate_accuracy(circ_model, split.test);
    bench::log(bench::record("trial")
                   .add("method", "block_circulant")
                   .add("block", block)
                   .add("storage_bytes",
                        compress::model_dense_bytes(circ_model))
                   .add("accuracy_projected", projected_acc)
                   .add("accuracy_finetuned", finetuned_acc));
    circ_table.begin_row()
        .add(block)
        .add(circ_model.param_count())
        .add(format_bytes(compress::model_dense_bytes(circ_model)))
        .add_percent(projected_acc)
        .add_percent(finetuned_acc);
  }
  circ_table.print(std::cout);

  std::cout << "\n--- Distillation sweep (teacher = reference) ---\n";
  TablePrinter kd_table({"student hidden", "storage", "accuracy (distilled)"});
  for (const std::int64_t hidden : {8, 16, 32}) {
    Rng s_rng(5);
    auto student = federated::mlp_factory(32, hidden, 8)(s_rng);
    compress::DistillConfig dc;
    dc.epochs = bench::scaled(25, 8);
    const double acc = compress::distill(*reference, *student, split.train,
                                         split.test, dc);
    bench::log(bench::record("trial")
                   .add("method", "distill")
                   .add("student_hidden", hidden)
                   .add("storage_bytes",
                        compress::model_dense_bytes(*student))
                   .add("accuracy", acc));
    kd_table.begin_row()
        .add(hidden)
        .add(format_bytes(compress::model_dense_bytes(*student)))
        .add_percent(acc);
  }
  kd_table.print(std::cout);

  std::cout << "\nShape targets (Deep Compression paper): ~90% pruning + "
               "<= 6-bit codebooks + Huffman\nreaches tens-of-x compression "
               "at <= 1-2 points of accuracy; low-rank and distillation\n"
               "trade storage for accuracy smoothly.\n";
  bench::log_metrics_snapshot();
  return 0;
}
