#include "split/split_inference.hpp"

#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mdl::split {

SplitInference::SplitInference(std::unique_ptr<nn::Sequential> local,
                               std::unique_ptr<nn::Sequential> cloud)
    : local_(std::move(local)), cloud_(std::move(cloud)) {
  MDL_CHECK(local_ != nullptr && cloud_ != nullptr,
            "both halves must be provided");
  local_->set_training(false);  // frozen feature extractor
}

SplitInference SplitInference::from_whole(
    std::unique_ptr<nn::Sequential> whole, std::size_t split_point) {
  MDL_CHECK(whole != nullptr, "null model");
  auto cloud = whole->split_off(split_point);
  return SplitInference(std::move(whole), std::move(cloud));
}

Tensor SplitInference::local_representation(const Tensor& x) {
  MDL_OBS_SPAN("split.local_representation");
  return local_->forward(x);
}

Tensor SplitInference::perturb(const Tensor& representation,
                               const PerturbConfig& config, Rng& rng) const {
  MDL_CHECK(config.nullification_rate >= 0.0 &&
                config.nullification_rate <= 1.0,
            "nullification rate must be in [0, 1]");
  MDL_CHECK(config.clip_bound > 0.0, "clip bound must be positive");
  MDL_CHECK(config.laplace_scale >= 0.0, "laplace scale must be >= 0");
  MDL_OBS_SPAN("split.perturb");
  Tensor out = representation;
  out.clamp_(-static_cast<float>(config.clip_bound),
             static_cast<float>(config.clip_bound));
  privacy::nullify(out.flat(), config.nullification_rate, rng);
  if (config.laplace_scale > 0.0) {
    for (std::int64_t i = 0; i < out.size(); ++i)
      out[i] += static_cast<float>(rng.laplace(config.laplace_scale));
  }
  return out;
}

Tensor SplitInference::cloud_logits(const Tensor& representation) {
  MDL_OBS_SPAN("split.cloud_logits");
  return cloud_->forward(representation);
}

Tensor SplitInference::cloud_infer(const Tensor& representation) const {
  MDL_OBS_SPAN("split.cloud_logits");
  return cloud_->infer(representation);
}

Tensor SplitInference::local_infer(const Tensor& x) const {
  MDL_OBS_SPAN("split.local_representation");
  return local_->infer(x);
}

std::vector<std::int64_t> SplitInference::predict(const Tensor& x,
                                                  const PerturbConfig& config,
                                                  Rng& rng) {
  cloud_->set_training(false);
  MDL_OBS_COUNTER_ADD("split.predictions",
                      static_cast<std::uint64_t>(x.shape(0)));
  const Tensor rep = perturb(local_representation(x), config, rng);
  return cloud_logits(rep).argmax_rows();
}

double SplitInference::evaluate(const data::TabularDataset& ds,
                                const PerturbConfig& config, Rng& rng) {
  return nn::accuracy(ds.labels, predict(ds.features, config, rng));
}

double SplitInference::train_cloud(const data::TabularDataset& train,
                                   const PerturbConfig& config, bool noisy,
                                   std::int64_t epochs,
                                   std::int64_t batch_size, double lr,
                                   Rng& rng) {
  MDL_CHECK(train.size() > 0, "empty training set");
  MDL_CHECK(epochs > 0 && batch_size > 0 && lr > 0.0, "invalid config");
  MDL_OBS_SPAN("split.train_cloud");

  // Clean representations are deterministic (frozen local part): compute
  // once; noisy training re-perturbs per minibatch.
  const data::TabularDataset clean{local_representation(train.features),
                                   train.labels, train.num_classes};
  cloud_->set_training(true);
  nn::SGD optimizer(cloud_->parameters(), lr);
  nn::SoftmaxCrossEntropy loss;
  double last_loss = 0.0;

  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    const auto batches =
        data::minibatch_indices(static_cast<std::size_t>(train.size()),
                                static_cast<std::size_t>(batch_size), rng);
    double sum = 0.0;
    for (const auto& batch : batches) {
      data::TabularDataset b = clean.subset(batch);
      if (noisy) b.features = perturb(b.features, config, rng);
      sum += loss.forward(cloud_->forward(b.features), b.labels);
      cloud_->zero_grad();
      cloud_->backward(loss.backward());
      optimizer.step();
    }
    last_loss = sum / static_cast<double>(batches.size());
  }
  return last_loss;
}

std::int64_t SplitInference::representation_dim(std::int64_t input_dim) {
  Tensor probe({1, input_dim});
  return local_->forward(probe).shape(1);
}

}  // namespace mdl::split
