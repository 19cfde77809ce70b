// Knowledge distillation (Hinton et al.) — §III-B's "model distillation":
// a small student mimics the softened outputs of a large teacher.
#pragma once

#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"

namespace mdl::compress {

struct DistillConfig {
  double alpha = 0.7;  ///< weight on the soft (teacher) loss
  std::int64_t epochs = 20;
  std::uint64_t seed = 23;
};

/// Trains `student` against `teacher`'s logits on `train` with the mixed
/// KD objective; returns the student's accuracy on `test`.
double distill(nn::Sequential& teacher, nn::Sequential& student,
               const data::TabularDataset& train,
               const data::TabularDataset& test, const DistillConfig& config);

}  // namespace mdl::compress
