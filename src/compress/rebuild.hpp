// Internal to mdl_compress: the one rule by which a trained MLP is rebuilt
// into a deployment graph (int8, sparse and low-rank entry points).
#pragma once

#include <memory>
#include <string_view>

#include "core/error.hpp"
#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace mdl::compress::detail {

/// Walks `model` in layer order. Each nn::Linear goes to
/// `on_linear(linear, out)`, which appends its replacement to `out`; ReLU,
/// Sigmoid and Tanh are copied; Dropout, the identity at inference, is
/// dropped; any other layer throws an error naming `caller`. Returns `out`
/// in eval mode.
template <typename OnLinear>
std::unique_ptr<nn::Sequential> rebuild_mlp(nn::Sequential& model,
                                            std::string_view caller,
                                            OnLinear&& on_linear) {
  auto out = std::make_unique<nn::Sequential>();
  for (std::size_t i = 0; i < model.size(); ++i) {
    nn::Module& layer = model.layer(i);
    if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
      on_linear(*lin, *out);
    } else if (dynamic_cast<nn::ReLU*>(&layer) != nullptr) {
      out->emplace<nn::ReLU>();
    } else if (dynamic_cast<nn::Sigmoid*>(&layer) != nullptr) {
      out->emplace<nn::Sigmoid>();
    } else if (dynamic_cast<nn::Tanh*>(&layer) != nullptr) {
      out->emplace<nn::Tanh>();
    } else if (dynamic_cast<nn::Dropout*>(&layer) == nullptr) {
      MDL_FAIL("layer " << layer.name() << " cannot be rebuilt by "
                        << caller);
    }
  }
  out->set_training(false);
  return out;
}

}  // namespace mdl::compress::detail
