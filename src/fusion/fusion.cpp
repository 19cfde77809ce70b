#include "fusion/fusion.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "nn/init.hpp"

namespace mdl::fusion {

FusionLayer::FusionLayer(std::vector<std::int64_t> view_dims,
                         std::int64_t classes)
    : view_dims_(std::move(view_dims)), classes_(classes) {
  MDL_CHECK(!view_dims_.empty(), "fusion needs at least one view");
  for (std::int64_t d : view_dims_)
    MDL_CHECK(d > 0, "view dim must be positive, got " << d);
  // classes == 1 is allowed: a single-output head is useful for regression
  // scores and for unit-testing the interaction algebra directly.
  MDL_CHECK(classes >= 1, "fusion needs >= 1 output, got " << classes);
}

void FusionLayer::check_views(const std::vector<Tensor>& views) const {
  MDL_CHECK(views.size() == view_dims_.size(),
            "expected " << view_dims_.size() << " views, got "
                        << views.size());
  const std::int64_t batch = views.front().shape(0);
  for (std::size_t p = 0; p < views.size(); ++p) {
    MDL_CHECK(views[p].ndim() == 2 && views[p].shape(0) == batch &&
                  views[p].shape(1) == view_dims_[p],
              "view " << p << " has shape " << views[p].shape_str()
                      << ", expected [" << batch << ", " << view_dims_[p]
                      << ']');
  }
}

namespace {

std::int64_t sum_dims(const std::vector<std::int64_t>& dims) {
  return std::accumulate(dims.begin(), dims.end(), std::int64_t{0});
}

}  // namespace

// ---------------------------------------------------------------- FCFusion

FCFusion::FCFusion(std::vector<std::int64_t> view_dims,
                   std::int64_t hidden_units, std::int64_t classes, Rng& rng)
    : FusionLayer(std::move(view_dims), classes),
      hidden_units_(hidden_units),
      fc1_(sum_dims(view_dims_), hidden_units, rng),
      fc2_(hidden_units, classes, rng) {
  MDL_CHECK(hidden_units > 0, "hidden units must be positive");
}

Tensor FCFusion::forward(const std::vector<Tensor>& views) {
  check_views(views);
  const Tensor h = Tensor::concat_cols(views);
  return fc2_.forward(relu_.forward(fc1_.forward(h)));
}

Tensor FCFusion::infer(const std::vector<Tensor>& views) const {
  check_views(views);
  const Tensor h = Tensor::concat_cols(views);
  return fc2_.infer(relu_.infer(fc1_.infer(h)));
}

std::vector<Tensor> FCFusion::backward(const Tensor& grad_logits) {
  return fc1_.backward(relu_.backward(fc2_.backward(grad_logits)))
      .split_cols(view_dims_);
}

std::vector<Parameter*> FCFusion::parameters() {
  std::vector<Parameter*> out = fc1_.parameters();
  for (Parameter* p : fc2_.parameters()) out.push_back(p);
  return out;
}

std::string FCFusion::name() const {
  std::ostringstream os;
  os << "FCFusion(d=" << sum_dims(view_dims_) << ", k'=" << hidden_units_
     << ", c=" << classes_ << ')';
  return os.str();
}

std::int64_t FCFusion::flops_per_example() const {
  return fc1_.flops_per_example() + fc2_.flops_per_example();
}

// ----------------------------------------------- FactorizationMachineLayer

FactorizationMachineLayer::FactorizationMachineLayer(
    std::vector<std::int64_t> view_dims, std::int64_t factors,
    std::int64_t classes, Rng& rng)
    : FusionLayer(std::move(view_dims), classes),
      factors_(factors),
      total_dim_(sum_dims(view_dims_)),
      u_("fm_u", Tensor({classes, factors, total_dim_})),
      w_("fm_w", Tensor({classes, total_dim_ + 1})) {
  MDL_CHECK(factors > 0, "factor count must be positive");
  // Small init keeps the quadratic term from exploding at the start.
  nn::scaled_normal(u_.value, 0.05F, rng);
  nn::xavier_uniform(w_.value, total_dim_ + 1, classes, rng);
}

Tensor FactorizationMachineLayer::forward(const std::vector<Tensor>& views) {
  check_views(views);
  cached_h_ = Tensor::concat_cols(views);
  cached_q_ = Tensor({cached_h_.shape(0), classes_, factors_});
  return compute(cached_h_, &cached_q_);
}

Tensor FactorizationMachineLayer::infer(
    const std::vector<Tensor>& views) const {
  check_views(views);
  return compute(Tensor::concat_cols(views), nullptr);
}

Tensor FactorizationMachineLayer::compute(const Tensor& hcat,
                                          Tensor* q_sink) const {
  const std::int64_t batch = hcat.shape(0);
  const std::int64_t d = total_dim_;
  const std::int64_t k = factors_;

  Tensor y({batch, classes_});
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* h = hcat.data() + b * d;
    for (std::int64_t a = 0; a < classes_; ++a) {
      const float* ua = u_.value.data() + a * k * d;
      const float* wa = w_.value.data() + a * (d + 1);
      double score = wa[d];  // global bias
      for (std::int64_t i = 0; i < d; ++i) score += wa[i] * h[i];
      float* q = q_sink != nullptr
                     ? q_sink->data() + (b * classes_ + a) * k
                     : nullptr;
      for (std::int64_t j = 0; j < k; ++j) {
        double acc = 0.0;
        const float* uaj = ua + j * d;
        for (std::int64_t i = 0; i < d; ++i) acc += uaj[i] * h[i];
        if (q != nullptr) q[j] = static_cast<float>(acc);
        score += acc * acc;
      }
      y[b * classes_ + a] = static_cast<float>(score);
    }
  }
  return y;
}

std::vector<Tensor> FactorizationMachineLayer::backward(
    const Tensor& grad_logits) {
  MDL_CHECK(!cached_h_.empty(), "backward before forward");
  const std::int64_t batch = cached_h_.shape(0);
  const std::int64_t d = total_dim_;
  const std::int64_t k = factors_;
  MDL_CHECK(grad_logits.ndim() == 2 && grad_logits.shape(0) == batch &&
                grad_logits.shape(1) == classes_,
            "grad shape " << grad_logits.shape_str());

  Tensor gh({batch, d});
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* h = cached_h_.data() + b * d;
    float* ghb = gh.data() + b * d;
    for (std::int64_t a = 0; a < classes_; ++a) {
      const float g = grad_logits[b * classes_ + a];
      if (g == 0.0F) continue;
      float* ua = u_.grad.data() + a * k * d;
      const float* uav = u_.value.data() + a * k * d;
      float* wa = w_.grad.data() + a * (d + 1);
      const float* wav = w_.value.data() + a * (d + 1);
      const float* q = cached_q_.data() + (b * classes_ + a) * k;
      wa[d] += g;
      for (std::int64_t i = 0; i < d; ++i) {
        wa[i] += g * h[i];
        ghb[i] += g * wav[i];
      }
      for (std::int64_t j = 0; j < k; ++j) {
        const float coef = 2.0F * g * q[j];
        float* uaj = ua + j * d;
        const float* uajv = uav + j * d;
        for (std::int64_t i = 0; i < d; ++i) {
          uaj[i] += coef * h[i];
          ghb[i] += coef * uajv[i];
        }
      }
    }
  }

  return gh.split_cols(view_dims_);
}

std::vector<Parameter*> FactorizationMachineLayer::parameters() {
  return {&u_, &w_};
}

std::string FactorizationMachineLayer::name() const {
  std::ostringstream os;
  os << "FactorizationMachine(d=" << total_dim_ << ", k=" << factors_
     << ", c=" << classes_ << ')';
  return os.str();
}

std::int64_t FactorizationMachineLayer::flops_per_example() const {
  return classes_ * (2 * factors_ * total_dim_ + 2 * total_dim_);
}

// --------------------------------------------------- MultiviewMachineLayer

MultiviewMachineLayer::MultiviewMachineLayer(
    std::vector<std::int64_t> view_dims, std::int64_t factors,
    std::int64_t classes, Rng& rng)
    : FusionLayer(std::move(view_dims), classes), factors_(factors) {
  MDL_CHECK(factors > 0, "factor count must be positive");
  u_.reserve(view_dims_.size());
  for (std::size_t p = 0; p < view_dims_.size(); ++p) {
    u_.emplace_back("mvm_u" + std::to_string(p),
                    Tensor({classes, factors, view_dims_[p] + 1}));
    // Init near 1/sqrt within the product so m-way products stay O(1):
    // each |q| ~ 0.3 gives products ~ 0.3^m.
    nn::scaled_normal(u_.back().value, 0.3F, rng);
  }
}

Tensor MultiviewMachineLayer::forward(const std::vector<Tensor>& views) {
  check_views(views);
  cached_views_ = views;
  return compute(views, cached_q_);
}

Tensor MultiviewMachineLayer::infer(const std::vector<Tensor>& views) const {
  check_views(views);
  std::vector<Tensor> q;
  return compute(views, q);
}

Tensor MultiviewMachineLayer::compute(const std::vector<Tensor>& views,
                                      std::vector<Tensor>& q) const {
  const std::int64_t batch = views.front().shape(0);
  const std::int64_t k = factors_;
  const std::int64_t m = num_views();

  // q is materialized per view in float32 first; the cross-view products
  // then multiply those float values in double.
  q.assign(static_cast<std::size_t>(m), Tensor());
  for (std::int64_t p = 0; p < m; ++p) {
    const std::int64_t dp = view_dims_[static_cast<std::size_t>(p)];
    Tensor qp({batch, classes_, k});
    const Tensor& uv = u_[static_cast<std::size_t>(p)].value;
    const Tensor& h = views[static_cast<std::size_t>(p)];
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* hb = h.data() + b * dp;
      for (std::int64_t a = 0; a < classes_; ++a) {
        const float* ua = uv.data() + a * k * (dp + 1);
        float* qba = qp.data() + (b * classes_ + a) * k;
        for (std::int64_t j = 0; j < k; ++j) {
          const float* uaj = ua + j * (dp + 1);
          double acc = uaj[dp];  // appended-1 bias input
          for (std::int64_t i = 0; i < dp; ++i) acc += uaj[i] * hb[i];
          qba[j] = static_cast<float>(acc);
        }
      }
    }
    q[static_cast<std::size_t>(p)] = std::move(qp);
  }

  Tensor y({batch, classes_});
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t a = 0; a < classes_; ++a) {
      double score = 0.0;
      for (std::int64_t j = 0; j < k; ++j) {
        double prod = 1.0;
        for (std::int64_t p = 0; p < m; ++p)
          prod *= q[static_cast<std::size_t>(p)][(b * classes_ + a) * k + j];
        score += prod;
      }
      y[b * classes_ + a] = static_cast<float>(score);
    }
  }
  return y;
}

std::vector<Tensor> MultiviewMachineLayer::backward(
    const Tensor& grad_logits) {
  MDL_CHECK(!cached_views_.empty(), "backward before forward");
  const std::int64_t batch = cached_views_.front().shape(0);
  const std::int64_t k = factors_;
  const std::int64_t m = num_views();
  MDL_CHECK(grad_logits.ndim() == 2 && grad_logits.shape(0) == batch &&
                grad_logits.shape(1) == classes_,
            "grad shape " << grad_logits.shape_str());

  std::vector<Tensor> grads;
  grads.reserve(static_cast<std::size_t>(m));
  for (std::int64_t p = 0; p < m; ++p)
    grads.emplace_back(std::vector<std::int64_t>{
        batch, view_dims_[static_cast<std::size_t>(p)]});

  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t a = 0; a < classes_; ++a) {
      const float g = grad_logits[b * classes_ + a];
      if (g == 0.0F) continue;
      for (std::int64_t j = 0; j < k; ++j) {
        for (std::int64_t p = 0; p < m; ++p) {
          // Leave-one-out product across the other views.
          double loo = 1.0;
          for (std::int64_t p2 = 0; p2 < m; ++p2) {
            if (p2 == p) continue;
            loo *= cached_q_[static_cast<std::size_t>(p2)]
                            [(b * classes_ + a) * k + j];
          }
          const float dq = g * static_cast<float>(loo);
          if (dq == 0.0F) continue;
          const std::int64_t dp = view_dims_[static_cast<std::size_t>(p)];
          const float* hb =
              cached_views_[static_cast<std::size_t>(p)].data() + b * dp;
          float* ugrad = u_[static_cast<std::size_t>(p)].grad.data() +
                         (a * k + j) * (dp + 1);
          const float* uval = u_[static_cast<std::size_t>(p)].value.data() +
                              (a * k + j) * (dp + 1);
          float* ghb = grads[static_cast<std::size_t>(p)].data() + b * dp;
          for (std::int64_t i = 0; i < dp; ++i) {
            ugrad[i] += dq * hb[i];
            ghb[i] += dq * uval[i];
          }
          ugrad[dp] += dq;
        }
      }
    }
  }
  return grads;
}

std::vector<Parameter*> MultiviewMachineLayer::parameters() {
  std::vector<Parameter*> out;
  out.reserve(u_.size());
  for (Parameter& p : u_) out.push_back(&p);
  return out;
}

std::string MultiviewMachineLayer::name() const {
  std::ostringstream os;
  os << "MultiviewMachine(m=" << num_views() << ", k=" << factors_
     << ", c=" << classes_ << ')';
  return os.str();
}

std::int64_t MultiviewMachineLayer::flops_per_example() const {
  std::int64_t f = 0;
  for (std::int64_t dp : view_dims_)
    f += classes_ * factors_ * 2 * (dp + 1);
  f += classes_ * factors_ * num_views();
  return f;
}

// ------------------------------------------------------------------ factory

std::unique_ptr<FusionLayer> make_fusion(FusionKind kind,
                                         std::vector<std::int64_t> view_dims,
                                         std::int64_t capacity,
                                         std::int64_t classes, Rng& rng) {
  switch (kind) {
    case FusionKind::kFullyConnected:
      return std::make_unique<FCFusion>(std::move(view_dims), capacity,
                                        classes, rng);
    case FusionKind::kFactorizationMachine:
      return std::make_unique<FactorizationMachineLayer>(
          std::move(view_dims), capacity, classes, rng);
    case FusionKind::kMultiviewMachine:
      return std::make_unique<MultiviewMachineLayer>(std::move(view_dims),
                                                     capacity, classes, rng);
  }
  MDL_FAIL("unknown fusion kind");
}

FusionKind fusion_kind_from_string(const std::string& s) {
  if (s == "fc") return FusionKind::kFullyConnected;
  if (s == "fm") return FusionKind::kFactorizationMachine;
  if (s == "mvm") return FusionKind::kMultiviewMachine;
  MDL_FAIL("unknown fusion kind '" << s << "' (expected fc|fm|mvm)");
}

std::string to_string(FusionKind kind) {
  switch (kind) {
    case FusionKind::kFullyConnected: return "fc";
    case FusionKind::kFactorizationMachine: return "fm";
    case FusionKind::kMultiviewMachine: return "mvm";
  }
  return "?";
}

}  // namespace mdl::fusion
