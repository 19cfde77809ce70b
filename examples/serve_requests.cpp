// Batched async inference serving (mdl::serve): several client threads
// submit concurrent requests — multi-view mood rows and split-inference
// representations — against one InferenceServer, which forms dynamic
// batches, sheds what misses its deadline, and answers each future with
// per-request latency accounting. Batched results are bit-identical to
// one-at-a-time execution (see tests/test_serve.cpp).
//
//   $ ./build/examples/serve_requests
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "apps/multiview_model.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "serve/server.hpp"

namespace {

using namespace mdl;

apps::MultiViewModel make_mood_model(Rng& rng) {
  apps::MultiViewConfig cfg;
  cfg.view_dims = {4, 3};   // alphanumeric + special-character keystroke views
  cfg.seq_lens = {6, 5};
  cfg.hidden = 8;
  cfg.fusion_kind = fusion::FusionKind::kMultiviewMachine;
  cfg.fusion_capacity = 4;
  cfg.classes = 3;
  return apps::MultiViewModel(cfg, rng);
}

split::SplitInference make_split_model(Rng& rng) {
  auto local = std::make_unique<nn::Sequential>();
  local->emplace<nn::Linear>(16, 12, rng);
  local->emplace<nn::Tanh>();
  auto cloud = std::make_unique<nn::Sequential>();
  cloud->emplace<nn::Linear>(12, 24, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(24, 3, rng);
  return split::SplitInference(std::move(local), std::move(cloud));
}

Tensor random_tensor(Rng& rng, const std::vector<std::int64_t>& shape) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.5, 1.5));
  return t;
}

}  // namespace

int main() {
  Rng rng(2026);
  const apps::MultiViewModel mood = make_mood_model(rng);
  const split::SplitInference split_net = make_split_model(rng);

  serve::ServeConfig cfg;
  cfg.max_batch_size = 4;  // a free executor takes up to 4 queued requests
  cfg.default_deadline_us = 50'000;
  cfg.perturb.nullification_rate = 0.2;
  cfg.perturb.laplace_scale = 0.3;
  serve::InferenceServer server(&mood, &split_net, cfg);

  // Three client threads race 8 requests each into the shared queue. The
  // server is paused while they submit so the queue fills up and the
  // batcher has something to batch (a live deployment batches whatever
  // arrives while the executor is busy with the previous batch).
  server.pause();
  std::vector<std::future<serve::InferenceResult>> futures(24);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Rng client_rng(100 + c);
      for (int i = 0; i < 8; ++i) {
        // One kind per client: batches are same-kind FIFO runs, so mixing
        // kinds within a client would fragment them.
        serve::InferenceRequest req;
        if (c % 2 == 0) {
          req.kind = serve::RequestKind::kMultiView;
          const auto& mc = mood.config();
          for (std::size_t p = 0; p < mc.view_dims.size(); ++p)
            req.views.push_back(random_tensor(
                client_rng, {mc.seq_lens[p], mc.view_dims[p]}));
        } else {
          req.kind = serve::RequestKind::kSplit;
          req.representation = random_tensor(client_rng, {1, 12});
          req.noise_seed = client_rng.next_u64();  // pins the privacy noise
        }
        futures[static_cast<std::size_t>(c * 8 + i)] = server.submit(req);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.resume();

  int ok = 0, shed = 0;
  double total_latency_us = 0.0, total_occupancy = 0.0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::InferenceResult r = futures[i].get();
    if (r.status != serve::RequestStatus::kOk) {
      ++shed;
      continue;
    }
    ++ok;
    total_latency_us += r.latency_us;
    total_occupancy += static_cast<double>(r.batch_size);
    if (i < 4)
      std::cout << "request " << i << ": class " << r.argmax << ", batch of "
                << r.batch_size << ", " << r.latency_us << " us ("
                << r.queue_wait_us << " us queued, " << r.exec_us
                << " us executing)\n";
  }
  std::cout << "...\n"
            << ok << " served, " << shed << " shed; mean latency "
            << total_latency_us / ok << " us, mean batch occupancy "
            << total_occupancy / ok << "\n";
  return 0;
}
