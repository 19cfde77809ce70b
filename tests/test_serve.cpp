// mdl::serve tests.
//
// The load-bearing property: batched execution is bit-identical to
// single-request execution (InferenceServer::score), for every batch size,
// batch composition, and shared-pool thread count. The suites are named
// Serve* so the TSan CI stage can select them by filter.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "compress/int8.hpp"
#include "core/threadpool.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "prop.hpp"

namespace mdl::serve {
namespace {

/// Restores the MDL_THREADS / hardware default on scope exit.
struct PoolGuard {
  ~PoolGuard() { set_shared_pool_threads(0); }
};

apps::MultiViewModel make_multiview(Rng& rng) {
  apps::MultiViewConfig cfg;
  cfg.view_dims = {3, 2};
  cfg.seq_lens = {4, 3};
  cfg.hidden = 4;
  cfg.fusion_kind = fusion::FusionKind::kMultiviewMachine;
  cfg.fusion_capacity = 3;
  cfg.classes = 3;
  return apps::MultiViewModel(cfg, rng);
}

/// With `int8_cloud`, the cloud half is the same weights passed through
/// compress::int8_quantize_mlp (Int8Linear layers).
split::SplitInference make_split(Rng& rng, bool int8_cloud = false) {
  auto local = std::make_unique<nn::Sequential>();
  local->emplace<nn::Linear>(6, 5, rng);
  local->emplace<nn::Tanh>();
  auto cloud = std::make_unique<nn::Sequential>();
  cloud->emplace<nn::Linear>(5, 8, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(8, 3, rng);
  if (int8_cloud) cloud = compress::int8_quantize_mlp(*cloud);
  return split::SplitInference(std::move(local), std::move(cloud));
}

InferenceRequest multiview_request(const apps::MultiViewModel& model,
                                   Rng& rng) {
  InferenceRequest req;
  req.kind = RequestKind::kMultiView;
  const auto& cfg = model.config();
  for (std::size_t p = 0; p < cfg.view_dims.size(); ++p)
    req.views.push_back(
        prop::gen_tensor(rng, {cfg.seq_lens[p], cfg.view_dims[p]}));
  return req;
}

InferenceRequest split_request(Rng& rng, std::int64_t rep_dim = 5) {
  InferenceRequest req;
  req.kind = RequestKind::kSplit;
  req.representation = prop::gen_tensor(rng, {1, rep_dim}, 3.0);
  req.noise_seed = rng.next_u64();
  return req;
}

/// Submits everything while paused, resumes, and gathers results in
/// submit order — batch composition is then a pure function of the
/// request sequence and max_batch_size.
std::vector<InferenceResult> run_staged(InferenceServer& server,
                                        const std::vector<InferenceRequest>& reqs) {
  server.pause();
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(reqs.size());
  for (const InferenceRequest& r : reqs) futures.push_back(server.submit(r));
  server.resume();
  std::vector<InferenceResult> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

// ---------------------------------------------------------------------------
// Bit-identity: the acceptance matrix batch {1, 3, 8, 17} x threads {1, 2, 8}.
// ---------------------------------------------------------------------------

TEST(ServeBitIdentity, BatchedMatchesSequentialAcrossBatchAndThreads) {
  PoolGuard guard;
  Rng model_rng(41);
  const apps::MultiViewModel model = make_multiview(model_rng);

  Rng data_rng(7);
  std::vector<InferenceRequest> reqs;
  for (int i = 0; i < 18; ++i)
    reqs.push_back(multiview_request(model, data_rng));

  // Reference: sequential single-request execution, single-threaded.
  set_shared_pool_threads(1);
  ServeConfig ref_cfg;
  std::vector<Tensor> expected;
  {
    InferenceServer ref_server(&model, nullptr, ref_cfg);
    for (const InferenceRequest& r : reqs)
      expected.push_back(ref_server.score(r));
  }

  for (const std::int64_t batch : {1, 3, 8, 17}) {
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
      SCOPED_TRACE(::testing::Message()
                   << "max_batch_size=" << batch << " threads=" << threads);
      set_shared_pool_threads(threads);
      ServeConfig cfg;
      cfg.max_batch_size = batch;
      InferenceServer server(&model, nullptr, cfg);
      const auto results = run_staged(server, reqs);
      for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(results[i].status, RequestStatus::kOk);
        EXPECT_LE(results[i].batch_size, batch);
        // operator== is element-exact: bit-identity, not tolerance.
        EXPECT_TRUE(results[i].logits == expected[i])
            << "request " << i << " diverged: max |diff| = "
            << max_abs_diff(results[i].logits, expected[i]);
      }
    }
  }
}

MDL_PROP_TEST(ServeProp, RandomShapesStayBatchInvariant) {
  PoolGuard guard;
  // Random architecture per case.
  apps::MultiViewConfig cfg;
  const std::int64_t views = prop::gen_int(rng, 1, 3);
  for (std::int64_t p = 0; p < views; ++p) {
    cfg.view_dims.push_back(prop::gen_int(rng, 1, 4));
    cfg.seq_lens.push_back(prop::gen_int(rng, 1, 4));
  }
  cfg.hidden = prop::gen_int(rng, 1, 4);
  cfg.fusion_kind =
      prop::pick(rng, {fusion::FusionKind::kFullyConnected,
                       fusion::FusionKind::kFactorizationMachine,
                       fusion::FusionKind::kMultiviewMachine});
  cfg.fusion_capacity = prop::gen_int(rng, 1, 3);
  cfg.classes = prop::gen_int(rng, 2, 4);
  Rng model_rng(rng.next_u64());
  const apps::MultiViewModel model(cfg, model_rng);

  std::vector<InferenceRequest> reqs;
  const std::int64_t n = prop::gen_int(rng, 1, 20);
  for (std::int64_t i = 0; i < n; ++i)
    reqs.push_back(multiview_request(model, rng));

  set_shared_pool_threads(1);
  ServeConfig serve_cfg;
  serve_cfg.max_batch_size = prop::gen_int(rng, 1, 17);
  std::vector<Tensor> expected;
  {
    InferenceServer ref_server(&model, nullptr, serve_cfg);
    for (const InferenceRequest& r : reqs)
      expected.push_back(ref_server.score(r));
  }

  set_shared_pool_threads(
      static_cast<std::size_t>(prop::pick(rng, {1, 2, 8})));
  InferenceServer server(&model, nullptr, serve_cfg);
  const auto results = run_staged(server, reqs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].status, RequestStatus::kOk);
    EXPECT_TRUE(results[i].logits == expected[i]) << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Queue policy.
// ---------------------------------------------------------------------------

TEST(ServeQueue, StagedRequestsFormExactBatches) {
  Rng rng(11);
  const apps::MultiViewModel model = make_multiview(rng);
  ServeConfig cfg;
  cfg.max_batch_size = 3;
  InferenceServer server(&model, nullptr, cfg);

  std::vector<InferenceRequest> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back(multiview_request(model, rng));
  const auto results = run_staged(server, reqs);
  for (const InferenceResult& r : results) {
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.batch_size, 3);  // 6 staged requests -> two full batches
  }
}

TEST(ServeQueue, LeftoverRequestRunsWhenExecutorIsIdle) {
  Rng rng(12);
  const apps::MultiViewModel model = make_multiview(rng);
  ServeConfig cfg;
  cfg.max_batch_size = 3;
  InferenceServer server(&model, nullptr, cfg);

  std::vector<InferenceRequest> reqs;
  for (int i = 0; i < 4; ++i) reqs.push_back(multiview_request(model, rng));
  const auto results = run_staged(server, reqs);
  EXPECT_EQ(results[0].batch_size, 3);
  EXPECT_EQ(results[1].batch_size, 3);
  EXPECT_EQ(results[2].batch_size, 3);
  // The leftover request rides alone as soon as the executor is free.
  EXPECT_EQ(results[3].batch_size, 1);
}

TEST(ServeQueue, IdleExecutorTakesALoneRequestAtOnce) {
  Rng rng(24);
  const apps::MultiViewModel model = make_multiview(rng);
  InferenceServer server(&model, nullptr, ServeConfig{});

  // One request at a time on a default-config server: nothing else is
  // queued, so each runs alone without waiting for batch-mates. The
  // minimum over a few requests keeps a descheduled executor from failing
  // the test on its own.
  double min_wait_us = 1e18;
  for (int i = 0; i < 5; ++i) {
    const InferenceResult r =
        server.submit(multiview_request(model, rng)).get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.batch_size, 1);
    min_wait_us = std::min(min_wait_us, r.queue_wait_us);
  }
  EXPECT_LT(min_wait_us, 1000.0);
}

TEST(ServeQueue, BatchGrowsWhileExecutorIsBusy) {
  Rng rng(25);
  const apps::MultiViewModel model = make_multiview(rng);
  ServeConfig cfg;
  cfg.fault.batch_stall_prob = 1.0;  // every batch holds the executor...
  cfg.fault.batch_stall_us = 50'000;  // ...for 50 ms
  InferenceServer server(&model, nullptr, cfg);

  auto first = server.submit(multiview_request(model, rng));
  // Once the first request has left the queue, its batch is stalling on
  // the executor; everything submitted now queues up behind it.
  while (server.queue_depth() != 0) std::this_thread::yield();

  std::vector<InferenceRequest> reqs;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(multiview_request(model, rng));
    futures.push_back(server.submit(reqs.back()));
  }
  EXPECT_EQ(first.get().batch_size, 1);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.batch_size, 5) << "request " << i;
    EXPECT_TRUE(r.logits == server.score(reqs[i])) << "request " << i;
  }
}

TEST(ServeQueue, SingleRequestFlushesFromEmptyQueue) {
  Rng rng(13);
  const apps::MultiViewModel model = make_multiview(rng);
  ServeConfig cfg;
  cfg.max_batch_size = 8;
  InferenceServer server(&model, nullptr, cfg);

  auto future = server.submit(multiview_request(model, rng));
  const InferenceResult r = future.get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.batch_size, 1);
  EXPECT_EQ(r.logits.shape(0), 1);
  EXPECT_EQ(r.logits.shape(1), 3);
  EXPECT_GE(r.argmax, 0);
}

TEST(ServeQueue, DeadlineShedsUnexecutedRequests) {
  Rng rng(14);
  const apps::MultiViewModel model = make_multiview(rng);
  ServeConfig cfg;
  cfg.max_batch_size = 8;
  cfg.default_deadline_us = 500;  // resolved when a request leaves it at 0
  InferenceServer server(&model, nullptr, cfg);

  server.pause();
  InferenceRequest doomed = multiview_request(model, rng);
  doomed.deadline_us = 0;  // falls back to the 500us default
  auto doomed_future = server.submit(doomed);
  InferenceRequest patient = multiview_request(model, rng);
  patient.deadline_us = 60'000'000;
  auto patient_future = server.submit(patient);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  server.resume();

  const InferenceResult shed = doomed_future.get();
  EXPECT_EQ(shed.status, RequestStatus::kShedDeadline);
  EXPECT_EQ(shed.logits.size(), 0);
  EXPECT_EQ(shed.argmax, -1);
  EXPECT_GE(shed.latency_us, 500.0);
  EXPECT_NE(shed.request_id, 0U);
  EXPECT_EQ(shed.status_detail, "deadline");
  const InferenceResult ok = patient_future.get();
  EXPECT_EQ(ok.status, RequestStatus::kOk);
  EXPECT_TRUE(ok.status_detail.empty());
}

TEST(ServeQueue, ShutdownDrainsStagedRequests) {
  Rng rng(15);
  const apps::MultiViewModel model = make_multiview(rng);
  ServeConfig cfg;
  cfg.max_batch_size = 2;
  auto server = std::make_unique<InferenceServer>(&model, nullptr, cfg);

  server->pause();
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(server->submit(multiview_request(model, rng)));
  server->stop();  // never resumed: shutdown must drain anyway
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);

  auto rejected = server->submit(multiview_request(model, rng));
  const InferenceResult r = rejected.get();
  EXPECT_EQ(r.status, RequestStatus::kRejectedShutdown);
  EXPECT_NE(r.request_id, 0U);
  EXPECT_EQ(r.status_detail, "shutdown");
  server.reset();
}

TEST(ServeQueue, MixedKindsBatchAsHomogeneousFifoRuns) {
  Rng rng(16);
  const apps::MultiViewModel model = make_multiview(rng);
  const split::SplitInference split_model = make_split(rng);
  ServeConfig cfg;
  cfg.max_batch_size = 8;
  cfg.perturb.laplace_scale = 0.0;
  cfg.perturb.nullification_rate = 0.0;
  InferenceServer server(&model, &split_model, cfg);

  // Arrival order MV MV SP SP SP MV -> same-kind FIFO runs of 2, 3, 1.
  std::vector<InferenceRequest> reqs;
  reqs.push_back(multiview_request(model, rng));
  reqs.push_back(multiview_request(model, rng));
  reqs.push_back(split_request(rng));
  reqs.push_back(split_request(rng));
  reqs.push_back(split_request(rng));
  reqs.push_back(multiview_request(model, rng));
  const auto results = run_staged(server, reqs);
  const std::vector<std::int64_t> occupancy = {2, 2, 3, 3, 3, 1};
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, RequestStatus::kOk);
    EXPECT_EQ(results[i].batch_size, occupancy[i]) << "request " << i;
  }
}

TEST(ServeQueue, RejectsMalformedRequests) {
  Rng rng(17);
  const apps::MultiViewModel model = make_multiview(rng);
  ServeConfig cfg;
  InferenceServer server(&model, nullptr, cfg);

  InferenceRequest wrong_views = multiview_request(model, rng);
  wrong_views.views.pop_back();
  EXPECT_THROW(server.submit(std::move(wrong_views)), Error);

  InferenceRequest split_req = split_request(rng);
  EXPECT_THROW(server.submit(std::move(split_req)), Error);  // no split model
  EXPECT_THROW(InferenceServer(nullptr, nullptr, cfg), Error);
}

// ---------------------------------------------------------------------------
// Split path: server-side perturbation, seeded per request.
// ---------------------------------------------------------------------------

TEST(ServeSplit, BatchedPerturbationMatchesSequential) {
  PoolGuard guard;
  Rng rng(18);
  const split::SplitInference float_model = make_split(rng);
  // The same weights again, with an Int8Linear cloud half: its batch path
  // quantizes each row on its own, so batching must not change a bit.
  Rng twin(18);
  const split::SplitInference int8_model =
      make_split(twin, /*int8_cloud=*/true);
  ServeConfig cfg;
  cfg.max_batch_size = 4;
  cfg.perturb.nullification_rate = 0.3;
  cfg.perturb.laplace_scale = 0.5;

  std::vector<InferenceRequest> reqs;
  for (int i = 0; i < 11; ++i) reqs.push_back(split_request(rng));

  for (const split::SplitInference* split_model : {&float_model, &int8_model}) {
    SCOPED_TRACE(split_model == &int8_model ? "int8 cloud" : "float cloud");
    set_shared_pool_threads(1);
    std::vector<Tensor> expected;
    {
      InferenceServer ref_server(nullptr, split_model, cfg);
      for (const InferenceRequest& r : reqs)
        expected.push_back(ref_server.score(r));
    }

    set_shared_pool_threads(2);
    InferenceServer server(nullptr, split_model, cfg);
    const auto results = run_staged(server, reqs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, RequestStatus::kOk);
      EXPECT_TRUE(results[i].logits == expected[i]) << "request " << i;
    }
  }
}

TEST(ServeSplit, NoiseSeedDeterminesDraws) {
  Rng rng(19);
  const split::SplitInference split_model = make_split(rng);
  ServeConfig cfg;
  cfg.perturb.nullification_rate = 0.0;
  cfg.perturb.laplace_scale = 1.0;
  InferenceServer server(nullptr, &split_model, cfg);

  InferenceRequest a = split_request(rng);
  InferenceRequest b = a;
  b.noise_seed = a.noise_seed + 1;
  // Same representation: same seed -> identical logits, new seed -> new noise.
  EXPECT_TRUE(server.score(a) == server.score(a));
  EXPECT_FALSE(server.score(a) == server.score(b));
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan target): producers x deadlines x shutdown.
// ---------------------------------------------------------------------------

TEST(ServeStress, ProducersDeadlinesAndShutdownRace) {
  Rng rng(20);
  const apps::MultiViewModel model = make_multiview(rng);
  const split::SplitInference split_model = make_split(rng);
  ServeConfig cfg;
  cfg.max_batch_size = 4;
  InferenceServer server(&model, &split_model, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  std::atomic<int> ok{0}, shed{0}, rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Rng trng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        InferenceRequest req = trng.bernoulli(0.5)
                                   ? multiview_request(model, trng)
                                   : split_request(trng);
        // A slice of requests carries a deadline tight enough to shed.
        if (trng.bernoulli(0.3))
          req.deadline_us = prop::gen_int(trng, 50, 400);
        const InferenceResult r = server.submit(std::move(req)).get();
        switch (r.status) {
          case RequestStatus::kOk: ok.fetch_add(1); break;
          case RequestStatus::kShedDeadline: shed.fetch_add(1); break;
          case RequestStatus::kRejectedShutdown: rejected.fetch_add(1); break;
          // No admission bounds, breaker, or faults configured here — these
          // cannot happen; landing on one is a real failure.
          case RequestStatus::kRejectedOverload:
          case RequestStatus::kRejectedCircuit:
          case RequestStatus::kError:
            ADD_FAILURE() << "unexpected status " << to_string(r.status);
            break;
        }
      }
    });
  }

  // Churn the pause/resume path while producers are live, then shut down
  // mid-stream so late submits race the drain.
  for (int i = 0; i < 5; ++i) {
    server.pause();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    server.resume();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  // Wait (bounded) for the executor to complete at least one request before
  // shutting down mid-stream: under TSan the whole pipeline runs an order
  // of magnitude slower, and a fixed sleep can stop the server before the
  // first batch ever executes, leaving ok == 0 by timing alone.
  for (int i = 0; i < 20000 && ok.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.stop();

  for (auto& p : producers) p.join();
  EXPECT_EQ(ok + shed + rejected, kProducers * kPerProducer);
  EXPECT_GT(ok.load(), 0);
}

// ---------------------------------------------------------------------------
// Request-scoped tracing: ids, the inflight gauge, and the ring spans.
// ---------------------------------------------------------------------------

TEST(ServeTracing, RequestIdsAssignedUniqueAndEchoed) {
  Rng rng(21);
  const apps::MultiViewModel model = make_multiview(rng);
  InferenceServer server(&model, nullptr, ServeConfig{});

  auto f1 = server.submit(multiview_request(model, rng));
  auto f2 = server.submit(multiview_request(model, rng));
  InferenceRequest tagged = multiview_request(model, rng);
  tagged.request_id = 0xC0FFEE;  // caller-supplied ids survive verbatim
  auto f3 = server.submit(std::move(tagged));

  const InferenceResult r1 = f1.get(), r2 = f2.get(), r3 = f3.get();
  EXPECT_NE(r1.request_id, 0U);
  EXPECT_NE(r2.request_id, 0U);
  EXPECT_NE(r1.request_id, r2.request_id);
  EXPECT_EQ(r3.request_id, 0xC0FFEEU);
}

TEST(ServeTracing, InflightGaugeReturnsToBaseline) {
  obs::Gauge& inflight =
      obs::MetricsRegistry::global().gauge("serve.requests_inflight");
  const double before = inflight.value();
  Rng rng(22);
  const apps::MultiViewModel model = make_multiview(rng);
  {
    ServeConfig cfg;
    cfg.default_deadline_us = 300;  // some requests shed below
    InferenceServer server(&model, nullptr, cfg);
    server.pause();
    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 6; ++i)
      futures.push_back(server.submit(multiview_request(model, rng)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.resume();
    for (auto& f : futures) f.get();  // mix of kOk and kShedDeadline
    server.stop();
    auto rejected = server.submit(multiview_request(model, rng));
    EXPECT_EQ(rejected.get().status, RequestStatus::kRejectedShutdown);
  }
  // Every completion path (execute, shed, reject) must balance submit's +1.
  EXPECT_DOUBLE_EQ(inflight.value(), before);
}

TEST(ServeTracing, RingSpansShareTheRequestId) {
  if (!obs::kEnabled)
    GTEST_SKIP() << "serve emits no ring events under MDL_OBS_DISABLED";
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  rec.set_enabled(true);
  Rng rng(23);
  const apps::MultiViewModel model = make_multiview(rng);
  InferenceServer server(&model, nullptr, ServeConfig{});
  const std::uint64_t rid = server.submit(multiview_request(model, rng))
                                .get()
                                .request_id;
  // The executor emits its end events after resolving the future; join it
  // before draining so the full chain is in the ring.
  server.stop();

  // The global ring holds events from the whole process; select this
  // request's track and require the full queue -> exec -> resolve chain.
  int begins = 0, ends = 0;
  bool saw_queue = false, saw_exec = false, saw_request = false;
  for (const obs::TraceEvent& e : rec.drain_snapshot()) {
    if (e.track != rid) continue;
    if (e.type == obs::EventType::kAsyncBegin) ++begins;
    if (e.type == obs::EventType::kAsyncEnd) ++ends;
    const std::string name = e.name;
    saw_queue |= name == "serve.queue";
    saw_exec |= name == "serve.exec";
    saw_request |= name == "serve.request";
  }
  EXPECT_EQ(begins, 3);
  EXPECT_EQ(ends, 3);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_exec);
  EXPECT_TRUE(saw_request);
}

}  // namespace
}  // namespace mdl::serve
