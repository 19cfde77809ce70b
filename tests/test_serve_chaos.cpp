// Chaos / fault-tolerance tests for the serving path (ctest label: chaos).
//
// The load-bearing property: under ANY seeded fault schedule — injected
// batch failures, stalls, executor delays, tight deadlines, admission
// bounds, a breaker tripping mid-stream, shutdown racing the drain — every
// submitted future completes with a definite RequestStatus and the per-
// status accounting reconciles exactly. No hang, no abandoned promise, no
// exception out of the executor.
//
// Suites are named Chaos* / Circuit* so the TSan CI stage can select them
// by filter (scripts/smoke.sh and .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "compress/int8.hpp"
#include "compress/prune.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "obs/metrics.hpp"
#include "prop.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/fault_injector.hpp"
#include "serve/server.hpp"
#include "serve/split_client.hpp"
#include "split/degradation.hpp"

namespace mdl::serve {
namespace {

constexpr std::int64_t kRepDim = 5;
constexpr std::int64_t kClasses = 3;

split::SplitInference make_split(Rng& rng) {
  auto local = std::make_unique<nn::Sequential>();
  local->emplace<nn::Linear>(6, kRepDim, rng);
  local->emplace<nn::Tanh>();
  auto cloud = std::make_unique<nn::Sequential>();
  cloud->emplace<nn::Linear>(kRepDim, 8, rng);
  cloud->emplace<nn::ReLU>();
  cloud->emplace<nn::Linear>(8, kClasses, rng);
  return split::SplitInference(std::move(local), std::move(cloud));
}

InferenceRequest split_request(Rng& rng, std::int64_t rep_dim = kRepDim) {
  InferenceRequest req;
  req.kind = RequestKind::kSplit;
  req.representation = prop::gen_tensor(rng, {1, rep_dim}, 3.0);
  req.noise_seed = rng.next_u64();
  return req;
}

split::DegradationLadder make_ladder(split::SplitInference& model) {
  split::DegradationLadder ladder;
  ladder.add_stage("device-pruned",
                   compress::sparse_deploy_mlp(model.cloud()));
  ladder.add_stage("device-int8", compress::int8_quantize_mlp(model.cloud()));
  return ladder;
}

mobile::InferencePlanner make_planner() {
  return mobile::InferencePlanner(mobile::DeviceProfile::mobile_soc(),
                                  mobile::DeviceProfile::cloud_server(),
                                  mobile::NetworkModel::wifi());
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// CircuitBreaker state machine, in isolation.
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, DisabledAdmitsEverythingAndNeverTrips) {
  CircuitBreaker breaker({});  // enabled = false
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(breaker.try_admit());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.times_opened(), 0);
}

TEST(CircuitBreakerTest, TripsAtFailureThresholdAfterMinSamples) {
  CircuitBreakerConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_samples = 4;
  cfg.failure_threshold = 0.5;
  cfg.open_cooldown_us = 60'000'000;  // never cools down inside this test
  CircuitBreaker breaker(cfg);

  // Three failures: below min_samples, must stay closed.
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.try_admit());

  // Fourth outcome reaches min_samples at 100% failure: trips.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.try_admit());
  EXPECT_EQ(breaker.times_opened(), 1);
}

TEST(CircuitBreakerTest, SlidingWindowEvictsOldOutcomes) {
  CircuitBreakerConfig cfg;
  cfg.enabled = true;
  cfg.window = 4;
  cfg.min_samples = 4;
  cfg.failure_threshold = 0.75;
  CircuitBreaker breaker(cfg);

  // Two early failures diluted by successes: [f f s s] = 0.5 < 0.75, then
  // fully evicted to [s s s s].
  breaker.record_failure();
  breaker.record_failure();
  for (int i = 0; i < 4; ++i) breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // [s s f f] = 0.5: still closed — the evicted failures are forgotten.
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // [s f f f] = 0.75 reaches the threshold: trips.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbeSuccessClosesFailureReopens) {
  CircuitBreakerConfig cfg;
  cfg.enabled = true;
  cfg.window = 4;
  cfg.min_samples = 2;
  cfg.failure_threshold = 0.5;
  cfg.open_cooldown_us = 1000;
  cfg.half_open_admits = 1;
  CircuitBreaker breaker(cfg);

  breaker.record_failure();
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Cooldown elapses: next admission attempt becomes the probe.
  std::this_thread::sleep_for(std::chrono::microseconds(2000));
  EXPECT_TRUE(breaker.try_admit());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // half_open_admits = 1: a second concurrent probe is refused.
  EXPECT_FALSE(breaker.try_admit());

  // Probe fails: straight back to open, for a fresh cooldown.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2);

  // Next probe succeeds: closed, window reset (old failures forgotten).
  std::this_thread::sleep_for(std::chrono::microseconds(2000));
  EXPECT_TRUE(breaker.try_admit());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// Races try_admit against record_* from several threads; run under TSan by
// the CI chaos stage. The assertion is freedom from data races plus a sane
// terminal state — the interleaving itself is unconstrained.
TEST(CircuitStress, ConcurrentAdmitAndRecord) {
  CircuitBreakerConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_samples = 2;
  cfg.failure_threshold = 0.5;
  cfg.open_cooldown_us = 200;
  cfg.half_open_admits = 2;
  CircuitBreaker breaker(cfg);

  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::atomic<std::int64_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        if (breaker.try_admit()) {
          admitted.fetch_add(1);
          if (rng.bernoulli(0.5))
            breaker.record_failure();
          else
            breaker.record_success();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(admitted.load(), 0);
  const auto s = breaker.state();
  EXPECT_TRUE(s == CircuitBreaker::State::kClosed ||
              s == CircuitBreaker::State::kOpen ||
              s == CircuitBreaker::State::kHalfOpen);
}

// ---------------------------------------------------------------------------
// FaultInjector: decisions are a pure function of (seed, request_id).
// ---------------------------------------------------------------------------

TEST(ChaosInjector, DeterministicPerSeedAndRequestId) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.batch_fail_prob = 0.3;
  cfg.batch_stall_prob = 0.4;
  cfg.batch_stall_us = 250;
  cfg.pop_delay_prob = 0.2;
  cfg.pop_delay_us = 125;
  const FaultInjector a(cfg), b(cfg);

  for (std::uint64_t rid = 1; rid <= 500; ++rid) {
    EXPECT_EQ(a.should_fail(rid), b.should_fail(rid)) << rid;
    EXPECT_EQ(a.stall_us(rid), b.stall_us(rid)) << rid;
    EXPECT_EQ(a.pop_delay_us(rid), b.pop_delay_us(rid)) << rid;
  }

  // A different seed must yield a different fault schedule somewhere.
  cfg.seed = 8;
  const FaultInjector c(cfg);
  bool differs = false;
  for (std::uint64_t rid = 1; rid <= 500 && !differs; ++rid)
    differs = a.should_fail(rid) != c.should_fail(rid) ||
              a.stall_us(rid) != c.stall_us(rid);
  EXPECT_TRUE(differs);
}

TEST(ChaosInjector, EmpiricalRatesTrackConfiguredProbabilities) {
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.batch_fail_prob = 0.25;
  const FaultInjector inj(cfg);
  int fails = 0;
  constexpr int kN = 4000;
  for (std::uint64_t rid = 1; rid <= kN; ++rid)
    if (inj.should_fail(rid)) ++fails;
  const double rate = static_cast<double>(fails) / kN;
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(ChaosInjector, InactiveInjectorNeverFires) {
  const FaultInjector inj(FaultConfig{});
  EXPECT_FALSE(inj.active());
  for (std::uint64_t rid = 1; rid <= 100; ++rid) {
    EXPECT_FALSE(inj.should_fail(rid));
    EXPECT_EQ(inj.stall_us(rid), 0);
    EXPECT_EQ(inj.pop_delay_us(rid), 0);
  }
}

// ---------------------------------------------------------------------------
// Admission control: depth bound, per-kind quota, and the pause interaction.
// ---------------------------------------------------------------------------

TEST(ChaosAdmission, QueueDepthBoundRejectsWhilePaused) {
  Rng rng(30);
  const split::SplitInference split_model = make_split(rng);
  ServeConfig cfg;
  cfg.max_queue_depth = 2;
  InferenceServer server(nullptr, &split_model, cfg);

  // Paused: nothing drains, so the third submit must be refused at the
  // door — admission bounds hold even while the executor is staged.
  server.pause();
  auto f1 = server.submit(split_request(rng));
  auto f2 = server.submit(split_request(rng));
  auto f3 = server.submit(split_request(rng));
  const InferenceResult rejected = f3.get();  // ready immediately
  EXPECT_EQ(rejected.status, RequestStatus::kRejectedOverload);
  EXPECT_EQ(rejected.status_detail, "overload:queue_depth");

  // The admitted two execute normally after resume.
  server.resume();
  EXPECT_EQ(f1.get().status, RequestStatus::kOk);
  EXPECT_EQ(f2.get().status, RequestStatus::kOk);

  // Capacity freed: the queue admits again.
  EXPECT_EQ(server.submit(split_request(rng)).get().status,
            RequestStatus::kOk);
}

TEST(ChaosAdmission, KindQuotaIsPerKind) {
  Rng rng(31);
  const split::SplitInference split_model = make_split(rng);
  ServeConfig cfg;
  cfg.kind_quota[static_cast<int>(RequestKind::kSplit)] = 1;
  InferenceServer server(nullptr, &split_model, cfg);

  server.pause();
  auto f1 = server.submit(split_request(rng));
  auto f2 = server.submit(split_request(rng));
  const InferenceResult rejected = f2.get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejectedOverload);
  EXPECT_EQ(rejected.status_detail, "overload:kind_quota");
  server.resume();
  EXPECT_EQ(f1.get().status, RequestStatus::kOk);
}

TEST(ChaosAdmission, DeadlineShedCarriesStatusDetail) {
  Rng rng(32);
  const split::SplitInference split_model = make_split(rng);
  InferenceServer server(nullptr, &split_model, ServeConfig{});

  server.pause();
  InferenceRequest req = split_request(rng);
  req.deadline_us = 1;  // expires long before resume
  auto f = server.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.resume();
  const InferenceResult r = f.get();
  EXPECT_EQ(r.status, RequestStatus::kShedDeadline);
  EXPECT_EQ(r.status_detail, "deadline");
}

// ---------------------------------------------------------------------------
// Executor failure isolation: a throwing model fails its batch, not the
// server. Regression for the pre-breaker behavior where an executor-thread
// exception aborted the process.
// ---------------------------------------------------------------------------

TEST(ChaosExecutor, ModelExceptionCompletesBatchAsErrorAndServerSurvives) {
  Rng rng(33);
  const split::SplitInference split_model = make_split(rng);
  InferenceServer server(nullptr, &split_model, ServeConfig{});

  // A wrong-width representation passes submit-time validation (shape
  // [1, D]) but throws inside the cloud half's first Linear — on the
  // executor thread.
  const InferenceResult bad =
      server.submit(split_request(rng, kRepDim + 2)).get();
  EXPECT_EQ(bad.status, RequestStatus::kError);
  EXPECT_FALSE(bad.status_detail.empty());

  // The executor survived: a well-formed request still succeeds.
  const InferenceResult good = server.submit(split_request(rng)).get();
  EXPECT_EQ(good.status, RequestStatus::kOk);
  EXPECT_EQ(good.logits.shape(1), kClasses);
}

TEST(ChaosExecutor, InjectedFaultSurfacesAsErrorWithDetail) {
  Rng rng(34);
  const split::SplitInference split_model = make_split(rng);
  ServeConfig cfg;
  cfg.fault.seed = 5;
  cfg.fault.batch_fail_prob = 1.0;
  InferenceServer server(nullptr, &split_model, cfg);

  const InferenceResult r = server.submit(split_request(rng)).get();
  EXPECT_EQ(r.status, RequestStatus::kError);
  EXPECT_NE(r.status_detail.find("injected"), std::string::npos)
      << r.status_detail;
}

// ---------------------------------------------------------------------------
// Breaker integration: failures trip it, cooldown + probe recover it.
// ---------------------------------------------------------------------------

TEST(ChaosBreakerIntegration, TripsOnFailuresThenRecoversViaProbe) {
  Rng rng(35);
  const split::SplitInference split_model = make_split(rng);
  ServeConfig cfg;
  cfg.breaker.enabled = true;
  cfg.breaker.window = 4;
  cfg.breaker.min_samples = 2;
  cfg.breaker.failure_threshold = 0.5;
  cfg.breaker.open_cooldown_us = 3000;
  cfg.breaker.half_open_admits = 1;
  InferenceServer server(nullptr, &split_model, cfg);

  // Two one-request batches fail (wrong-width reps): breaker trips.
  for (int i = 0; i < 2; ++i) {
    const InferenceResult r =
        server.submit(split_request(rng, kRepDim + 2)).get();
    ASSERT_EQ(r.status, RequestStatus::kError);
  }
  ASSERT_EQ(server.circuit_state(), CircuitBreaker::State::kOpen);

  // While open, admission refuses before the queue is ever touched.
  const InferenceResult rejected = server.submit(split_request(rng)).get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejectedCircuit);
  EXPECT_EQ(rejected.status_detail, "circuit_open");

  // After the cooldown a good probe closes the breaker again.
  std::this_thread::sleep_for(std::chrono::microseconds(6000));
  const InferenceResult probe = server.submit(split_request(rng)).get();
  EXPECT_EQ(probe.status, RequestStatus::kOk);
  EXPECT_EQ(server.circuit_state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(server.breaker().times_opened(), 1);
}

// ---------------------------------------------------------------------------
// SplitClient: retries, backoff budget, and the degradation ladder.
// ---------------------------------------------------------------------------

SplitClientConfig fast_client_config() {
  SplitClientConfig cfg;
  cfg.retry.timeout_s = 1.0;  // generous: tests control failures directly
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_s = 0.0;  // keep retries instant under TSan
  cfg.jitter = 0.0;
  cfg.seed = 9;
  return cfg;
}

TEST(ChaosClient, HealthyCloudAnswersFirstAttempt) {
  Rng rng(36);
  split::SplitInference split_model = make_split(rng);
  const split::DegradationLadder ladder = make_ladder(split_model);
  InferenceServer server(nullptr, &split_model, ServeConfig{});
  SplitClient client(&server, &split_model, &ladder, make_planner(),
                     fast_client_config());

  const Tensor x = prop::gen_tensor(rng, {1, 6}, 2.0);
  const ClientOutcome out = client.infer(x);
  EXPECT_EQ(out.served_by, ServedBy::kCloud);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.retries, 0);
  EXPECT_EQ(out.fallback_stage, -1);
  EXPECT_EQ(out.logits.shape(1), kClasses);
  EXPECT_GE(out.argmax, 0);
  EXPECT_LT(out.argmax, kClasses);
}

TEST(ChaosClient, DeadCloudRetriesThenFallsBackOnDevice) {
  Rng rng(37);
  split::SplitInference split_model = make_split(rng);
  const split::DegradationLadder ladder = make_ladder(split_model);
  ServeConfig cfg;
  cfg.fault.seed = 13;
  cfg.fault.batch_fail_prob = 1.0;  // every batch fails: the cloud is dead
  InferenceServer server(nullptr, &split_model, cfg);
  SplitClient client(&server, &split_model, &ladder, make_planner(),
                     fast_client_config());

  const std::uint64_t fallbacks_before = counter_value("client.fallbacks");
  const Tensor x = prop::gen_tensor(rng, {1, 6}, 2.0);
  const ClientOutcome out = client.infer(x);
  EXPECT_EQ(out.served_by, ServedBy::kFallback);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.retries, 2);
  EXPECT_EQ(out.cloud_status, RequestStatus::kError);
  EXPECT_GE(out.fallback_stage, 0);
  EXPECT_FALSE(out.fallback_stage_name.empty());
  EXPECT_EQ(out.logits.shape(1), kClasses);
  EXPECT_GE(out.argmax, 0);
  if constexpr (obs::kEnabled) {  // no-op counters under MDL_OBS_DISABLED
    EXPECT_EQ(counter_value("client.fallbacks"), fallbacks_before + 1);
  }
}

TEST(ChaosClient, OpenCircuitSkipsRemainingAttempts) {
  Rng rng(38);
  split::SplitInference split_model = make_split(rng);
  const split::DegradationLadder ladder = make_ladder(split_model);
  ServeConfig cfg;
  cfg.breaker.enabled = true;
  cfg.breaker.window = 4;
  cfg.breaker.min_samples = 2;
  cfg.breaker.failure_threshold = 0.5;
  cfg.breaker.open_cooldown_us = 60'000'000;  // stays open
  cfg.fault.seed = 13;
  cfg.fault.batch_fail_prob = 1.0;
  InferenceServer server(nullptr, &split_model, cfg);
  SplitClient client(&server, &split_model, &ladder, make_planner(),
                     fast_client_config());

  // First request burns its attempts on kError and trips the breaker.
  const Tensor x = prop::gen_tensor(rng, {1, 6}, 2.0);
  const ClientOutcome first = client.infer(x);
  EXPECT_EQ(first.served_by, ServedBy::kFallback);
  ASSERT_EQ(server.circuit_state(), CircuitBreaker::State::kOpen);

  // Second request sees circuit_open on attempt 1 and degrades immediately
  // instead of spending retries on a breaker that will not heal in time.
  const ClientOutcome second = client.infer(x);
  EXPECT_EQ(second.served_by, ServedBy::kFallback);
  EXPECT_EQ(second.attempts, 1);
  EXPECT_EQ(second.cloud_status, RequestStatus::kRejectedCircuit);
  EXPECT_EQ(second.status_detail, "circuit_open");
}

TEST(ChaosClient, ExhaustedRetryBudgetDegradesWithoutRetrying) {
  Rng rng(39);
  split::SplitInference split_model = make_split(rng);
  const split::DegradationLadder ladder = make_ladder(split_model);
  ServeConfig cfg;
  cfg.fault.seed = 13;
  cfg.fault.batch_fail_prob = 1.0;
  InferenceServer server(nullptr, &split_model, cfg);
  SplitClientConfig ccfg = fast_client_config();
  ccfg.retry_budget = 2;  // exactly one dead request's worth of retries
  SplitClient client(&server, &split_model, &ladder, make_planner(), ccfg);

  const Tensor x = prop::gen_tensor(rng, {1, 6}, 2.0);
  const ClientOutcome first = client.infer(x);
  EXPECT_EQ(first.retries, 2);
  EXPECT_EQ(client.retry_budget_left(), 0);

  // Budget spent: later failures go straight down the ladder — a dying
  // cloud cannot turn this client into a retry storm.
  const ClientOutcome second = client.infer(x);
  EXPECT_EQ(second.served_by, ServedBy::kFallback);
  EXPECT_EQ(second.attempts, 1);
  EXPECT_EQ(second.retries, 0);
}

TEST(ChaosClient, CountersReconcileExactly) {
  Rng rng(40);
  split::SplitInference split_model = make_split(rng);
  const split::DegradationLadder ladder = make_ladder(split_model);
  ServeConfig cfg;
  cfg.fault.seed = 17;
  // Mixed outcomes, decided per request id. Request ids come from a
  // process-wide counter, so the exact schedule depends on which tests ran
  // first — 0.7 makes both paths overwhelmingly likely for ANY id offset:
  // P(fallback) = 0.7^3 = 0.343 per request, P(no fallback in 40) ~ 5e-8.
  cfg.fault.batch_fail_prob = 0.7;
  InferenceServer server(nullptr, &split_model, cfg);
  SplitClient client(&server, &split_model, &ladder, make_planner(),
                     fast_client_config());

  const std::uint64_t req0 = counter_value("client.requests");
  const std::uint64_t ok0 = counter_value("client.cloud_ok");
  const std::uint64_t fb0 = counter_value("client.fallbacks");

  constexpr int kN = 40;
  int cloud = 0, fallback = 0;
  for (int i = 0; i < kN; ++i) {
    const ClientOutcome out = client.infer(prop::gen_tensor(rng, {1, 6}, 2.0));
    (out.served_by == ServedBy::kCloud ? cloud : fallback) += 1;
  }
  // Every request was answered, and the counters agree with the outcomes.
  EXPECT_EQ(cloud + fallback, kN);
  if constexpr (obs::kEnabled) {  // no-op counters under MDL_OBS_DISABLED
    EXPECT_EQ(counter_value("client.requests") - req0, kN);
    EXPECT_EQ(counter_value("client.cloud_ok") - ok0,
              static_cast<std::uint64_t>(cloud));
    EXPECT_EQ(counter_value("client.fallbacks") - fb0,
              static_cast<std::uint64_t>(fallback));
  }
  // At 70% injected batch failure and 3 attempts both paths appear.
  EXPECT_GT(cloud, 0);
  EXPECT_GT(fallback, 0);
}

// The client executes the same mobile::RetryPolicy that
// InferencePlanner::split_degraded prices: at the two failure rates where
// the model's expectations are exact, every request matches them.
TEST(ChaosClient, AttemptsMatchRetryPolicyModel) {
  Rng rng(41);
  split::SplitInference split_model = make_split(rng);
  const split::DegradationLadder ladder = make_ladder(split_model);
  SplitClientConfig ccfg = fast_client_config();
  ccfg.retry.max_attempts = 4;  // not the default, so the client must read it
  const mobile::RetryPolicy& retry = ccfg.retry;

  for (const double fail_prob : {0.0, 1.0}) {
    ServeConfig cfg;
    cfg.fault.seed = 21;
    cfg.fault.batch_fail_prob = fail_prob;
    InferenceServer server(nullptr, &split_model, cfg);
    SplitClient client(&server, &split_model, &ladder, make_planner(), ccfg);

    constexpr int kN = 6;
    int fallbacks = 0;
    for (int i = 0; i < kN; ++i) {
      const ClientOutcome out =
          client.infer(prop::gen_tensor(rng, {1, 6}, 2.0));
      EXPECT_EQ(static_cast<double>(out.attempts),
                retry.expected_attempts(fail_prob))
          << "fail_prob " << fail_prob;
      fallbacks += out.served_by == ServedBy::kFallback ? 1 : 0;
    }
    EXPECT_EQ(static_cast<double>(fallbacks) / kN,
              retry.fallback_prob(fail_prob))
        << "fail_prob " << fail_prob;
  }
  EXPECT_EQ(retry.expected_attempts(1.0), 4.0);
  EXPECT_EQ(retry.fallback_prob(1.0), 1.0);
  EXPECT_EQ(retry.expected_attempts(0.0), 1.0);
  EXPECT_EQ(retry.fallback_prob(0.0), 0.0);
}

// ---------------------------------------------------------------------------
// The chaos liveness property (the acceptance gate, run under TSan):
// whatever the seeded fault schedule, every future resolves with a definite
// status, the accounting is exact, and shutdown drains cleanly.
// ---------------------------------------------------------------------------

MDL_PROP_TEST(ChaosLiveness, EveryFutureResolvesUnderAnyFaultSchedule) {
  Rng model_rng(4242);
  const split::SplitInference split_model = make_split(model_rng);

  ServeConfig cfg;
  cfg.max_batch_size = prop::gen_int(rng, 1, 4);
  (void)prop::gen_int(rng, 100, 500);  // unused; keeps each seed's case
  if (rng.bernoulli(0.5)) cfg.max_queue_depth = prop::gen_int(rng, 2, 16);
  if (rng.bernoulli(0.3))
    cfg.kind_quota[static_cast<int>(RequestKind::kSplit)] =
        prop::gen_int(rng, 1, 8);
  cfg.breaker.enabled = rng.bernoulli(0.5);
  cfg.breaker.window = 4;
  cfg.breaker.min_samples = 2;
  cfg.breaker.failure_threshold = 0.5;
  cfg.breaker.open_cooldown_us = prop::gen_int(rng, 200, 2000);
  cfg.fault.seed = rng.next_u64();
  cfg.fault.batch_fail_prob = rng.uniform(0.0, 0.6);
  cfg.fault.batch_stall_prob = rng.uniform(0.0, 0.5);
  cfg.fault.batch_stall_us = prop::gen_int(rng, 50, 400);
  cfg.fault.pop_delay_prob = rng.uniform(0.0, 0.5);
  cfg.fault.pop_delay_us = prop::gen_int(rng, 50, 400);
  InferenceServer server(nullptr, &split_model, cfg);

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 15;
  std::atomic<int> ok{0}, shed{0}, shutdown{0}, overload{0}, circuit{0},
      error{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    const std::uint64_t tseed =
        rng.next_u64();  // drawn on the main thread, deterministic
    producers.emplace_back([&, tseed] {
      Rng trng(tseed);
      for (int i = 0; i < kPerProducer; ++i) {
        InferenceRequest req = split_request(trng);
        if (trng.bernoulli(0.3))
          req.deadline_us = prop::gen_int(trng, 50, 400);
        if (trng.bernoulli(0.1))
          req.representation =
              prop::gen_tensor(trng, {1, kRepDim + 2}, 3.0);  // model throws
        switch (server.submit(std::move(req)).get().status) {
          case RequestStatus::kOk: ok.fetch_add(1); break;
          case RequestStatus::kShedDeadline: shed.fetch_add(1); break;
          case RequestStatus::kRejectedShutdown: shutdown.fetch_add(1); break;
          case RequestStatus::kRejectedOverload: overload.fetch_add(1); break;
          case RequestStatus::kRejectedCircuit: circuit.fetch_add(1); break;
          case RequestStatus::kError: error.fetch_add(1); break;
        }
      }
    });
  }

  // Churn pause/resume while producers are live, then stop mid-stream on
  // some cases so late submits race the shutdown drain.
  for (int i = 0; i < 3; ++i) {
    server.pause();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    server.resume();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (prop_case % 2 == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.stop();
  }

  for (auto& p : producers) p.join();
  // Liveness + exact accounting: every submitted request reached exactly
  // one terminal status. (Joining at all proves no future was abandoned.)
  EXPECT_EQ(ok + shed + shutdown + overload + circuit + error,
            kProducers * kPerProducer);
}

}  // namespace
}  // namespace mdl::serve
