// mdl::serve — asynchronous batched inference server.
//
// Concurrent callers submit() single-example requests and get a future; a
// dedicated executor thread pops dynamic batches from a BatchQueue, stacks
// them into one tensor, and runs the shared model's const infer() path.
// Intra-batch parallelism comes from the mdl::gemm kernels underneath
// (the MDL_THREADS shared pool), so the server needs exactly one executor.
//
// Determinism contract (pinned by tests/test_serve.cpp): batched execution
// is bit-identical to single-request execution. Every per-row float32
// accumulation chain in matmul / GRU gates / fusion scores is independent
// of the batch it rides in, and split-request perturbation is drawn from a
// per-request seeded Rng *before* stacking — so neither batch size nor
// MDL_THREADS can change any request's logits.
//
// Failure domains (DESIGN.md §Failure domains & the degradation ladder):
// admission control (bounded queue + per-kind quotas -> kRejectedOverload),
// a circuit breaker guarding the executor (open -> kRejectedCircuit), and
// executor failure isolation (a throwing model completes only its batch's
// futures as kError — the executor thread survives). A seeded
// serve::FaultInjector can stall/fail batches and delay pops for
// deterministic chaos replay; every future always completes with a
// definite RequestStatus.
//
// Latency (p50/p95/p99), queue depth, batch occupancy, shed/reject/error
// counts and the serve.circuit_state gauge are published through mdl::obs
// under the serve.* prefix.
#pragma once

#include <atomic>
#include <future>
#include <thread>

#include "apps/multiview_model.hpp"
#include "obs/sampler.hpp"
#include "serve/batch_queue.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/fault_injector.hpp"
#include "serve/request.hpp"
#include "split/split_inference.hpp"

namespace mdl::serve {

struct ServeConfig {
  /// Cap on the requests in one batch. The executor takes whatever
  /// same-kind FIFO prefix is queued when it is free (see BatchQueue).
  std::int64_t max_batch_size = 8;
  /// Deadline applied to requests that don't set one; 0 = no deadline.
  std::int64_t default_deadline_us = 0;
  /// Admission control: queued requests beyond this are rejected as
  /// kRejectedOverload. 0 = unbounded.
  std::int64_t max_queue_depth = 0;
  /// Per-kind queue quota, indexed by RequestKind (kMultiView, kSplit);
  /// 0 = no quota for that kind.
  std::int64_t kind_quota[2] = {0, 0};
  /// Server-side perturbation for kSplit requests (Fig. 3 privacy path).
  split::PerturbConfig perturb;
  /// Circuit breaker guarding the executor (disabled by default).
  CircuitBreakerConfig breaker;
  /// Seeded chaos injection (inactive by default; see FaultInjector).
  FaultConfig fault;
};

/// One server fronting a multi-view model and/or a split-inference cloud
/// half. Either model may be null; submitting a request for a missing
/// model throws. The server never mutates the models (const infer paths),
/// so they can be shared with other readers.
class InferenceServer {
 public:
  InferenceServer(const apps::MultiViewModel* multiview,
                  const split::SplitInference* split, ServeConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Validates and enqueues; thread-safe. The future resolves when the
  /// request executes, is shed past deadline, or is dropped at shutdown.
  std::future<InferenceResult> submit(InferenceRequest request);

  /// Sequential reference path: scores one request immediately on the
  /// caller's thread, bypassing the queue. Returns [1, classes] logits —
  /// by the determinism contract, bit-identical to what submit() yields.
  Tensor score(const InferenceRequest& request) const;

  /// Stops admission, drains the queue (queued requests still execute),
  /// and joins the executor. Idempotent; also called by the destructor.
  void stop();

  /// Test hooks: hold/release batch formation (see BatchQueue::pause).
  void pause() { queue_.pause(); }
  void resume() { queue_.resume(); }

  std::size_t queue_depth() const { return queue_.depth(); }
  const ServeConfig& config() const { return config_; }
  /// Current breaker state (kClosed when the breaker is disabled).
  CircuitBreaker::State circuit_state() const { return breaker_.state(); }
  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  void run();
  void execute_batch(std::vector<PendingRequest> batch);
  /// Completes every future in a batch whose execution threw as
  /// kError(detail) — the executor's failure-isolation path.
  void fail_batch(std::vector<PendingRequest>& batch,
                  std::chrono::steady_clock::time_point formed,
                  const char* detail);
  /// Completes a request that never reached the queue (reject paths).
  std::future<InferenceResult> reject(std::uint64_t rid, RequestStatus status,
                                      const char* reason);
  /// Stacks + infers one same-kind batch; returns [B, classes] logits.
  Tensor infer_stacked(const std::vector<PendingRequest>& batch) const;
  /// Per-request server-side perturbation (seeded by noise_seed).
  Tensor perturbed_representation(const InferenceRequest& request) const;
  void validate(const InferenceRequest& request) const;

  const apps::MultiViewModel* multiview_;
  const split::SplitInference* split_;
  ServeConfig config_;
  BatchQueue queue_;
  CircuitBreaker breaker_;
  FaultInjector injector_;
  std::thread executor_;
  /// Sweeps every gauge (queue depth, inflight, batch occupancy, ...) into
  /// the flight recorder as counter tracks, once per millisecond.
  /// Declared after queue_/executor_ so it stops first on destruction.
  obs::CounterSampler sampler_;
};

}  // namespace mdl::serve
