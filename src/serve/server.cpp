#include "serve/server.hpp"

#include <chrono>

#include "core/error.hpp"
#include "core/random.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mdl::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide so ids stay unique across servers (and across a server
/// restart) — a trace dump never shows two requests sharing a track.
std::atomic<std::uint64_t> g_next_request_id{1};

double us_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                 .count()) /
         1e3;
}

void observe_occupancy(std::int64_t batch_size) {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "serve.batch_occupancy", obs::Histogram::linear_bounds(1.0, 1.0, 32));
  hist.observe(static_cast<double>(batch_size));
}

}  // namespace

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kShedDeadline: return "shed_deadline";
    case RequestStatus::kRejectedShutdown: return "rejected_shutdown";
    case RequestStatus::kRejectedOverload: return "rejected_overload";
    case RequestStatus::kRejectedCircuit: return "rejected_circuit";
    case RequestStatus::kError: return "error";
  }
  return "unknown";
}

bool is_rejection(RequestStatus s) {
  switch (s) {
    case RequestStatus::kShedDeadline:
    case RequestStatus::kRejectedShutdown:
    case RequestStatus::kRejectedOverload:
    case RequestStatus::kRejectedCircuit:
      return true;
    case RequestStatus::kOk:
    case RequestStatus::kError:
      return false;
  }
  return false;
}

InferenceServer::InferenceServer(const apps::MultiViewModel* multiview,
                                 const split::SplitInference* split,
                                 ServeConfig config)
    : multiview_(multiview),
      split_(split),
      config_(config),
      queue_({config.max_batch_size,
              config.max_queue_depth,
              {config.kind_quota[0], config.kind_quota[1]}}),
      breaker_(config.breaker),
      injector_(config.fault) {
  MDL_CHECK(multiview_ != nullptr || split_ != nullptr,
            "server needs at least one model");
  MDL_CHECK(config_.default_deadline_us >= 0,
            "default_deadline_us must be >= 0");
  executor_ = std::thread([this] { run(); });
}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::stop() {
  queue_.shutdown();
  if (executor_.joinable()) executor_.join();
  sampler_.stop();
}

void InferenceServer::validate(const InferenceRequest& request) const {
  if (request.kind == RequestKind::kMultiView) {
    MDL_CHECK(multiview_ != nullptr, "no multi-view model configured");
    const auto& cfg = multiview_->config();
    MDL_CHECK(request.views.size() == cfg.view_dims.size(),
              "expected " << cfg.view_dims.size() << " views, got "
                          << request.views.size());
    for (std::size_t p = 0; p < request.views.size(); ++p) {
      const Tensor& v = request.views[p];
      MDL_CHECK(v.ndim() == 2 && v.shape(0) == cfg.seq_lens[p] &&
                    v.shape(1) == cfg.view_dims[p],
                "view " << p << " must be [" << cfg.seq_lens[p] << ", "
                        << cfg.view_dims[p] << "], got " << v.shape_str());
    }
  } else {
    MDL_CHECK(split_ != nullptr, "no split-inference model configured");
    MDL_CHECK(request.representation.ndim() == 2 &&
                  request.representation.shape(0) == 1,
              "representation must be [1, rep_dim], got "
                  << request.representation.shape_str());
  }
}

std::future<InferenceResult> InferenceServer::reject(std::uint64_t rid,
                                                     RequestStatus status,
                                                     const char* reason) {
  MDL_OBS_RING_EVENT(obs::EventType::kInstant, "serve.reject", rid, nullptr,
                     0.0, "reason", reason);
  std::promise<InferenceResult> rejected;
  std::future<InferenceResult> future = rejected.get_future();
  InferenceResult r;
  r.status = status;
  r.request_id = rid;
  r.status_detail = reason;
  rejected.set_value(std::move(r));
  return future;
}

std::future<InferenceResult> InferenceServer::submit(
    InferenceRequest request) {
  validate(request);
  MDL_OBS_COUNTER_ADD("serve.requests", 1);
  if (request.request_id == 0)
    request.request_id =
        g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t rid = request.request_id;

  // Circuit check before any queue bookkeeping: an open breaker means the
  // executor is presumed unhealthy and the request never becomes inflight.
  if (!breaker_.try_admit()) {
    MDL_OBS_COUNTER_ADD("serve.rejected_circuit", 1);
    return reject(rid, RequestStatus::kRejectedCircuit, "circuit_open");
  }

  PendingRequest pending;
  pending.enqueue_time = Clock::now();
  const std::int64_t budget_us = request.deadline_us > 0
                                     ? request.deadline_us
                                     : config_.default_deadline_us;
  pending.deadline = budget_us > 0
                         ? pending.enqueue_time +
                               std::chrono::microseconds(budget_us)
                         : Clock::time_point::max();
  pending.request = std::move(request);
  std::future<InferenceResult> future = pending.promise.get_future();

  // The request's whole lifetime and its queue residency are async spans on
  // its own track: begin here on the producer thread, ended wherever the
  // request resolves (executor, shed scan, or right below on reject).
  MDL_OBS_GAUGE_ADD("serve.requests_inflight", 1.0);
  MDL_OBS_ASYNC_BEGIN("serve.request", rid);
  MDL_OBS_ASYNC_BEGIN("serve.queue", rid);

  const PushOutcome outcome = queue_.push(std::move(pending));
  if (outcome == PushOutcome::kAccepted) return future;

  // Refused at admission (shutdown, queue bound, or kind quota): unwind the
  // inflight bookkeeping and complete immediately with the matching status.
  MDL_OBS_GAUGE_ADD("serve.requests_inflight", -1.0);
  MDL_OBS_ASYNC_END("serve.queue", rid);
  MDL_OBS_ASYNC_END("serve.request", rid);
  switch (outcome) {
    case PushOutcome::kShutdown:
      MDL_OBS_COUNTER_ADD("serve.rejected_shutdown", 1);
      return reject(rid, RequestStatus::kRejectedShutdown, "shutdown");
    case PushOutcome::kOverload:
      MDL_OBS_COUNTER_ADD("serve.rejected_overload", 1);
      return reject(rid, RequestStatus::kRejectedOverload,
                    "overload:queue_depth");
    case PushOutcome::kKindQuota:
      MDL_OBS_COUNTER_ADD("serve.rejected_overload", 1);
      return reject(rid, RequestStatus::kRejectedOverload,
                    "overload:kind_quota");
    case PushOutcome::kAccepted: break;  // unreachable
  }
  return future;
}

Tensor InferenceServer::perturbed_representation(
    const InferenceRequest& request) const {
  Rng rng(request.noise_seed);
  return split_->perturb(request.representation, config_.perturb, rng);
}

Tensor InferenceServer::infer_stacked(
    const std::vector<PendingRequest>& batch) const {
  const auto b = static_cast<std::int64_t>(batch.size());
  if (batch.front().request.kind == RequestKind::kMultiView) {
    // Stack per-request [T_p, dim_p] views into [T_p, B, dim_p] per view
    // (the data::make_batch layout).
    const auto& cfg = multiview_->config();
    std::vector<Tensor> stacked;
    stacked.reserve(cfg.view_dims.size());
    for (std::size_t p = 0; p < cfg.view_dims.size(); ++p) {
      Tensor dst({cfg.seq_lens[p], b, cfg.view_dims[p]});
      for (std::int64_t bi = 0; bi < b; ++bi)
        data::put_time_major(
            batch[static_cast<std::size_t>(bi)].request.views[p], bi, dst);
      stacked.push_back(std::move(dst));
    }
    return multiview_->infer(stacked);
  }

  // kSplit: perturb each request individually (its own seeded Rng), then
  // stack the perturbed rows — batching must not change any noise draw.
  const std::int64_t dim = batch.front().request.representation.shape(1);
  Tensor reps({b, dim});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const Tensor pert =
        perturbed_representation(batch[static_cast<std::size_t>(bi)].request);
    MDL_CHECK(pert.shape(1) == dim,
              "split batch mixes representation widths");
    for (std::int64_t f = 0; f < dim; ++f) reps[bi * dim + f] = pert[f];
  }
  return split_->cloud_infer(reps);
}

Tensor InferenceServer::score(const InferenceRequest& request) const {
  validate(request);
  if (request.kind == RequestKind::kMultiView) {
    std::vector<Tensor> views;
    views.reserve(request.views.size());
    const auto& cfg = multiview_->config();
    for (std::size_t p = 0; p < request.views.size(); ++p)
      views.push_back(request.views[p].reshape(
          {cfg.seq_lens[p], 1, cfg.view_dims[p]}));
    return multiview_->infer(views);
  }
  return split_->cloud_infer(perturbed_representation(request));
}

void InferenceServer::fail_batch(std::vector<PendingRequest>& batch,
                                 Clock::time_point formed,
                                 const char* detail) {
  const auto done = Clock::now();
  const auto b = static_cast<std::int64_t>(batch.size());
  const double exec_us = us_between(formed, done);
  MDL_OBS_COUNTER_ADD("serve.batches_failed", 1);
  for (PendingRequest& p : batch) {
    const std::uint64_t rid = p.request.request_id;
    InferenceResult r;
    r.status = RequestStatus::kError;
    r.request_id = rid;
    r.status_detail = detail;
    r.batch_size = b;
    r.queue_wait_us = us_between(p.enqueue_time, formed);
    r.exec_us = exec_us;
    r.latency_us = us_between(p.enqueue_time, done);
    MDL_OBS_COUNTER_ADD("serve.errors", 1);
    MDL_OBS_GAUGE_ADD("serve.requests_inflight", -1.0);
    p.promise.set_value(std::move(r));
    MDL_OBS_ASYNC_END("serve.exec", rid);
    MDL_OBS_ASYNC_END("serve.request", rid);
  }
}

void InferenceServer::execute_batch(std::vector<PendingRequest> batch) {
  MDL_OBS_SPAN("serve.batch");
  const auto formed = Clock::now();
  const auto b = static_cast<std::int64_t>(batch.size());
  MDL_OBS_COUNTER_ADD("serve.batches", 1);
  MDL_OBS_GAUGE_SET("serve.batch_occupancy_last", static_cast<double>(b));
  observe_occupancy(b);
  for ([[maybe_unused]] const PendingRequest& p : batch) {
    MDL_OBS_ASYNC_END("serve.queue", p.request.request_id);
    MDL_OBS_RING_EVENT(obs::EventType::kAsyncBegin, "serve.exec",
                       p.request.request_id, "batch_size",
                       static_cast<double>(b));
  }

  // Failure isolation: whatever the model (or the chaos injector) throws
  // while this batch executes completes only this batch's futures as
  // kError — the executor thread itself survives and moves on to the next
  // batch. Without this, one poisoned request killed the whole server.
  Tensor logits;  // [B, classes]
  const std::uint64_t batch_key = batch.front().request.request_id;
  try {
    if (injector_.active()) {
      const std::int64_t stall = injector_.stall_us(batch_key);
      if (stall > 0) {
        MDL_OBS_COUNTER_ADD("serve.faults_stall", 1);
        MDL_OBS_RING_EVENT(obs::EventType::kInstant, "serve.fault",
                           batch_key, "stall_us",
                           static_cast<double>(stall), "kind", "stall");
        std::this_thread::sleep_for(std::chrono::microseconds(stall));
      }
      if (injector_.should_fail(batch_key)) {
        MDL_OBS_COUNTER_ADD("serve.faults_injected", 1);
        MDL_OBS_RING_EVENT(obs::EventType::kInstant, "serve.fault",
                           batch_key, "batch_size", static_cast<double>(b),
                           "kind", "batch_fail");
        throw Error("injected batch fault");
      }
    }
    logits = infer_stacked(batch);
  } catch (const std::exception& e) {
    // Record before completing the futures: once a caller's .get() returns,
    // the breaker has already absorbed this batch's outcome.
    breaker_.record_failure();
    fail_batch(batch, formed, e.what());
    return;
  } catch (...) {
    breaker_.record_failure();
    fail_batch(batch, formed, "unknown executor exception");
    return;
  }
  breaker_.record_success();
  const auto done = Clock::now();
  const double exec_us = us_between(formed, done);
  MDL_OBS_HISTOGRAM_OBSERVE("serve.exec_us", exec_us);

  for (std::int64_t bi = 0; bi < b; ++bi) {
    PendingRequest& p = batch[static_cast<std::size_t>(bi)];
    const std::uint64_t rid = p.request.request_id;
    InferenceResult r;
    r.status = RequestStatus::kOk;
    r.request_id = rid;
    r.logits = logits.slice_rows(bi, bi + 1);
    r.argmax = r.logits.argmax_rows().front();
    r.batch_size = b;
    r.queue_wait_us = us_between(p.enqueue_time, formed);
    r.exec_us = exec_us;
    r.latency_us = us_between(p.enqueue_time, done);
    MDL_OBS_HISTOGRAM_OBSERVE("serve.queue_wait_us", r.queue_wait_us);
    MDL_OBS_HISTOGRAM_OBSERVE("serve.latency_us", r.latency_us);
    MDL_OBS_COUNTER_ADD("serve.completed", 1);
    MDL_OBS_GAUGE_ADD("serve.requests_inflight", -1.0);
    p.promise.set_value(std::move(r));
    MDL_OBS_ASYNC_END("serve.exec", rid);
    MDL_OBS_ASYNC_END("serve.request", rid);
  }
}

void InferenceServer::run() {
#ifndef MDL_OBS_DISABLED
  obs::FlightRecorder::global().set_thread_label("serve.executor");
#endif
  for (;;) {
    std::vector<PendingRequest> batch = queue_.pop_batch();
    if (batch.empty()) return;  // drained and shut down
    if (injector_.active()) {
      // Injected executor delay (descheduled worker): the popped batch is
      // already committed to execution, but requests still in the queue
      // keep aging toward their deadlines behind it.
      const std::int64_t delay =
          injector_.pop_delay_us(batch.front().request.request_id);
      if (delay > 0) {
        MDL_OBS_COUNTER_ADD("serve.faults_pop_delay", 1);
        MDL_OBS_RING_EVENT(obs::EventType::kInstant, "serve.fault",
                           batch.front().request.request_id, "delay_us",
                           static_cast<double>(delay), "kind", "pop_delay");
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
    }
    execute_batch(std::move(batch));
  }
}

}  // namespace mdl::serve
