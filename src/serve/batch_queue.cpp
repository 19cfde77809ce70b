#include "serve/batch_queue.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace mdl::serve {

BatchQueue::BatchQueue(BatchQueueConfig config) : config_(config) {
  MDL_CHECK(config_.max_batch_size > 0, "max_batch_size must be positive");
  MDL_CHECK(config_.max_queue_depth >= 0, "max_queue_depth must be >= 0");
  MDL_CHECK(config_.kind_quota[0] >= 0 && config_.kind_quota[1] >= 0,
            "kind quotas must be >= 0");
}

PushOutcome BatchQueue::push(PendingRequest&& p) {
  const auto kind = static_cast<std::size_t>(p.request.kind);
  {
    std::lock_guard lock(mu_);
    if (shutdown_) return PushOutcome::kShutdown;
    if (config_.max_queue_depth > 0 &&
        static_cast<std::int64_t>(queue_.size()) >= config_.max_queue_depth)
      return PushOutcome::kOverload;
    if (config_.kind_quota[kind] > 0 &&
        kind_depth_[kind] >= config_.kind_quota[kind])
      return PushOutcome::kKindQuota;
    queue_.push_back(std::move(p));
    ++kind_depth_[kind];
    MDL_OBS_GAUGE_SET("serve.queue_depth",
                      static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  return PushOutcome::kAccepted;
}

void BatchQueue::shed_expired_locked(
    std::chrono::steady_clock::time_point now) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline > now) {
      ++it;
      continue;
    }
    const std::uint64_t rid = it->request.request_id;
    InferenceResult r;
    r.status = RequestStatus::kShedDeadline;
    r.request_id = rid;
    r.status_detail = "deadline";
    r.queue_wait_us = us_between(it->enqueue_time, now);
    r.latency_us = r.queue_wait_us;
    --kind_depth_[static_cast<std::size_t>(it->request.kind)];
    it->promise.set_value(std::move(r));
    MDL_OBS_COUNTER_ADD("serve.shed_deadline", 1);
    MDL_OBS_GAUGE_ADD("serve.requests_inflight", -1.0);
    MDL_OBS_RING_EVENT(obs::EventType::kInstant, "serve.shed", rid,
                       "waited_us", r.queue_wait_us, "reason", "deadline");
    MDL_OBS_ASYNC_END("serve.queue", rid);
    MDL_OBS_ASYNC_END("serve.request", rid);
    it = queue_.erase(it);
  }
}

std::vector<PendingRequest> BatchQueue::pop_batch() {
  std::unique_lock lock(mu_);
  for (;;) {
    shed_expired_locked(std::chrono::steady_clock::now());
    if (queue_.empty() && shutdown_) return {};
    if (!queue_.empty() && (!paused_ || shutdown_)) break;
    cv_.wait(lock);
  }

  // Longest same-kind FIFO prefix, capped at max_batch_size.
  const auto cap = static_cast<std::size_t>(config_.max_batch_size);
  const RequestKind kind = queue_.front().request.kind;
  std::vector<PendingRequest> batch;
  batch.reserve(std::min(cap, queue_.size()));
  while (!queue_.empty() && batch.size() < cap &&
         queue_.front().request.kind == kind) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  kind_depth_[static_cast<std::size_t>(kind)] -=
      static_cast<std::int64_t>(batch.size());
  MDL_OBS_GAUGE_SET("serve.queue_depth", static_cast<double>(queue_.size()));
  return batch;
}

void BatchQueue::shutdown() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

void BatchQueue::pause() {
  {
    std::lock_guard lock(mu_);
    paused_ = true;
  }
  cv_.notify_all();
}

void BatchQueue::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

std::size_t BatchQueue::depth() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

}  // namespace mdl::serve
