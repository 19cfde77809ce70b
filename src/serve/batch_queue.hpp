// Dynamic-batching queue for the inference server.
//
// Producers push requests from any thread; the single executor thread pops
// *batches*. Batching is work-conserving: whenever the executor asks for
// work, it gets the longest same-kind FIFO prefix queued at that moment,
// capped at max_batch_size. A lone request on an idle server runs at once,
// and batches grow only from what arrived while the previous batch ran, so
// no request ever waits for batch-mates while the executor sits idle.
// Keeping batches as strict FIFO prefixes preserves arrival order and makes
// batch composition a pure function of the queue contents at pop time —
// which, with pause()/resume() staging, lets the tests pin
// batched-vs-sequential bit-identity deterministically.
//
// Deadline shedding happens at pop time: any queued request whose absolute
// deadline has lapsed is completed as kShedDeadline without executing —
// the serving analogue of mdl::sim's round-deadline misses.
//
// Admission control happens at push time: a bounded queue (max_queue_depth)
// plus optional per-kind quotas refuse work the server has no hope of
// serving in time, so overload surfaces to callers as an immediate
// kRejectedOverload instead of a deadline shed after a pointless wait
// (backpressure beats buffering). Both bounds apply while paused too —
// pausing stops batch formation, not the laws of admission.
//
// pause()/resume() hold batch formation while producers enqueue, so tests
// can dictate exact batch compositions (e.g. "exactly 3 requests in one
// batch") without racing the executor.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "serve/request.hpp"

namespace mdl::serve {

/// A queued request: payload + completion promise + timing bookkeeping.
struct PendingRequest {
  InferenceRequest request;
  std::promise<InferenceResult> promise;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Absolute shed deadline; time_point::max() when the request has none.
  std::chrono::steady_clock::time_point deadline;
};

/// Microseconds from `from` to `to`: the one clock conversion every serve
/// timing field uses.
inline double us_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                 .count()) /
         1e3;
}

/// The queue limits; ServeConfig extends this, so the server's settings are
/// the queue's settings.
struct BatchQueueConfig {
  /// Cap on the requests in one batch. The executor takes whatever
  /// same-kind FIFO prefix is queued when it is free.
  std::int64_t max_batch_size = 8;
  /// Admission control: queued requests (all kinds) beyond this are refused
  /// as kRejectedOverload. 0 = unbounded.
  std::int64_t max_queue_depth = 0;
  /// Per-kind depth quota, indexed by RequestKind (kMultiView, kSplit);
  /// 0 = no quota. Stops one request kind from starving the other out of
  /// the shared queue.
  std::int64_t kind_quota[2] = {0, 0};
};

/// Why a push was refused (kAccepted when it was not).
enum class PushOutcome {
  kAccepted,
  kShutdown,   ///< shutdown() was called; no new work
  kOverload,   ///< max_queue_depth reached
  kKindQuota,  ///< this request kind's quota reached
};

class BatchQueue {
 public:
  explicit BatchQueue(BatchQueueConfig config);

  /// Enqueues from any thread. On anything but kAccepted, `p` is left
  /// untouched — the caller completes the promise with the matching
  /// rejection status.
  PushOutcome push(PendingRequest&& p);

  /// Blocks until a request is queued and batch formation is not paused,
  /// then returns the batch described above in FIFO order. Expired
  /// requests are shed (their promises completed as kShedDeadline) before
  /// batch formation. After shutdown() the remaining queue keeps draining
  /// in batches; an empty return means fully drained and shut down — the
  /// executor should exit.
  std::vector<PendingRequest> pop_batch();

  /// Stops accepting pushes; pop_batch() drains what is queued.
  void shutdown();

  /// Holds batch formation (pop_batch blocks) until resume(); pushes are
  /// unaffected. Lets tests stage exact batch compositions.
  void pause();
  void resume();

  std::size_t depth() const;
  const BatchQueueConfig& config() const { return config_; }

 private:
  /// Completes and removes every queued request past its deadline.
  /// Caller holds mu_.
  void shed_expired_locked(std::chrono::steady_clock::time_point now);

  BatchQueueConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  /// Queued count per RequestKind, maintained by push / shed / pop.
  std::int64_t kind_depth_[2] = {0, 0};
  bool shutdown_ = false;
  bool paused_ = false;
};

}  // namespace mdl::serve
