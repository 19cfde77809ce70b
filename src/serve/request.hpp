// Request/result types for the mdl::serve batched inference engine.
//
// Two request kinds flow through one server, mirroring the paper's two
// deployment paths:
//   - kMultiView: a DeepMood/DEEPSERVICE session — one [T_p, dim_p] time
//     series per view, scored by a shared apps::MultiViewModel;
//   - kSplit: a private split-inference upload (Fig. 3) — the phone ships
//     its clean local representation plus a per-request noise seed, and the
//     *server* applies clip + nullification + Laplace noise before the
//     cloud half runs (each request perturbed individually, so batching
//     cannot change any request's noise draws).
//
// Results carry the full per-request latency breakdown (queue wait vs
// execution) and the occupancy of the batch that executed the request, so
// callers can audit the batching policy without scraping metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace mdl::serve {

enum class RequestKind {
  kMultiView,  ///< scored by the multi-view model (views -> logits)
  kSplit,      ///< perturbed server-side, scored by the cloud half
};

/// One inference request. Exactly one payload is used, per `kind`:
/// `views` for kMultiView, `representation` for kSplit.
struct InferenceRequest {
  RequestKind kind = RequestKind::kMultiView;

  /// Trace/track identity of this request. 0 (the default) lets submit()
  /// assign the next id from a process-wide counter; a non-zero id is kept
  /// as-is so callers can correlate with their own upstream ids. The id
  /// tags every flight-recorder event the request touches (queue wait,
  /// batch execution, shed/reject) and is echoed on the result.
  std::uint64_t request_id = 0;

  /// kMultiView: one [T_p, dim_p] tensor per view (single example).
  std::vector<Tensor> views;

  /// kSplit: clean local representation, [1, rep_dim].
  Tensor representation;
  /// kSplit: seeds this request's nullification + Laplace draws. Fixed per
  /// request so batched and sequential execution perturb identically.
  std::uint64_t noise_seed = 0;

  /// Latency budget in microseconds from submit; the request is shed (not
  /// executed) once the budget lapses. 0 uses ServeConfig::default_deadline_us.
  std::int64_t deadline_us = 0;
};

/// Every terminal state a submitted request can reach. The failure-domain
/// contract (DESIGN.md §Failure domains): every future completes with
/// exactly one of these — no exception escapes the executor, no future is
/// abandoned, and each non-kOk status names who refused the work:
///   admission (overload / circuit / shutdown), the queue (deadline), or
///   the executor itself (error).
enum class RequestStatus {
  kOk,
  kShedDeadline,      ///< dropped unexecuted: deadline passed while queued
  kRejectedShutdown,  ///< submitted after (or dropped during) shutdown
  kRejectedOverload,  ///< admission control: queue depth / kind quota full
  kRejectedCircuit,   ///< circuit breaker open: executor presumed unhealthy
  kError,             ///< executed and failed: model threw (message kept)
};

const char* to_string(RequestStatus s);

/// True for the statuses that mean "the request never reached the model"
/// (a client may retry these); false for kOk and kError.
bool is_rejection(RequestStatus s);

struct InferenceResult {
  RequestStatus status = RequestStatus::kOk;
  /// Echoes the request's (possibly auto-assigned) id, on every status —
  /// including shed/rejected results, so failed requests can be found in a
  /// flight-recorder dump by id.
  std::uint64_t request_id = 0;
  /// Uniform machine-readable outcome detail, set on every non-kOk path:
  /// "deadline", "shutdown", "overload:queue_depth", "overload:kind_quota",
  /// "circuit_open", or the executor's exception message on kError —
  /// callers distinguish outcomes without parsing logs.
  std::string status_detail;
  Tensor logits;            ///< [1, classes]; empty unless kOk
  std::int64_t argmax = -1; ///< predicted class; -1 unless kOk
  std::int64_t batch_size = 0;  ///< occupancy of the executing batch
  double queue_wait_us = 0.0;   ///< submit -> batch formation
  double exec_us = 0.0;         ///< batch execution (shared across batch)
  double latency_us = 0.0;      ///< submit -> completion
};

}  // namespace mdl::serve
