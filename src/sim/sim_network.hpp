// SimNetwork — seeded fault-injecting client<->server exchange simulator.
//
// Wraps the model up/download of one synchronous federated round with the
// failure modes a mobile population exhibits: per-client dropout, straggler
// latency, upload truncation/corruption, round deadlines with stale-update
// rejection, and retry-with-backoff. Transfer times and device energy come
// from the mdl::mobile cost model (NetworkModel + DeviceProfile), so
// retries and wasted uploads show up as real latency/energy, not just as
// counters.
//
// Determinism contract: every fault draw is keyed by (plan.seed, round,
// client id) through an independent xoshiro stream, so a round replays
// bit-identically regardless of how many rounds ran before it, and two
// simulators built from the same plan produce identical RoundReports.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mobile/cost_model.hpp"
#include "sim/fault_plan.hpp"

namespace mdl::sim {

/// Terminal state of one client's exchange in one round.
enum class Outcome : std::uint8_t {
  kDelivered,         ///< update accepted by the server
  kDropout,           ///< client never participated this round
  kDeadlineMiss,      ///< gave up (or arrived stale) past the round deadline
  kRetriesExhausted,  ///< every upload attempt failed
};

const char* to_string(Outcome o);

/// What happened to one client in one round.
struct ClientExchange {
  std::size_t client = 0;  ///< caller-supplied id (e.g. shard index)
  Outcome outcome = Outcome::kDelivered;
  std::int64_t attempts = 0;       ///< upload attempts made (0 on dropout)
  double elapsed_s = 0.0;          ///< download + compute + upload + backoff
  double energy_j = 0.0;           ///< device energy burned on the exchange
  std::uint64_t bytes_down = 0;    ///< model download traffic
  std::uint64_t bytes_up_ok = 0;   ///< delivered upload traffic
  std::uint64_t bytes_wasted = 0;  ///< truncated/corrupted/stale upload traffic

  bool delivered() const { return outcome == Outcome::kDelivered; }
};

/// Per-round fault summary (also exported as mdl::obs sim.* metrics).
struct RoundReport {
  std::int64_t round = 0;
  std::vector<ClientExchange> clients;
  std::int64_t delivered = 0;
  std::int64_t dropouts = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t upload_failures = 0;  ///< clients whose every attempt failed
  std::int64_t retries = 0;          ///< attempts beyond each client's first
  std::uint64_t bytes_wasted = 0;
  bool aborted = false;        ///< delivered < plan.min_quorum
  double round_latency_s = 0;  ///< max client elapsed (synchronous barrier)
  double device_energy_j = 0;  ///< summed over clients, retries included
};

/// Cumulative tallies across every simulated round.
struct FaultCounters {
  std::int64_t rounds = 0;
  std::int64_t aborts = 0;
  std::int64_t delivered = 0;
  std::int64_t dropouts = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t upload_failures = 0;
  std::int64_t retries = 0;
  std::uint64_t bytes_wasted = 0;
  double sim_time_s = 0.0;  ///< summed round latencies (simulated clock)
  double energy_j = 0.0;
};

class SimNetwork {
 public:
  explicit SimNetwork(
      FaultPlan plan, mobile::NetworkModel link = mobile::NetworkModel::lte(),
      mobile::DeviceProfile device = mobile::DeviceProfile::mobile_soc());

  /// Simulates the synchronous exchange of one round: every client in
  /// `clients` downloads `bytes_down`, spends `local_compute_s` on device,
  /// then uploads `bytes_up` under the fault plan. Deterministic in
  /// (plan.seed, round, client).
  RoundReport run_round(std::int64_t round,
                        std::span<const std::size_t> clients,
                        std::uint64_t bytes_down, std::uint64_t bytes_up,
                        double local_compute_s = 0.0);

  const FaultPlan& plan() const { return plan_; }
  const mobile::NetworkModel& link() const { return link_; }
  const mobile::DeviceProfile& device() const { return device_; }
  const FaultCounters& counters() const { return counters_; }

 private:
  ClientExchange simulate_exchange(std::int64_t round, std::size_t client,
                                   std::uint64_t bytes_down,
                                   std::uint64_t bytes_up,
                                   double local_compute_s) const;

  FaultPlan plan_;
  mobile::NetworkModel link_;
  mobile::DeviceProfile device_;
  FaultCounters counters_;
};

}  // namespace mdl::sim
