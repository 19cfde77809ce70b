#include "sim/sim_network.hpp"

#include <algorithm>

#include "core/random.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mdl::sim {

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kDelivered:
      return "delivered";
    case Outcome::kDropout:
      return "dropout";
    case Outcome::kDeadlineMiss:
      return "deadline_miss";
    case Outcome::kRetriesExhausted:
      return "retries_exhausted";
  }
  return "unknown";
}

namespace {

/// Decorrelates the (seed, round, client) key so each exchange gets an
/// independent, replayable stream.
std::uint64_t exchange_key(std::uint64_t seed, std::int64_t round,
                           std::size_t client) {
  std::uint64_t k = mix64(seed + 0x9E3779B97F4A7C15ULL);
  k = mix64(k ^ (static_cast<std::uint64_t>(round) * 0xD1B54A32D192ED03ULL));
  k = mix64(k ^ (static_cast<std::uint64_t>(client) * 0x8CB92BA72F3D8DD7ULL));
  return k;
}

}  // namespace

SimNetwork::SimNetwork(FaultPlan plan, mobile::NetworkModel link,
                       mobile::DeviceProfile device)
    : plan_(plan), link_(link), device_(std::move(device)) {
  plan_.validate();
}

ClientExchange SimNetwork::simulate_exchange(std::int64_t round,
                                             std::size_t client,
                                             std::uint64_t bytes_down,
                                             std::uint64_t bytes_up,
                                             double local_compute_s) const {
  ClientExchange ex;
  ex.client = client;
  Rng rng(exchange_key(plan_.seed, round, client));

  if (rng.bernoulli(plan_.dropout_prob)) {
    ex.outcome = Outcome::kDropout;
    return ex;
  }

  const auto slowdown = [&]() {
    return rng.bernoulli(plan_.straggler_prob)
               ? 1.0 + rng.exponential(1.0 / plan_.straggler_mean_slowdown)
               : 1.0;
  };
  const double deadline = plan_.round_deadline_s;
  const auto past_deadline = [&] {
    return deadline > 0.0 && ex.elapsed_s > deadline;
  };

  // Model download (assumed reliable; the flaky direction is the uplink).
  const double down_s = link_.download_time_s(bytes_down) * slowdown();
  ex.elapsed_s += link_.rtt_s + down_s;
  ex.energy_j += down_s * device_.radio_watts + link_.rtt_s * device_.idle_watts;
  ex.bytes_down = bytes_down;

  ex.elapsed_s += local_compute_s;
  ex.energy_j += local_compute_s * device_.compute_watts;

  const double up_base_s = link_.upload_time_s(bytes_up);
  const std::int64_t max_attempts = 1 + plan_.max_retries;
  for (std::int64_t attempt = 1; attempt <= max_attempts; ++attempt) {
    ex.attempts = attempt;
    const double attempt_s = up_base_s * slowdown() + link_.rtt_s;

    if (rng.bernoulli(plan_.truncation_prob)) {
      // Link died mid-transfer after a uniform fraction of the payload.
      const double frac = rng.uniform();
      ex.elapsed_s += attempt_s * frac;
      ex.energy_j += attempt_s * frac * device_.radio_watts;
      ex.bytes_wasted +=
          static_cast<std::uint64_t>(frac * static_cast<double>(bytes_up));
    } else if (rng.bernoulli(plan_.corruption_prob)) {
      // Full transfer, rejected by the server's integrity check.
      ex.elapsed_s += attempt_s;
      ex.energy_j += attempt_s * device_.radio_watts;
      ex.bytes_wasted += bytes_up;
    } else {
      ex.elapsed_s += attempt_s;
      ex.energy_j += attempt_s * device_.radio_watts;
      if (past_deadline()) {
        // Stale-update rejection: the upload landed after the server closed
        // the round, so the bytes were spent for nothing.
        ex.outcome = Outcome::kDeadlineMiss;
        ex.bytes_wasted += bytes_up;
      } else {
        ex.outcome = Outcome::kDelivered;
        ex.bytes_up_ok = bytes_up;
      }
      return ex;
    }

    // Attempt failed: give up on deadline, otherwise back off and retry.
    if (past_deadline()) {
      ex.outcome = Outcome::kDeadlineMiss;
      return ex;
    }
    if (attempt < max_attempts) {
      const double backoff =
          plan_.retry_backoff_s * static_cast<double>(1LL << (attempt - 1));
      ex.elapsed_s += backoff;
      ex.energy_j += backoff * device_.idle_watts;
      if (past_deadline()) {
        ex.outcome = Outcome::kDeadlineMiss;
        return ex;
      }
    }
  }
  ex.outcome = Outcome::kRetriesExhausted;
  return ex;
}

RoundReport SimNetwork::run_round(std::int64_t round,
                                  std::span<const std::size_t> clients,
                                  std::uint64_t bytes_down,
                                  std::uint64_t bytes_up,
                                  double local_compute_s) {
  MDL_OBS_SPAN_T("sim.round", obs::track_round(round));
  RoundReport report;
  report.round = round;
  report.clients.reserve(clients.size());

  for (const std::size_t client : clients) {
    // Real wall-clock begin/end around the exchange computation, tagged with
    // the (round, client) track; the *simulated* elapsed time and fault
    // outcome ride as args on the end event.
    [[maybe_unused]] const std::uint64_t track =
        obs::track_round_client(round, client);
    MDL_OBS_RING_BEGIN("sim.exchange", track);
    ClientExchange ex =
        simulate_exchange(round, client, bytes_down, bytes_up, local_compute_s);
    MDL_OBS_RING_EVENT(obs::EventType::kEnd, "sim.exchange", track,
                       "sim_elapsed_s", ex.elapsed_s, "outcome",
                       to_string(ex.outcome));
    switch (ex.outcome) {
      case Outcome::kDelivered:
        ++report.delivered;
        break;
      case Outcome::kDropout:
        ++report.dropouts;
        break;
      case Outcome::kDeadlineMiss:
        ++report.deadline_misses;
        break;
      case Outcome::kRetriesExhausted:
        ++report.upload_failures;
        break;
    }
    if (ex.attempts > 0) report.retries += ex.attempts - 1;
    report.bytes_wasted += ex.bytes_wasted;
    report.round_latency_s = std::max(report.round_latency_s, ex.elapsed_s);
    report.device_energy_j += ex.energy_j;
    report.clients.push_back(std::move(ex));
  }
  report.aborted = report.delivered < plan_.min_quorum;

  ++counters_.rounds;
  counters_.aborts += report.aborted ? 1 : 0;
  counters_.delivered += report.delivered;
  counters_.dropouts += report.dropouts;
  counters_.deadline_misses += report.deadline_misses;
  counters_.upload_failures += report.upload_failures;
  counters_.retries += report.retries;
  counters_.bytes_wasted += report.bytes_wasted;
  counters_.sim_time_s += report.round_latency_s;
  counters_.energy_j += report.device_energy_j;

  MDL_OBS_COUNTER_ADD("sim.rounds", 1);
  MDL_OBS_COUNTER_ADD("sim.delivered",
                      static_cast<std::uint64_t>(report.delivered));
  MDL_OBS_COUNTER_ADD("sim.dropouts",
                      static_cast<std::uint64_t>(report.dropouts));
  MDL_OBS_COUNTER_ADD("sim.deadline_misses",
                      static_cast<std::uint64_t>(report.deadline_misses));
  MDL_OBS_COUNTER_ADD("sim.upload_failures",
                      static_cast<std::uint64_t>(report.upload_failures));
  MDL_OBS_COUNTER_ADD("sim.retries", static_cast<std::uint64_t>(report.retries));
  MDL_OBS_COUNTER_ADD("sim.bytes_wasted", report.bytes_wasted);
  if (report.aborted) MDL_OBS_COUNTER_ADD("sim.round_aborts", 1);
  MDL_OBS_GAUGE_SET("sim.round_latency_s", report.round_latency_s);
  MDL_OBS_GAUGE_SET("sim.device_energy_j", counters_.energy_j);
  return report;
}

}  // namespace mdl::sim
