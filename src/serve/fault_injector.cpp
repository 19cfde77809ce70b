#include "serve/fault_injector.hpp"

#include "core/error.hpp"
#include "core/random.hpp"

namespace mdl::serve {

namespace {

/// Independent stream per (seed, request, fault kind): mixing the kind salt
/// in keeps "does it fail" uncorrelated with "does it stall".
enum class FaultKind : std::uint64_t {
  kFail = 0x2545F4914F6CDD1DULL,
  kStall = 0x9E6C63D0876A9A47ULL,
  kPopDelay = 0xD6E8FEB86659FD93ULL,
};

Rng fault_rng(std::uint64_t seed, std::uint64_t request_id, FaultKind kind) {
  std::uint64_t k = mix64(seed + 0x9E3779B97F4A7C15ULL);
  k = mix64(k ^ (request_id * 0xD1B54A32D192ED03ULL));
  k = mix64(k ^ static_cast<std::uint64_t>(kind));
  return Rng(k);
}

}  // namespace

void FaultConfig::validate() const {
  MDL_CHECK(batch_fail_prob >= 0.0 && batch_fail_prob <= 1.0,
            "batch_fail_prob must be in [0, 1]");
  MDL_CHECK(batch_stall_prob >= 0.0 && batch_stall_prob <= 1.0,
            "batch_stall_prob must be in [0, 1]");
  MDL_CHECK(pop_delay_prob >= 0.0 && pop_delay_prob <= 1.0,
            "pop_delay_prob must be in [0, 1]");
  MDL_CHECK(batch_stall_us >= 0, "batch_stall_us must be >= 0");
  MDL_CHECK(pop_delay_us >= 0, "pop_delay_us must be >= 0");
}

FaultInjector::FaultInjector(FaultConfig config) : config_(config) {
  config_.validate();
}

bool FaultInjector::should_fail(std::uint64_t request_id) const {
  if (config_.batch_fail_prob <= 0.0) return false;
  Rng rng = fault_rng(config_.seed, request_id, FaultKind::kFail);
  return rng.bernoulli(config_.batch_fail_prob);
}

std::int64_t FaultInjector::stall_us(std::uint64_t request_id) const {
  if (config_.batch_stall_prob <= 0.0) return 0;
  Rng rng = fault_rng(config_.seed, request_id, FaultKind::kStall);
  return rng.bernoulli(config_.batch_stall_prob) ? config_.batch_stall_us : 0;
}

std::int64_t FaultInjector::pop_delay_us(std::uint64_t request_id) const {
  if (config_.pop_delay_prob <= 0.0) return 0;
  Rng rng = fault_rng(config_.seed, request_id, FaultKind::kPopDelay);
  return rng.bernoulli(config_.pop_delay_prob) ? config_.pop_delay_us : 0;
}

}  // namespace mdl::serve
