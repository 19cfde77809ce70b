#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace mdl::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCheckpointPrefix = "ckpt.";
/// Retained `ckpt.<round>` files; older ones are pruned after each save.
constexpr std::size_t kKeep = 3;
/// Learning-rate multiplier per rollback (compounded).
constexpr double kLrDecayOnRollback = 0.5;

/// Parses "ckpt.<round>" → round; nullopt for anything else (including the
/// ".tmp" leftovers of an interrupted atomic write).
std::optional<std::int64_t> parse_round(const std::string& filename) {
  const std::string prefix = kCheckpointPrefix;
  if (filename.rfind(prefix, 0) != 0) return std::nullopt;
  const std::string digits = filename.substr(prefix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::stoll(digits);
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)) {
  MDL_CHECK(!config_.dir.empty(), "checkpoint directory must be non-empty");
  fs::create_directories(config_.dir);
}

std::string CheckpointManager::path_for_round(std::int64_t round) const {
  return (fs::path(config_.dir) /
          (kCheckpointPrefix + std::to_string(round)))
      .string();
}

std::vector<std::int64_t> CheckpointManager::list_rounds() const {
  std::vector<std::int64_t> rounds;
  for (const auto& entry : fs::directory_iterator(config_.dir)) {
    if (!entry.is_regular_file()) continue;
    if (const auto r = parse_round(entry.path().filename().string()))
      rounds.push_back(*r);
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds;
}

std::string CheckpointManager::save(std::int64_t round,
                                    const PayloadWriter& payload) {
  std::string bytes = encode_archive(payload, config_.compress);
  write_file_atomic(path_for_round(round), bytes);
  MDL_OBS_COUNTER_ADD("ckpt.saves", 1);
  MDL_OBS_COUNTER_ADD("ckpt.bytes_written", bytes.size());

  const std::vector<std::int64_t> rounds = list_rounds();
  for (std::size_t i = 0; i + kKeep < rounds.size(); ++i) {
    std::error_code ec;  // pruning is best effort
    fs::remove(path_for_round(rounds[i]), ec);
  }
  return bytes;
}

std::optional<std::int64_t> CheckpointManager::load_latest(
    const PayloadReader& payload) const {
  std::vector<std::int64_t> rounds = list_rounds();
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
    try {
      load_archive(path_for_round(*it), payload);
      return *it;
    } catch (const Error&) {
      // Truncated or corrupt — fall back to the previous checkpoint. The
      // bad file is left in place for postmortems; the next save at this
      // round overwrites it atomically.
      MDL_OBS_COUNTER_ADD("ckpt.corrupt_skipped", 1);
    }
  }
  return std::nullopt;
}

TrainerGuard::TrainerGuard(const CheckpointConfig& checkpoint,
                           const HealthConfig& health, std::string trainer)
    : health_(health), trainer_(std::move(trainer)) {
  if (!checkpoint.dir.empty()) {
    manager_.emplace(checkpoint);
#ifndef MDL_OBS_DISABLED
    // A fatal signal mid-training dumps the flight-recorder timeline next
    // to the ckpt.<round> archives, so the crash report and the state to
    // resume from land in the same directory.
    obs::FlightRecorder::install_crash_handler(
        (fs::path(checkpoint.dir) / "trace.crash.json").string());
#endif
  }
}

std::int64_t TrainerGuard::begin() {
  if (!active()) return 0;
  std::int64_t completed = 0;
  if (manager_ && manager_->config().resume) {
    if (const auto round = manager_->load_latest(load_)) {
      completed = *round;
      MDL_OBS_COUNTER_ADD("ckpt.resumes", 1);
    }
  } else if (manager_) {
    // A fresh run owns its directory. An earlier run's higher rounds would
    // otherwise survive pruning in place of this run's and be what a later
    // resume restores.
    for (const std::int64_t r : manager_->list_rounds()) {
      std::error_code ec;
      fs::remove(manager_->path_for_round(r), ec);
      MDL_CHECK(!ec, "cannot remove stale checkpoint "
                         << manager_->path_for_round(r) << ": "
                         << ec.message());
    }
  }
  // Snapshot the (fresh or restored) state so a guard trip on the very
  // first round has something to roll back to.
  last_good_ = encode_archive(save_);
  last_good_round_ = completed;
  return completed;
}

void TrainerGuard::run(std::int64_t rounds, double& lr, PayloadWriter save,
                       PayloadReader load,
                       const std::function<bool(std::int64_t)>& round) {
  save_ = std::move(save);
  load_ = std::move(load);
  for (std::int64_t r = begin() + 1; r <= rounds; ++r) {
    rolled_back_ = false;
    const bool stop = round(r);
    if (rolled_back_) {
      if (rollbacks_ > health_.config().max_rollbacks) {
        MDL_OBS_COUNTER_ADD("health.gave_up", 1);
        break;
      }
      // The restore just reset `lr` to its last-good value.
      lr *= std::pow(kLrDecayOnRollback, static_cast<double>(rollbacks_));
      r = last_good_round_;  // ++ resumes at last_good_round_ + 1
    } else if (stop) {
      break;
    }
  }
}

bool TrainerGuard::end_round(std::int64_t round, std::optional<double> loss,
                             std::span<const float> params) {
  if (!active()) return false;
  if (health_.check(loss, params) == Health::kOk) {
    // One encode per healthy round: the archive on disk is the snapshot.
    last_good_ =
        manager_ ? manager_->save(round, save_) : encode_archive(save_);
    last_good_round_ = round;
    return false;
  }
  // Tripped: restore the last-good state; run() picks the loop back up
  // after it, with a cooler learning rate.
  ++rollbacks_;
  MDL_OBS_COUNTER_ADD("health.rollbacks", 1);
  decode_archive(last_good_, load_);
  health_.reset();
  rolled_back_ = true;
  return true;
}

void write_state_header(BinaryWriter& w, const std::string& trainer,
                        std::uint32_t version) {
  w.write_string(trainer);
  w.write_u32(version);
}

void read_state_header(BinaryReader& r, const std::string& trainer,
                       std::uint32_t version) {
  const std::string stored = r.read_string();
  MDL_CHECK(stored == trainer, "checkpoint belongs to trainer `"
                                   << stored << "`, expected `" << trainer
                                   << "`");
  const std::uint32_t stored_version = r.read_u32();
  MDL_CHECK(stored_version == version,
            "unsupported " << trainer << " checkpoint version "
                           << stored_version << " (expected " << version
                           << ")");
}

}  // namespace mdl::ckpt
