// Crash-safe rotating checkpoints + the per-trainer robustness harness.
//
// CheckpointManager owns one directory of `ckpt.<round>` archives, and the
// directory is its own index: every archive verifies itself (magic, length,
// CRC), so the retained rounds are simply the `ckpt.<n>` files present.
// Every write is atomic (temp + fsync + rename + directory fsync), so a
// SIGKILL at any instant leaves the directory with a loadable prefix of
// history. load_latest() walks newest→oldest, skipping anything whose CRC
// or framing fails — the automatic last-good fallback — and only gives up
// when no retained checkpoint verifies.
//
// TrainerGuard bundles the manager with a HealthMonitor and an in-memory
// last-good snapshot into the round-loop protocol every trainer shares:
//   begin()        — resume from disk if asked; else clear the directory's
//                    ckpt.<round> files (a fresh run owns it) and
//                    snapshot round 0
//   end_of_round() — health-check, persist + snapshot when healthy (the
//                    archive written to disk is the snapshot), or roll
//                    back to the last-good state when tripped
// State travels as opaque payload callbacks, so the guard works for any
// trainer that can serialize itself (model, optimizer state, RNG, privacy
// budget, ...) through core/serialize.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/health.hpp"

namespace mdl::ckpt {

/// Where a trainer checkpoints. Every healthy round persists. An empty
/// `dir` disables disk checkpoints (health rollback still works from the
/// in-memory snapshot).
struct CheckpointConfig {
  std::string dir;
  /// Restore the newest verifiable checkpoint before training.
  bool resume = false;
  /// Store `ckpt.<round>` payloads as BlockCodec streams (archive format
  /// v2). Readers auto-detect the version, so flipping this between runs —
  /// including across a resume — is always safe.
  bool compress = false;
};

/// Rotating `ckpt.<round>` scheme over one directory.
class CheckpointManager {
 public:
  /// Creates `config.dir` (and parents) if missing. Throws on bad config.
  explicit CheckpointManager(CheckpointConfig config);

  /// Atomically writes `ckpt.<round>`, prunes all but the newest three,
  /// and returns the archive it wrote.
  std::string save(std::int64_t round, const PayloadWriter& payload);

  /// Loads the newest checkpoint that verifies, skipping corrupt/truncated
  /// ones (each skip bumps ckpt.corrupt_skipped). Returns its round, or
  /// nullopt when nothing loadable exists.
  std::optional<std::int64_t> load_latest(const PayloadReader& payload) const;

  /// Rounds with a `ckpt.<round>` file in the directory, ascending.
  std::vector<std::int64_t> list_rounds() const;

  const CheckpointConfig& config() const { return config_; }
  std::string path_for_round(std::int64_t round) const;

 private:
  CheckpointConfig config_;
};

/// Round-loop robustness protocol shared by all trainers (see file
/// comment). Owns the optional CheckpointManager, the HealthMonitor, and
/// the in-memory last-good snapshot.
class TrainerGuard {
 public:
  /// `trainer` tags checkpoints so a FedAvg directory cannot silently
  /// restore into a DP-SGD run.
  TrainerGuard(const CheckpointConfig& checkpoint, const HealthConfig& health,
               std::string trainer);

  /// Resumes from disk when configured; a fresh run instead removes every
  /// `ckpt.<round>` file in the directory (other files stay). Then
  /// snapshots the (possibly restored) state as the initial last-good.
  /// Returns the number of already-completed rounds (0 on a fresh start).
  std::int64_t begin(const PayloadWriter& save, const PayloadReader& load);

  /// Outcome of end_of_round() for the trainer's loop.
  struct Verdict {
    Health health = Health::kOk;
    bool rolled_back = false;
    /// True when max_rollbacks was exhausted: stop training; the last-good
    /// state has been restored.
    bool give_up = false;
    /// After a rollback: the round training resumes *after*.
    std::int64_t resume_round = 0;
    /// Learning-rate multiplier the trainer applies after a rollback: 0.5
    /// compounded over every rollback so far, so repeated trips at the same
    /// round replay at strictly smaller rates.
    double lr_scale = 1.0;
  };

  /// Health-checks the completed round. Healthy: encodes the state once,
  /// persists it when checkpointing, and keeps that archive as the
  /// last-good snapshot. Tripped: restores the last-good state via `load`
  /// and reports how the trainer should continue.
  Verdict end_of_round(std::int64_t round, std::optional<double> loss,
                       std::span<const float> params,
                       const PayloadWriter& save, const PayloadReader& load);

  bool active() const { return manager_.has_value() || health_.config().enabled; }
  std::int64_t rollbacks() const { return rollbacks_; }

 private:
  std::optional<CheckpointManager> manager_;
  HealthMonitor health_;
  std::string trainer_;
  std::string last_good_;  ///< serialized archive of the last healthy state
  std::int64_t last_good_round_ = 0;
  std::int64_t rollbacks_ = 0;
};

/// Tags every checkpoint payload: writes the trainer name + state version.
void write_state_header(BinaryWriter& w, const std::string& trainer,
                        std::uint32_t version);
/// Validates the name and requires exactly `version`: a trainer accepts one
/// state layout, and any other throws.
void read_state_header(BinaryReader& r, const std::string& trainer,
                       std::uint32_t version);

}  // namespace mdl::ckpt
