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
// last-good snapshot, and owns the round loop every trainer shares.
// run() resumes from disk if asked (else clears the directory's
// ckpt.<round> files, since a fresh run owns it) and snapshots the starting
// state. Then it calls the trainer's round body, which closes each round
// with end_round(): a healthy round is persisted and becomes the snapshot
// (the archive written to disk is the snapshot); a tripped one is rolled
// back to the last-good state, and the loop decays the learning rate and
// replays from there, or stops once the rollback budget is spent.
// State travels as opaque payload callbacks, so the guard works for any
// trainer that can serialize itself (model, optimizer state, RNG, privacy
// budget, ...) through core/serialize.hpp.
#pragma once

#include <cstdint>
#include <functional>
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

/// The round loop shared by all trainers (see file comment). Owns the
/// optional CheckpointManager, the HealthMonitor, and the in-memory
/// last-good snapshot.
class TrainerGuard {
 public:
  /// `trainer` tags checkpoints so a FedAvg directory cannot silently
  /// restore into a DP-SGD run.
  TrainerGuard(const CheckpointConfig& checkpoint, const HealthConfig& health,
               std::string trainer);

  /// Runs rounds 1..`rounds`: resumes from disk when configured, then calls
  /// `round(r)`, which closes the round with end_round(). After a rollback
  /// the loop scales `lr` by 0.5 compounded over every rollback so far (so
  /// repeated trips at the same round replay at strictly smaller rates) and
  /// replays from the round after the last good one; once more than
  /// max_rollbacks have been taken it stops at the restored last-good
  /// state. `round` returns true to stop early.
  void run(std::int64_t rounds, double& lr, PayloadWriter save,
           PayloadReader load, const std::function<bool(std::int64_t)>& round);

  /// Health-checks the completed round. Healthy: encodes the state once,
  /// persists it when checkpointing, and keeps that archive as the
  /// last-good snapshot. Tripped: restores the last-good state and returns
  /// true.
  bool end_round(std::int64_t round, std::optional<double> loss,
                 std::span<const float> params);

  std::int64_t rollbacks() const { return rollbacks_; }

 private:
  bool active() const { return manager_.has_value() || health_.config().enabled; }
  /// Resumes from disk when configured; a fresh run instead removes every
  /// `ckpt.<round>` file in the directory (other files stay). Then
  /// snapshots the (possibly restored) state as the initial last-good.
  /// Returns the number of already-completed rounds (0 on a fresh start).
  std::int64_t begin();

  std::optional<CheckpointManager> manager_;
  HealthMonitor health_;
  std::string trainer_;
  PayloadWriter save_;
  PayloadReader load_;
  std::string last_good_;  ///< serialized archive of the last healthy state
  std::int64_t last_good_round_ = 0;
  std::int64_t rollbacks_ = 0;
  bool rolled_back_ = false;  ///< the current round was rolled back
};

/// Tags every checkpoint payload: writes the trainer name + state version.
void write_state_header(BinaryWriter& w, const std::string& trainer,
                        std::uint32_t version);
/// Validates the name and requires exactly `version`: a trainer accepts one
/// state layout, and any other throws.
void read_state_header(BinaryReader& r, const std::string& trainer,
                       std::uint32_t version);

}  // namespace mdl::ckpt
