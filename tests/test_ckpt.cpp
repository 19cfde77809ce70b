// mdl::ckpt — archive framing, corruption detection, rotation/fallback,
// numerical-health rollback, and in-process resume bit-identity for every
// trainer. The corruption-injection tests run a seeded sweep of bit flips
// and truncations and assert the only possible outcome is a clean
// mdl::Error (the unit label runs under ASan+UBSan in CI, so UB here
// fails the build).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/health.hpp"
#include "compress/codec.hpp"
#include "core/crc32.hpp"
#include "core/random.hpp"
#include "data/synthetic.hpp"
#include "federated/fedavg.hpp"
#include "federated/selective_sgd.hpp"
#include "privacy/accountant.hpp"
#include "privacy/dp_fedavg.hpp"
#include "privacy/dp_sgd.hpp"
#include "sim/sim_network.hpp"

namespace mdl::ckpt {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on teardown.
struct CkptFixture : ::testing::Test {
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir = (fs::temp_directory_path() /
           (std::string("mdl_ckpt_") + info->name()))
              .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  std::string dir;
};

std::string write_round_trip_archive() {
  return encode_archive([](BinaryWriter& w) {
    w.write_u64(42);
    w.write_string("payload");
    w.write_f64(3.5);
  });
}

void read_round_trip_archive(const std::string& bytes) {
  decode_archive(bytes, [](BinaryReader& r) {
    EXPECT_EQ(r.read_u64(), 42u);
    EXPECT_EQ(r.read_string(), "payload");
    EXPECT_EQ(r.read_f64(), 3.5);
  });
}

// ---------------------------------------------------------------- CRC-32 --

TEST(Crc32, KnownAnswer) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32("", 0), 0u); }

TEST(Crc32, Incremental) {
  std::uint32_t crc = crc32_update(0, "1234", 4);
  crc = crc32_update(crc, "56789", 5);
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, SingleBitChangesValue) {
  std::string data = "checkpoint payload bytes";
  const std::uint32_t base = crc32(data.data(), data.size());
  data[5] ^= 0x01;
  EXPECT_NE(crc32(data.data(), data.size()), base);
}

// ------------------------------------------------------- archive framing --

TEST(Archive, RoundTrips) { read_round_trip_archive(write_round_trip_archive()); }

TEST(Archive, EveryBitFlipIsDetected) {
  const std::string good = write_round_trip_archive();
  // Flip one bit at a seeded sample of positions (every byte, one random
  // bit each) — decode must throw a clean mdl::Error, never crash.
  Rng rng(2024);
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    std::string bad = good;
    bad[byte] ^= static_cast<char>(1 << rng.uniform_int(8));
    EXPECT_THROW(decode_archive(bad, [](BinaryReader&) {}), Error)
        << "bit flip in byte " << byte << " went undetected";
  }
}

TEST(Archive, EveryTruncationIsDetected) {
  const std::string good = write_round_trip_archive();
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::string bad = good.substr(0, len);
    EXPECT_THROW(decode_archive(bad, [](BinaryReader&) {}), Error)
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST(Archive, TrailingGarbageIsDetected) {
  std::string bad = write_round_trip_archive();
  bad += "extra";
  EXPECT_THROW(decode_archive(bad, [](BinaryReader&) {}), Error);
}

TEST(Archive, UnderconsumingReaderIsDetected) {
  const std::string good = write_round_trip_archive();
  EXPECT_THROW(
      decode_archive(good, [](BinaryReader& r) { r.read_u64(); }), Error);
}

TEST(Archive, RandomBytesNeverCrash) {
  // Seeded fuzz: arbitrary byte strings must throw cleanly.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(64));
    std::string junk(n, '\0');
    for (auto& c : junk)
      c = static_cast<char>(rng.uniform_int(256));
    EXPECT_THROW(decode_archive(junk, [](BinaryReader& r) { r.read_u64(); }),
                 Error);
  }
}

// --------------------------------------- compressed payloads (format v2) --

/// A model-like payload: long zero runs and a narrow byte histogram, the
/// shape BlockCodec is built for.
PayloadWriter skewed_payload() {
  return [](BinaryWriter& w) {
    w.write_u64(7);
    for (int i = 0; i < 4096; ++i) w.write_f32(i % 16 == 0 ? 0.25f : 0.0f);
  };
}

void read_skewed_payload(BinaryReader& r) {
  EXPECT_EQ(r.read_u64(), 7u);
  for (int i = 0; i < 4096; ++i)
    EXPECT_EQ(r.read_f32(), i % 16 == 0 ? 0.25f : 0.0f);
}

TEST(ArchiveCompressed, RoundTrips) {
  const std::string bytes = encode_archive(skewed_payload(), /*compress=*/true);
  decode_archive(bytes, read_skewed_payload);
}

TEST(ArchiveCompressed, SmallerThanPlainOnSkewedPayload) {
  const std::string plain = encode_archive(skewed_payload());
  const std::string packed =
      encode_archive(skewed_payload(), /*compress=*/true);
  EXPECT_LT(packed.size(), plain.size() / 2)
      << "zero-heavy payload should shrink hard";
}

TEST(ArchiveCompressed, VersionsInteroperate) {
  // The reader auto-detects v1 vs v2, so the same PayloadReader must accept
  // both renderings of the same payload.
  decode_archive(encode_archive(skewed_payload(), false), read_skewed_payload);
  decode_archive(encode_archive(skewed_payload(), true), read_skewed_payload);
}

TEST(ArchiveCompressed, EveryBitFlipIsDetected) {
  // Same contract as the plain sweep: the outer CRC covers the *encoded*
  // bytes, so any flip is caught before the codec parses them.
  const std::string good =
      encode_archive([](BinaryWriter& w) { w.write_string("compressed me"); },
                     /*compress=*/true);
  Rng rng(2024);
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    std::string bad = good;
    bad[byte] ^= static_cast<char>(1 << rng.uniform_int(8));
    EXPECT_THROW(decode_archive(bad, [](BinaryReader&) {}), Error)
        << "bit flip in byte " << byte << " went undetected";
  }
}

TEST(ArchiveCompressed, EveryTruncationIsDetected) {
  const std::string good = encode_archive(skewed_payload(), /*compress=*/true);
  for (std::size_t len = 0; len < good.size(); len += 7) {
    const std::string bad = good.substr(0, len);
    EXPECT_THROW(decode_archive(bad, [](BinaryReader&) {}), Error)
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST_F(CkptFixture, AtomicWriteLeavesNoTempFile) {
  const std::string path = dir + "/file";
  write_file_atomic(path, "hello");
  EXPECT_EQ(read_file(path), "hello");
  write_file_atomic(path, "replaced");
  EXPECT_EQ(read_file(path), "replaced");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ------------------------------------------------------ CheckpointManager --

CheckpointConfig make_config(const std::string& dir) {
  CheckpointConfig cfg;
  cfg.dir = dir;
  return cfg;
}

PayloadWriter int_payload(std::int64_t v) {
  return [v](BinaryWriter& w) { w.write_i64(v); };
}

std::optional<std::int64_t> load_int(const CheckpointManager& mgr,
                                     std::int64_t* out) {
  return mgr.load_latest([out](BinaryReader& r) { *out = r.read_i64(); });
}

TEST_F(CkptFixture, SaveLoadRoundTrip) {
  CheckpointManager mgr(make_config(dir));
  mgr.save(1, int_payload(100));
  mgr.save(2, int_payload(200));
  std::int64_t v = 0;
  EXPECT_EQ(load_int(mgr, &v), std::optional<std::int64_t>(2));
  EXPECT_EQ(v, 200);
}

TEST_F(CkptFixture, RotationPrunesOldCheckpoints) {
  CheckpointManager mgr(make_config(dir));
  for (std::int64_t round = 1; round <= 5; ++round)
    mgr.save(round, int_payload(round));
  EXPECT_EQ(mgr.list_rounds(), (std::vector<std::int64_t>{3, 4, 5}));
  EXPECT_FALSE(fs::exists(mgr.path_for_round(1)));
  EXPECT_FALSE(fs::exists(mgr.path_for_round(2)));
}

TEST_F(CkptFixture, CorruptNewestFallsBackToLastGood) {
  CheckpointManager mgr(make_config(dir));
  mgr.save(1, int_payload(100));
  mgr.save(2, int_payload(200));
  mgr.save(3, int_payload(300));

  // Flip a payload bit in the newest checkpoint.
  std::string bytes = read_file(mgr.path_for_round(3));
  bytes[bytes.size() / 2] ^= 0x10;
  write_file_atomic(mgr.path_for_round(3), bytes);

  std::int64_t v = 0;
  EXPECT_EQ(load_int(mgr, &v), std::optional<std::int64_t>(2));
  EXPECT_EQ(v, 200);
}

TEST_F(CkptFixture, TruncatedNewestFallsBackToLastGood) {
  CheckpointManager mgr(make_config(dir));
  mgr.save(7, int_payload(700));
  mgr.save(9, int_payload(900));

  const std::string bytes = read_file(mgr.path_for_round(9));
  write_file_atomic(mgr.path_for_round(9),
                    bytes.substr(0, bytes.size() / 2));

  std::int64_t v = 0;
  EXPECT_EQ(load_int(mgr, &v), std::optional<std::int64_t>(7));
  EXPECT_EQ(v, 700);
}

TEST_F(CkptFixture, AllCorruptLoadsNothing) {
  CheckpointManager mgr(make_config(dir));
  mgr.save(1, int_payload(100));
  mgr.save(2, int_payload(200));
  for (const std::int64_t round : {1, 2})
    write_file_atomic(mgr.path_for_round(round), "garbage");
  std::int64_t v = -1;
  EXPECT_EQ(load_int(mgr, &v), std::nullopt);
  EXPECT_EQ(v, -1);  // payload reader never ran
}

TEST_F(CkptFixture, DeletedCheckpointIsNotListed) {
  // The directory is the index: once a ckpt.<n> file is gone (deleted by
  // hand, or pruned), that round is neither listed nor loaded.
  CheckpointManager mgr(make_config(dir));
  mgr.save(1, int_payload(100));
  mgr.save(2, int_payload(200));
  fs::remove(mgr.path_for_round(2));
  EXPECT_EQ(mgr.list_rounds(), (std::vector<std::int64_t>{1}));
  std::int64_t v = 0;
  EXPECT_EQ(load_int(mgr, &v), std::optional<std::int64_t>(1));
}

TEST_F(CkptFixture, CheckpointRenamedBeforeCrashIsResumed) {
  // A kill right after the rename of ckpt.3 (before pruning) leaves a
  // complete file on disk; the directory alone must make it loadable.
  CheckpointManager mgr(make_config(dir));
  mgr.save(1, int_payload(100));
  mgr.save(2, int_payload(200));
  write_file_atomic(mgr.path_for_round(3), encode_archive(int_payload(300)));

  std::int64_t v = 0;
  EXPECT_EQ(load_int(mgr, &v), std::optional<std::int64_t>(3));
  EXPECT_EQ(v, 300);
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_EQ(entry.path().filename().string().rfind("ckpt.", 0), 0u)
        << "unexpected file " << entry.path();
}

TEST_F(CkptFixture, CorruptManifestFallsBackToDirectoryScan) {
  // The directory is the index: a garbage MANIFEST (say, left behind by an
  // older checkpoint layout) is neither read nor trusted.
  CheckpointManager mgr(make_config(dir));
  mgr.save(4, int_payload(400));
  mgr.save(6, int_payload(600));
  std::ofstream(dir + "/MANIFEST", std::ios::binary) << "not an archive";

  EXPECT_EQ(mgr.list_rounds(), (std::vector<std::int64_t>{4, 6}));
  std::int64_t v = 0;
  EXPECT_EQ(load_int(mgr, &v), std::optional<std::int64_t>(6));
  EXPECT_EQ(v, 600);
}

TEST_F(CkptFixture, TempFileLeftoverIsNotACheckpoint) {
  // Only `ckpt.<digits>` files are checkpoints: an interrupted write's temp
  // file and a non-numeric suffix are ignored.
  CheckpointManager mgr(make_config(dir));
  mgr.save(1, int_payload(100));
  std::ofstream(dir + "/ckpt.5.tmp", std::ios::binary) << "partial";
  std::ofstream(dir + "/ckpt.abc", std::ios::binary) << "junk";
  EXPECT_EQ(mgr.list_rounds(), (std::vector<std::int64_t>{1}));
}

TEST_F(CkptFixture, WrongTrainerTagRejected) {
  CheckpointManager mgr(make_config(dir));
  mgr.save(1, [](BinaryWriter& w) { write_state_header(w, "fedavg", 1); });
  EXPECT_EQ(mgr.load_latest([](BinaryReader& r) {
    read_state_header(r, "dp_sgd", 1);
  }),
            std::nullopt);

  // One accepted version per format: an older state layout is refused.
  EXPECT_EQ(mgr.load_latest([](BinaryReader& r) {
    read_state_header(r, "fedavg", 2);
  }),
            std::nullopt);
  EXPECT_THROW(decode_archive(encode_archive([](BinaryWriter& w) {
                                write_state_header(w, "fedavg", 3);
                              }),
                              [](BinaryReader& r) {
                                read_state_header(r, "fedavg", 4);
                              }),
               Error);
}

TEST_F(CkptFixture, HealthyRoundRunsPayloadWriterOnce) {
  // The archive persisted for a healthy round is also the rollback
  // snapshot, so the payload writer runs once per round, not twice.
  TrainerGuard guard(make_config(dir), HealthConfig{}, "probe");
  std::int64_t state = 0;
  int writes = 0;
  const PayloadWriter save = [&](BinaryWriter& w) {
    ++writes;
    w.write_i64(state);
  };
  const PayloadReader load = [&](BinaryReader& r) { state = r.read_i64(); };
  const std::vector<float> params{0.0f};
  std::vector<std::int64_t> rounds_run;
  double lr = 1.0;
  guard.run(5, lr, save, load, [&](std::int64_t round) {
    rounds_run.push_back(round);
    writes = 0;
    if (rounds_run.size() <= 4) {
      state = round * 10;
      EXPECT_FALSE(guard.end_round(round, 1.0, params)) << "round " << round;
      EXPECT_EQ(writes, 1) << "round " << round;
      return false;
    }
    if (rounds_run.size() == 5) {
      EXPECT_EQ(CheckpointManager(make_config(dir)).list_rounds(),
                (std::vector<std::int64_t>{2, 3, 4}));
      state = -1;
      EXPECT_TRUE(guard.end_round(
          round, std::numeric_limits<double>::quiet_NaN(), params));
      EXPECT_EQ(state, 40);  // restored from round 4's archive
      EXPECT_EQ(writes, 0);
      return false;
    }
    return true;  // the replayed round: stop here
  });
  // A fresh start runs round 1 first; the rollback resumes after round 4,
  // at half the learning rate.
  EXPECT_EQ(rounds_run, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 5}));
  EXPECT_EQ(lr, 0.5);
}

// ---------------------------------------------------------- HealthMonitor --

TEST(HealthMonitor, AcceptsFiniteStableLoss) {
  HealthMonitor hm;
  const std::vector<float> params{0.5f, -1.0f};
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(hm.check(1.0, params), Health::kOk);
}

TEST(HealthMonitor, FlagsNonFiniteLoss) {
  HealthMonitor hm;
  const std::vector<float> params{0.5f};
  EXPECT_EQ(hm.check(std::numeric_limits<double>::quiet_NaN(), params),
            Health::kNonFinite);
  EXPECT_EQ(hm.check(std::numeric_limits<double>::infinity(), params),
            Health::kNonFinite);
}

TEST(HealthMonitor, FlagsNonFiniteParams) {
  HealthMonitor hm;
  const std::vector<float> params{0.5f,
                                  std::numeric_limits<float>::quiet_NaN()};
  EXPECT_EQ(hm.check(1.0, params), Health::kNonFinite);
}

TEST(HealthMonitor, DivergenceTripsOnlyAfterWarmup) {
  HealthConfig cfg;
  cfg.warmup_rounds = 3;
  cfg.divergence_factor = 2.0;
  cfg.divergence_slack = 0.0;
  HealthMonitor hm(cfg);
  const std::vector<float> params{0.0f};
  // During warmup even a huge loss passes (the baseline is still forming).
  EXPECT_EQ(hm.check(100.0, params), Health::kOk);
  for (int i = 0; i < 5; ++i) hm.check(1.0, params);
  EXPECT_EQ(hm.check(1.5, params), Health::kOk);
  EXPECT_EQ(hm.check(1000.0, params), Health::kDiverged);
}

TEST(HealthMonitor, NulloptLossSkipsDivergenceAndEma) {
  HealthConfig cfg;
  cfg.warmup_rounds = 0;
  HealthMonitor hm(cfg);
  const std::vector<float> params{0.0f};
  hm.check(1.0, params);
  const double ema = hm.loss_ema();
  // Aborted rounds (no loss) neither trip nor move the baseline.
  EXPECT_EQ(hm.check(std::nullopt, params), Health::kOk);
  EXPECT_EQ(hm.loss_ema(), ema);
}

TEST(HealthMonitor, DisabledNeverTrips) {
  HealthConfig cfg;
  cfg.enabled = false;
  HealthMonitor hm(cfg);
  const std::vector<float> params{std::numeric_limits<float>::quiet_NaN()};
  EXPECT_EQ(hm.check(std::numeric_limits<double>::quiet_NaN(), params),
            Health::kOk);
}

TEST(HealthMonitor, ResetForgetsBaseline) {
  HealthConfig cfg;
  cfg.warmup_rounds = 1;
  cfg.divergence_factor = 2.0;
  cfg.divergence_slack = 0.0;
  HealthMonitor hm(cfg);
  const std::vector<float> params{0.0f};
  hm.check(1.0, params);
  hm.check(1.0, params);
  EXPECT_EQ(hm.check(10.0, params), Health::kDiverged);
  hm.reset();
  // Baseline gone: the same loss is warmup again.
  EXPECT_EQ(hm.check(10.0, params), Health::kOk);
}

TEST(HealthMonitor, FirstLossSetsBaselineEvenWithoutWarmup) {
  HealthConfig cfg;
  cfg.warmup_rounds = 0;
  cfg.divergence_factor = 2.0;
  HealthMonitor hm(cfg);
  const std::vector<float> params{0.0f};
  // A normal 3-class starting loss is above the slack; with no EMA yet it
  // sets the baseline instead of counting as divergence.
  EXPECT_EQ(hm.check(1.257, params), Health::kOk);
  EXPECT_EQ(hm.loss_ema(), 1.257);
  EXPECT_EQ(hm.check(10.0, params), Health::kDiverged);
  // After a rollback's reset() the next loss is the baseline again.
  hm.reset();
  EXPECT_EQ(hm.check(10.0, params), Health::kOk);
  // Non-finite values still trip at once, with or without a baseline.
  hm.reset();
  EXPECT_EQ(hm.check(std::numeric_limits<double>::quiet_NaN(), params),
            Health::kNonFinite);
  const std::vector<float> bad{std::numeric_limits<float>::infinity()};
  EXPECT_EQ(hm.check(1.0, bad), Health::kNonFinite);
}

// ------------------------------------------------- state component round-trips

TEST(StateRoundTrip, RngResumesExactStream) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) rng.next_u64();
  rng.normal();  // populate the Box-Muller cache

  std::ostringstream os;
  {
    BinaryWriter w(os);
    rng.serialize(w);
  }
  std::istringstream is(os.str());
  BinaryReader r(is);
  Rng restored = Rng::deserialize(r);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.next_u64(), rng.next_u64());
  }
  EXPECT_EQ(restored.normal(), rng.normal());
}

TEST(StateRoundTrip, AccountantKeepsSpentBudget) {
  privacy::MomentsAccountant acc;
  acc.add_steps(120, 0.02, 1.1);

  std::ostringstream os;
  {
    BinaryWriter w(os);
    acc.serialize(w);
  }
  std::istringstream is(os.str());
  BinaryReader r(is);
  const auto restored = privacy::MomentsAccountant::deserialize(r);
  EXPECT_EQ(restored.epsilon(1e-5), acc.epsilon(1e-5));
  EXPECT_EQ(restored.rdp_at(2), acc.rdp_at(2));
}

// ------------------------------------------------ trainer resume bit-identity

struct TrainerFixture : CkptFixture {
  TrainerFixture() {
    Rng rng(1);
    data::SyntheticConfig c;
    c.num_samples = 400;
    c.num_features = 8;
    c.num_classes = 3;
    c.class_sep = 2.5;
    const auto ds = data::make_classification(c, rng);
    const auto split = data::train_test_split(ds, 0.25, rng);
    test_set = split.test;
    train_set = split.train;
    shards = data::partition_dirichlet(split.train, 4, 0.5, rng);
    factory = federated::mlp_factory(8, 8, 3);
  }
  data::TabularDataset test_set;
  data::TabularDataset train_set;
  std::vector<data::TabularDataset> shards;
  federated::ModelFactory factory;
};

TEST_F(TrainerFixture, FedAvgResumeIsBitIdentical) {
  federated::FedAvgConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 2;

  // Uninterrupted reference run.
  federated::FedAvgTrainer ref(factory, shards, cfg);
  const auto ref_history = ref.run(test_set);
  const auto ref_params = nn::flatten_values(ref.global_model().parameters());

  // Interrupted run: 3 rounds with checkpoints, then a fresh trainer
  // resumes from disk and finishes.
  federated::FedAvgConfig first = cfg;
  first.rounds = 3;
  first.checkpoint.dir = dir;
  federated::FedAvgTrainer part1(factory, shards, first);
  part1.run(test_set);

  federated::FedAvgConfig second = cfg;
  second.checkpoint.dir = dir;
  second.checkpoint.resume = true;
  federated::FedAvgTrainer part2(factory, shards, second);
  const auto resumed_history = part2.run(test_set);
  const auto resumed_params =
      nn::flatten_values(part2.global_model().parameters());

  EXPECT_EQ(resumed_params, ref_params);  // bit-identical floats
  EXPECT_EQ(part2.ledger().bytes_up, ref.ledger().bytes_up);
  EXPECT_EQ(part2.ledger().bytes_down, ref.ledger().bytes_down);
  ASSERT_EQ(resumed_history.size(), 3u);  // rounds 4..6
  EXPECT_EQ(resumed_history.back(), ref_history.back());
}

TEST_F(TrainerFixture, FreshRunReplacesAnEarlierRunsCheckpoints) {
  // A fresh run (no resume) owns its directory: a longer earlier run's
  // ckpt.<n> files go before its first save, so pruning keeps this run's
  // rounds and a later resume continues this run. Other files stay.
  federated::FedAvgConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 2;
  cfg.checkpoint.dir = dir;
  federated::FedAvgTrainer earlier(factory, shards, cfg);
  earlier.run(test_set);
  const std::string crash_trace =
      (fs::path(dir) / "trace.crash.json").string();
  std::ofstream(crash_trace) << "{}";

  federated::FedAvgConfig fresh = cfg;
  fresh.rounds = 2;
  federated::FedAvgTrainer(factory, shards, fresh).run(test_set);
  EXPECT_EQ(CheckpointManager(make_config(dir)).list_rounds(),
            (std::vector<std::int64_t>{1, 2}));
  EXPECT_TRUE(fs::exists(crash_trace));

  federated::FedAvgConfig resumed = cfg;
  resumed.rounds = 4;
  resumed.checkpoint.resume = true;
  federated::FedAvgTrainer part2(factory, shards, resumed);
  const auto resumed_history = part2.run(test_set);

  federated::FedAvgConfig uninterrupted = cfg;
  uninterrupted.rounds = 4;
  uninterrupted.checkpoint.dir.clear();
  federated::FedAvgTrainer ref(factory, shards, uninterrupted);
  const auto ref_history = ref.run(test_set);

  EXPECT_EQ(nn::flatten_values(part2.global_model().parameters()),
            nn::flatten_values(ref.global_model().parameters()));
  EXPECT_EQ(part2.ledger().bytes_up, ref.ledger().bytes_up);
  ASSERT_EQ(resumed_history.size(), 2u);  // rounds 3..4
  EXPECT_EQ(resumed_history.back(), ref_history.back());
}

TEST_F(TrainerFixture, FedAvgCompressedResumeIsBitIdentical) {
  federated::FedAvgConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 2;

  federated::FedAvgTrainer ref(factory, shards, cfg);
  ref.run(test_set);
  const auto ref_params = nn::flatten_values(ref.global_model().parameters());

  // Interrupted run with compressed (format v2) checkpoints end to end.
  const std::string packed_dir = dir + "/packed";
  federated::FedAvgConfig first = cfg;
  first.rounds = 3;
  first.checkpoint.dir = packed_dir;
  first.checkpoint.compress = true;
  federated::FedAvgTrainer part1(factory, shards, first);
  part1.run(test_set);

  // A toy 8x8x3 MLP's trained weights are a few hundred near-uniform float
  // bytes, so the codec legitimately takes its stored escape here — the
  // contract worth pinning at this scale is *bounded overhead*, never
  // blow-up (real shrinkage is pinned by
  // ArchiveCompressed.SmallerThanPlainOnSkewedPayload, and perfbench's
  // fedavg_round reports it as ckpt.compress_ratio).
  const std::string plain_dir = dir + "/plain";
  federated::FedAvgConfig plain_cfg = first;
  plain_cfg.checkpoint.dir = plain_dir;
  plain_cfg.checkpoint.compress = false;
  federated::FedAvgTrainer plain_run(factory, shards, plain_cfg);
  plain_run.run(test_set);
  CheckpointManager packed_mgr(make_config(packed_dir));
  CheckpointManager plain_mgr(make_config(plain_dir));
  constexpr std::uint64_t kFraming = 4 + 4 + 8 + 4;  // magic+version+len+CRC
  for (const std::int64_t round : packed_mgr.list_rounds()) {
    const auto plain_size = fs::file_size(plain_mgr.path_for_round(round));
    ASSERT_GT(plain_size, kFraming);
    EXPECT_LE(fs::file_size(packed_mgr.path_for_round(round)),
              kFraming +
                  compress::BlockCodec().max_encoded_size(plain_size - kFraming))
        << "compressed ckpt." << round << " exceeds the codec's size bound";
  }

  // Resume reads v2 archives transparently (flag auto-detected on load).
  federated::FedAvgConfig second = cfg;
  second.checkpoint.dir = packed_dir;
  second.checkpoint.resume = true;
  second.checkpoint.compress = true;
  federated::FedAvgTrainer part2(factory, shards, second);
  part2.run(test_set);
  EXPECT_EQ(nn::flatten_values(part2.global_model().parameters()),
            ref_params);
}

TEST_F(TrainerFixture, FedAvgResumeUnderFaultInjectionIsBitIdentical) {
  federated::FedAvgConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 2;

  sim::FaultPlan plan;
  plan.seed = 5;
  plan.dropout_prob = 0.3;
  plan.min_quorum = 1;

  sim::SimNetwork ref_net(plan);
  federated::FedAvgTrainer ref(factory, shards, cfg);
  ref.attach_network(&ref_net);
  ref.run(test_set);
  const auto ref_params = nn::flatten_values(ref.global_model().parameters());

  federated::FedAvgConfig first = cfg;
  first.rounds = 4;
  first.checkpoint.dir = dir;
  sim::SimNetwork net1(plan);
  federated::FedAvgTrainer part1(factory, shards, first);
  part1.attach_network(&net1);
  part1.run(test_set);

  federated::FedAvgConfig second = cfg;
  second.checkpoint.dir = dir;
  second.checkpoint.resume = true;
  sim::SimNetwork net2(plan);
  federated::FedAvgTrainer part2(factory, shards, second);
  part2.attach_network(&net2);
  part2.run(test_set);

  EXPECT_EQ(nn::flatten_values(part2.global_model().parameters()),
            ref_params);
}

TEST_F(TrainerFixture, FedAvgResumeRejectsSeedMismatch) {
  federated::FedAvgConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 3;
  cfg.checkpoint.dir = dir;
  federated::FedAvgTrainer part1(factory, shards, cfg);
  part1.run(test_set);

  federated::FedAvgConfig other = cfg;
  other.seed = cfg.seed + 1;
  other.checkpoint.resume = true;
  federated::FedAvgTrainer part2(factory, shards, other);
  // The mismatched checkpoint fails validation; with no other checkpoint to
  // fall back to, the run silently starts fresh — it must not load state
  // recorded under a different seed.
  const auto history = part2.run(test_set);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history.front().round, 1);
}

TEST_F(TrainerFixture, SelectiveSgdResumeIsBitIdentical) {
  federated::SelectiveSGDConfig cfg;
  cfg.rounds = 6;
  cfg.upload_fraction = 0.2;
  cfg.download_fraction = 0.4;

  federated::SelectiveSGDTrainer ref(factory, shards, cfg);
  const auto ref_history = ref.run(test_set);

  federated::SelectiveSGDConfig first = cfg;
  first.rounds = 3;
  first.checkpoint.dir = dir;
  federated::SelectiveSGDTrainer part1(factory, shards, first);
  part1.run(test_set);

  federated::SelectiveSGDConfig second = cfg;
  second.checkpoint.dir = dir;
  second.checkpoint.resume = true;
  federated::SelectiveSGDTrainer part2(factory, shards, second);
  const auto resumed = part2.run(test_set);

  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(resumed.back(), ref_history.back());
  for (std::size_t k = 0; k < shards.size(); ++k)
    EXPECT_EQ(part2.participant_accuracy(k, test_set),
              ref.participant_accuracy(k, test_set));
}

TEST_F(TrainerFixture, DpFedAvgResumeIsBitIdentical) {
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 6;
  cfg.client_sample_prob = 0.5;
  cfg.local_epochs = 2;
  cfg.noise_multiplier = 1.0;

  privacy::DpFedAvgTrainer ref(factory, shards, cfg);
  const auto ref_history = ref.run(test_set);
  const auto ref_params = nn::flatten_values(ref.global_model().parameters());

  privacy::DpFedAvgConfig first = cfg;
  first.rounds = 3;
  first.checkpoint.dir = dir;
  privacy::DpFedAvgTrainer part1(factory, shards, first);
  part1.run(test_set);

  privacy::DpFedAvgConfig second = cfg;
  second.checkpoint.dir = dir;
  second.checkpoint.resume = true;
  privacy::DpFedAvgTrainer part2(factory, shards, second);
  const auto resumed = part2.run(test_set);

  EXPECT_EQ(nn::flatten_values(part2.global_model().parameters()),
            ref_params);
  ASSERT_EQ(resumed.size(), 3u);
  // Privacy budget carried across the resume: epsilon matches exactly.
  EXPECT_EQ(resumed.back().epsilon, ref_history.back().epsilon);
  EXPECT_EQ(part2.accountant().rdp_at(2), ref.accountant().rdp_at(2));
}

TEST_F(TrainerFixture, DpSgdResumeIsBitIdentical) {
  Rng ref_rng(3);
  auto ref_model = factory(ref_rng);
  privacy::DpSgdConfig cfg;
  cfg.epochs = 4;
  cfg.lot_size = 32;
  cfg.noise_multiplier = 1.0;
  const auto ref =
      privacy::train_dp_sgd(*ref_model, train_set, test_set, cfg);

  Rng rng1(3);
  auto model1 = factory(rng1);
  privacy::DpSgdConfig first = cfg;
  first.epochs = 2;
  first.checkpoint.dir = dir;
  privacy::train_dp_sgd(*model1, train_set, test_set, first);

  Rng rng2(3);
  auto model2 = factory(rng2);
  privacy::DpSgdConfig second = cfg;
  second.checkpoint.dir = dir;
  second.checkpoint.resume = true;
  const auto resumed =
      privacy::train_dp_sgd(*model2, train_set, test_set, second);

  EXPECT_EQ(nn::flatten_values(model2->parameters()),
            nn::flatten_values(ref_model->parameters()));
  EXPECT_EQ(resumed.steps, ref.steps);
  EXPECT_EQ(resumed.epsilon, ref.epsilon);
}

// --------------------------------------------------- health rollback loop --

TEST_F(TrainerFixture, DivergenceRollbackRestoresLastGoodAndDecaysLr) {
  // An absurd learning rate makes FedAvg blow up within a few rounds; the
  // guard must roll back (not propagate NaN into the final model) and the
  // run must end with finite parameters.
  federated::FedAvgConfig cfg;
  cfg.rounds = 8;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 1;
  cfg.client_lr = 25.0;  // diverges
  cfg.health.warmup_rounds = 0;
  cfg.health.divergence_factor = 2.0;
  cfg.health.max_rollbacks = 2;

  federated::FedAvgTrainer trainer(factory, shards, cfg);
  const auto history = trainer.run(test_set);

  bool saw_rollback = false;
  for (const auto& rs : history) saw_rollback |= rs.rolled_back;
  EXPECT_TRUE(saw_rollback);
  for (const float v : nn::flatten_values(trainer.global_model().parameters()))
    EXPECT_TRUE(std::isfinite(v));
}

TEST_F(TrainerFixture, DivergenceRollbackIsIndependentOfCheckpointing) {
  // The rollback snapshot is the archive persisted for the last healthy
  // round (compressed or not) or, without a directory, an in-memory one;
  // all three must restore the same state.
  federated::FedAvgConfig cfg;
  cfg.rounds = 8;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 1;
  cfg.client_lr = 25.0;  // diverges
  cfg.health.warmup_rounds = 0;
  cfg.health.divergence_factor = 2.0;
  cfg.health.max_rollbacks = 2;

  struct Outcome {
    std::string history;  // serialized, so NaN losses compare bitwise
    std::vector<float> params;
  };
  const auto run = [&](const std::string& ckpt_dir, bool compress) {
    federated::FedAvgConfig c = cfg;
    c.checkpoint.dir = ckpt_dir;
    c.checkpoint.compress = compress;
    federated::FedAvgTrainer trainer(factory, shards, c);
    const auto history = trainer.run(test_set);
    std::ostringstream os;
    {
      BinaryWriter w(os);
      for (const auto& rs : history) federated::serialize_round_stats(w, rs);
    }
    bool saw_rollback = false;
    for (const auto& rs : history) saw_rollback |= rs.rolled_back;
    EXPECT_TRUE(saw_rollback);
    return Outcome{os.str(),
                   nn::flatten_values(trainer.global_model().parameters())};
  };

  const Outcome memory = run("", false);
  const Outcome plain = run(dir + "/plain", false);
  const Outcome packed = run(dir + "/packed", true);
  EXPECT_EQ(plain.history, memory.history);
  EXPECT_EQ(packed.history, memory.history);
  ASSERT_EQ(plain.params.size(), memory.params.size());
  ASSERT_EQ(packed.params.size(), memory.params.size());
  const std::size_t bytes = memory.params.size() * sizeof(float);
  EXPECT_EQ(std::memcmp(plain.params.data(), memory.params.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(packed.params.data(), memory.params.data(), bytes), 0);
}

TEST_F(TrainerFixture, SelectiveSgdDivergenceRollbackKeepsParamsFinite) {
  // At this rate round 2's loss jumps about 170-fold (8.8e3 to 1.5e6) and
  // trips the guard once; replayed at the decayed rate the loss falls and
  // the run completes all rounds. A much higher rate exhausts max_rollbacks
  // and gives up early, which would not test recovery.
  federated::SelectiveSGDConfig cfg;
  cfg.rounds = 8;
  cfg.lr = 6.0;  // diverges in round 2
  cfg.health.warmup_rounds = 0;
  cfg.health.divergence_factor = 2.0;
  cfg.health.max_rollbacks = 2;

  federated::SelectiveSGDTrainer trainer(factory, shards, cfg);
  const auto history = trainer.run(test_set);

  bool saw_rollback = false;
  for (const auto& rs : history) saw_rollback |= rs.rolled_back;
  EXPECT_TRUE(saw_rollback);
  for (const float v : trainer.global_parameters())
    EXPECT_TRUE(std::isfinite(v));
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.back().round, cfg.rounds);
}

TEST_F(TrainerFixture, DpFedAvgDivergenceRollbackKeepsParamsFinite) {
  // At this rate rounds 2 and 3 each trip the guard once (losses 40 to 160
  // times the baseline); the replays recover and the run completes all
  // rounds without a third trip, which would exhaust max_rollbacks.
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 8;
  cfg.client_sample_prob = 0.75;
  cfg.local_epochs = 1;
  cfg.client_lr = 10.0;  // diverges in rounds 2 and 3
  cfg.health.warmup_rounds = 0;
  cfg.health.divergence_factor = 2.0;
  cfg.health.max_rollbacks = 2;

  privacy::DpFedAvgTrainer trainer(factory, shards, cfg);
  const auto history = trainer.run(test_set);

  bool saw_rollback = false;
  for (const auto& rs : history) saw_rollback |= rs.rolled_back;
  EXPECT_TRUE(saw_rollback);
  for (const float v : nn::flatten_values(trainer.global_model().parameters()))
    EXPECT_TRUE(std::isfinite(v));
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.back().round, cfg.rounds);
}

TEST_F(TrainerFixture, DpSgdDivergenceRollbackRecoversWithOrWithoutCheckpoints) {
  // DP-SGD's epochs are guard rounds. At this rate the epoch loss grows
  // for three epochs and more than doubles in the third (about 17, 18, 41),
  // which trips the guard; replayed at half the rate it falls instead. The
  // guard must roll back, replay at the decayed rate, end with finite
  // parameters, and restore the same state from the in-memory snapshot as
  // from the archive on disk.
  privacy::DpSgdConfig cfg;
  cfg.epochs = 8;
  cfg.lot_size = 32;
  cfg.lr = 60.0;  // diverges
  cfg.noise_multiplier = 1.0;
  cfg.health.warmup_rounds = 0;
  cfg.health.divergence_factor = 2.0;
  cfg.health.max_rollbacks = 2;

  const auto run = [&](const privacy::DpSgdConfig& c) {
    Rng rng(3);
    auto model = factory(rng);
    const auto result = privacy::train_dp_sgd(*model, train_set, test_set, c);
    return std::make_pair(result, nn::flatten_values(model->parameters()));
  };

  // The lots and the noise draw the same RNG stream at any rate, so a run
  // that recovers takes exactly the steps of one that never tripped.
  privacy::DpSgdConfig healthy = cfg;
  healthy.lr = 0.1;
  healthy.health.enabled = false;
  const std::int64_t all_steps = run(healthy).first.steps;

  privacy::DpSgdConfig on_disk_cfg = cfg;
  on_disk_cfg.checkpoint.dir = dir;
  const auto [memory, memory_params] = run(cfg);
  const auto [on_disk, on_disk_params] = run(on_disk_cfg);
  for (const auto& result : {memory, on_disk}) {
    EXPECT_GT(result.rollbacks, 0);
    EXPECT_LE(result.rollbacks, cfg.health.max_rollbacks);  // no give-up
    EXPECT_EQ(result.steps, all_steps);
  }
  for (const float v : memory_params) EXPECT_TRUE(std::isfinite(v));
  ASSERT_EQ(on_disk_params.size(), memory_params.size());
  EXPECT_EQ(std::memcmp(on_disk_params.data(), memory_params.data(),
                        memory_params.size() * sizeof(float)),
            0);
}

TEST_F(TrainerFixture, HealthDisabledKeepsLegacyBehaviour) {
  federated::FedAvgConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 3;
  cfg.local_epochs = 1;
  cfg.health.enabled = false;

  federated::FedAvgTrainer a(factory, shards, cfg);
  federated::FedAvgTrainer b(factory, shards, cfg);
  const auto ha = a.run(test_set);
  const auto hb = b.run(test_set);
  ASSERT_EQ(ha.size(), hb.size());
  EXPECT_EQ(ha.back(), hb.back());
  for (const auto& rs : ha) EXPECT_FALSE(rs.rolled_back);
}

// -------------------------------------------------------- RoundStats v2 ----

TEST(RoundStatsSerde, V2RoundTripsRolledBack) {
  federated::RoundStats s;
  s.round = 9;
  s.test_accuracy = 0.5;
  s.rolled_back = true;
  std::ostringstream os;
  {
    BinaryWriter w(os);
    federated::serialize_round_stats(w, s);
  }
  std::istringstream is(os.str());
  BinaryReader r(is);
  EXPECT_EQ(federated::deserialize_round_stats(r), s);

  // A v1 record (no `rolled_back`) is refused, not defaulted.
  std::string v1 = os.str();
  v1[0] = 1;  // little-endian u32 version
  v1.pop_back();
  std::istringstream is1(v1);
  BinaryReader r1(is1);
  EXPECT_THROW(federated::deserialize_round_stats(r1), Error);
}

}  // namespace
}  // namespace mdl::ckpt
