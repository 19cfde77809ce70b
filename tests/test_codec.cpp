// BlockCodec hardening + property suite (ISSUE 10's test archetype): the
// decoder is a parser over untrusted bytes, so the headline tests are the
// every-bit-flip / every-truncation sweeps ported from test_ckpt.cpp, run
// under ASan+UBSan in smoke.sh. The contract under attack: every outcome is
// either a byte-exact round-trip or a clean mdl::Error — never a crash or
// an out-of-bounds read.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "compress/deep_compression.hpp"
#include "compress/prune.hpp"
#include "compress/quantize.hpp"
#include "compress/wire.hpp"
#include "core/error.hpp"
#include "core/random.hpp"
#include "data/synthetic.hpp"
#include "federated/fedavg.hpp"
#include "federated/selective_sgd.hpp"
#include "obs/metrics.hpp"
#include "privacy/dp_fedavg.hpp"
#include "prop.hpp"
#include "sim/sim_network.hpp"

namespace mdl::compress {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes random_bytes(Rng& rng, std::size_t n, std::uint32_t alphabet = 256) {
  Bytes b(n);
  for (auto& v : b)
    v = static_cast<std::uint8_t>(rng.uniform_int(alphabet));
  return b;
}

/// Sparse-gradient-shaped stream: mostly zeros with bursts of skewed
/// non-zero bytes — the codec's design target.
Bytes sparse_stream(Rng& rng, std::size_t n) {
  Bytes b(n, 0);
  std::size_t i = 0;
  while (i < n) {
    i += static_cast<std::size_t>(rng.uniform_int(200));  // zero run
    const std::size_t burst = static_cast<std::size_t>(rng.uniform_int(8));
    for (std::size_t j = 0; j < burst && i < n; ++j, ++i)
      b[i] = static_cast<std::uint8_t>(1 + rng.uniform_int(30));
  }
  return b;
}

// ---- Round-trip basics -----------------------------------------------------

TEST(CodecTest, EmptyInputRoundTrips) {
  const BlockCodec codec;
  const Bytes enc = codec.encode({});
  EXPECT_EQ(enc.size(), BlockCodec::kStreamHeaderBytes);
  EXPECT_TRUE(BlockCodec::decode(enc).empty());
}

TEST(CodecTest, SingleByteRoundTrips) {
  const BlockCodec codec;
  for (int v : {0, 1, 127, 255}) {
    const Bytes raw{static_cast<std::uint8_t>(v)};
    EXPECT_EQ(BlockCodec::decode(codec.encode(raw)), raw);
  }
}

TEST(CodecTest, AllZeroCompressesHard) {
  const BlockCodec codec;
  const Bytes raw(100000, 0);
  const Bytes enc = codec.encode(raw);
  EXPECT_EQ(BlockCodec::decode(enc), raw);
  // 100 kB of zeros should melt to well under 1% via the run symbols.
  EXPECT_LT(enc.size(), raw.size() / 100);
}

TEST(CodecTest, IncompressibleTakesStoredEscape) {
  Rng rng(11);
  const BlockCodec codec;
  const Bytes raw = random_bytes(rng, 200000);
  const Bytes enc = codec.encode(raw);
  EXPECT_EQ(BlockCodec::decode(enc), raw);
  // Uniform random bytes cannot compress; the stored escape caps expansion
  // at the framing bound.
  EXPECT_LE(enc.size(), codec.max_encoded_size(raw.size()));
}

TEST(CodecTest, BlockBoundaryLengthsRoundTrip) {
  const BlockCodec small(BlockCodecConfig{.block_size = 512});
  Rng rng(12);
  for (const std::size_t n :
       {std::size_t{511}, std::size_t{512}, std::size_t{513},
        std::size_t{1024}, std::size_t{1025}}) {
    const Bytes raw = sparse_stream(rng, n);
    EXPECT_EQ(BlockCodec::decode(small.encode(raw)), raw) << "n=" << n;
  }
}

TEST(CodecTest, RunsSpanningBlockBoundariesRoundTrip) {
  const BlockCodec small(BlockCodecConfig{.block_size = 256});
  Bytes raw(2000, 0);
  raw[100] = 7;
  raw[1900] = 9;
  EXPECT_EQ(BlockCodec::decode(small.encode(raw)), raw);
}

TEST(CodecTest, LongRunLengthsRoundTrip) {
  // Exercise every run-symbol bucket boundary (2, 3, 6, 7, 22, 23, 278,
  // 279, 16662 and past the cap).
  const BlockCodec codec;
  for (const std::size_t run : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{6}, std::size_t{7}, std::size_t{22},
                                std::size_t{23}, std::size_t{278},
                                std::size_t{279}, std::size_t{16662},
                                std::size_t{16663}, std::size_t{40000}}) {
    Bytes raw;
    raw.push_back(0xAB);
    raw.insert(raw.end(), run, 0);
    raw.push_back(0xCD);
    EXPECT_EQ(BlockCodec::decode(codec.encode(raw)), raw) << "run=" << run;
  }
}

TEST(CodecTest, StringHelpersMatchByteApi) {
  const BlockCodec codec;
  const std::string raw = "federated bytes on the wire\0\0\0\0 with zeros";
  const std::string enc = codec.encode_string(raw);
  EXPECT_TRUE(BlockCodec::looks_encoded(enc));
  EXPECT_FALSE(BlockCodec::looks_encoded(raw));
  EXPECT_EQ(BlockCodec::decode_string(enc), raw);
}

TEST(CodecTest, RejectsBadBlockSize) {
  EXPECT_THROW(BlockCodec(BlockCodecConfig{.block_size = 0}), Error);
  EXPECT_THROW(
      BlockCodec(BlockCodecConfig{.block_size = BlockCodec::kMaxBlockRaw + 1}),
      Error);
}

// ---- Property tests (MDL_PROP_SEED replay) ---------------------------------

MDL_PROP_TEST(CodecProp, RandomStreamsRoundTripWithinBound) {
  const std::size_t block =
      static_cast<std::size_t>(prop::pick(rng, {64, 512, 4096, 65536}));
  const BlockCodec codec(BlockCodecConfig{.block_size = block});
  const std::size_t n =
      static_cast<std::size_t>(prop::gen_int(rng, 0, 20000));
  // Mix stream shapes: all-zero, tiny alphabets, skewed sparse, uniform.
  const int shape = static_cast<int>(rng.uniform_int(4));
  Bytes raw;
  switch (shape) {
    case 0: raw.assign(n, 0); break;
    case 1: raw = random_bytes(rng, n, 2); break;
    case 2: raw = sparse_stream(rng, n); break;
    default: raw = random_bytes(rng, n); break;
  }
  const Bytes enc = codec.encode(raw);
  EXPECT_LE(enc.size(), codec.max_encoded_size(raw.size()));
  EXPECT_EQ(BlockCodec::decode(enc), raw);
}

MDL_PROP_TEST(CodecProp, WireShimRoundTrips) {
  const QuantizedWireCodec wire;
  // Dense payload: quantized values come back within scale/2.
  const std::size_t n = static_cast<std::size_t>(prop::gen_int(rng, 1, 3000));
  std::vector<float> dense(n);
  float maxabs = 0.0f;
  for (auto& v : dense) {
    v = rng.bernoulli(0.7) ? 0.0f : static_cast<float>(rng.normal(0.0, 0.05));
    maxabs = std::max(maxabs, std::abs(v));
  }
  const auto enc = wire.encode_dense(dense);
  EXPECT_EQ(enc.size(), wire.dense_wire_bytes(dense));
  const std::vector<float> back = QuantizedWireCodec::decode_dense(enc);
  ASSERT_EQ(back.size(), dense.size());
  const float tol = maxabs == 0.0f ? 0.0f : maxabs / 127.0f * 0.5001f;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i], dense[i], tol) << "i=" << i;

  // Sparse payload: indices exact, values within scale/2.
  const std::size_t k = static_cast<std::size_t>(prop::gen_int(rng, 1, 500));
  std::vector<std::pair<std::uint32_t, float>> coords(k);
  std::uint32_t idx = 0;
  float smax = 0.0f;
  for (auto& [i, v] : coords) {
    idx += 1 + static_cast<std::uint32_t>(rng.uniform_int(1000));
    i = idx;
    v = static_cast<float>(rng.normal(0.0, 0.1));
    smax = std::max(smax, std::abs(v));
  }
  const auto senc = wire.encode_sparse(coords);
  EXPECT_EQ(senc.size(), wire.sparse_wire_bytes(coords));
  const auto sback = QuantizedWireCodec::decode_sparse(senc);
  ASSERT_EQ(sback.size(), k);
  const float stol = smax == 0.0f ? 0.0f : smax / 127.0f * 0.5001f;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(sback[i].first, coords[i].first);
    EXPECT_NEAR(sback[i].second, coords[i].second, stol);
  }
}

// ---- Decode hardening (the archetype headline) -----------------------------

/// Corpus of encoded streams covering both block types, multiple blocks,
/// and the empty stream.
std::vector<Bytes> hardening_corpus() {
  Rng rng(2024);
  const BlockCodec codec(BlockCodecConfig{.block_size = 1024});
  std::vector<Bytes> corpus;
  corpus.push_back(codec.encode({}));
  corpus.push_back(codec.encode(Bytes(3000, 0)));                 // huffman/RLE
  corpus.push_back(codec.encode(random_bytes(rng, 2500)));        // stored
  corpus.push_back(codec.encode(sparse_stream(rng, 4000)));       // mixed
  Bytes mixed = sparse_stream(rng, 1500);
  const Bytes noise = random_bytes(rng, 1500);
  mixed.insert(mixed.end(), noise.begin(), noise.end());
  corpus.push_back(codec.encode(mixed));                          // both types
  return corpus;
}

TEST(CodecHardening, EveryBitFlipRoundTripsOrThrows) {
  for (const Bytes& enc : hardening_corpus()) {
    const Bytes want = BlockCodec::decode(enc);
    Rng rng(2024);
    for (std::size_t i = 0; i < enc.size(); ++i) {
      Bytes bad = enc;
      bad[i] ^= static_cast<std::uint8_t>(1U << rng.uniform_int(8));
      try {
        // Padding-bit flips legitimately decode — but then they must
        // reproduce the exact original payload (the CRC guarantees it).
        EXPECT_EQ(BlockCodec::decode(bad), want) << "flip at byte " << i;
      } catch (const Error&) {
        // Clean rejection is the expected outcome.
      }
    }
  }
}

TEST(CodecHardening, EveryTruncationThrows) {
  for (const Bytes& enc : hardening_corpus()) {
    for (std::size_t len = 0; len < enc.size(); ++len) {
      const Bytes prefix(enc.begin(),
                         enc.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW(BlockCodec::decode(prefix), Error) << "len " << len;
    }
  }
}

TEST(CodecHardening, RandomBytesNeverCrash) {
  Rng rng(77);
  int decoded = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes junk = random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(400)));
    // Half the trials wear a valid magic+version so the junk reaches the
    // block parser instead of dying at the header check.
    if (trial % 2 == 0 && junk.size() >= BlockCodec::kStreamHeaderBytes) {
      junk[0] = 0x4D; junk[1] = 0x44; junk[2] = 0x4C; junk[3] = 0x5A;
      junk[4] = BlockCodec::kVersion;
    }
    try {
      (void)BlockCodec::decode(junk);
      ++decoded;
    } catch (const Error&) {
    }
  }
  // Random junk essentially never carries a valid CRC-terminated stream.
  EXPECT_EQ(decoded, 0);
}

MDL_PROP_TEST(CodecHardening, RandomTamperingRoundTripsOrThrows) {
  const BlockCodec codec(BlockCodecConfig{.block_size = 512});
  const Bytes raw = sparse_stream(rng, 2000);
  Bytes enc = codec.encode(raw);
  // A handful of random byte edits per case.
  for (int edits = 0; edits < 4; ++edits) {
    enc[static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(enc.size())))] =
        static_cast<std::uint8_t>(rng.uniform_int(256));
  }
  try {
    EXPECT_EQ(BlockCodec::decode(enc), raw);
  } catch (const Error&) {
  }
}

// ---- Deep Compression's index stage rides on BlockCodec --------------------

TEST(CodecDifferential, QuantizationIndicesWithinEntropyBound) {
  // Deep Compression quantization indices from a pruned tensor: index 0 is
  // reserved for pruned zeros, so the stream is the skewed, zero-dominated
  // data the codec targets. An order-0 Huffman code spends under H + 1 bits
  // per index; the guard adds the stream and block headers and the largest
  // code table (2 + 128 + 3 nibble-packed bytes). One-byte indices only:
  // 16-bit byte planes are not held to this bound.
  Rng rng(5);
  Tensor t({128, 96});
  for (std::int64_t i = 0; i < t.size(); ++i)
    t[i] = rng.bernoulli(0.8) ? 0.0f
                              : static_cast<float>(rng.normal(0.0, 0.1));
  for (const int bits : {1, 4, 8}) {
    const QuantizedTensor q = quantize_kmeans(t, {.bits = bits});
    const Bytes enc = encode_indices(q.indices, q.codebook.size());
    EXPECT_EQ(decode_indices(enc, q.indices.size(), q.codebook.size()),
              q.indices);
    const double n = static_cast<double>(q.indices.size());
    const double h = prop::order0_entropy_bits(q.indices);
    const auto bound =
        static_cast<std::size_t>(std::ceil(n * (h + 1.0) / 8.0)) +
        BlockCodec::kStreamHeaderBytes + BlockCodec::kBlockHeaderBytes + 133;
    EXPECT_LE(enc.size(), bound) << "bits " << bits;
  }
}

TEST(CodecDifferential, StorageBytesMatchesSerializer) {
  // Pin CompressedModel::compressed_bytes() to what write_compressed
  // actually writes: the whole artifact is the archive header, the entry
  // count, each entry's shape and bits byte, and compressed_bytes() for
  // the codebooks and index streams.
  Rng rng(6);
  auto model = federated::mlp_factory(12, 20, 5)(rng);
  prune_model(*model, 0.7);
  const CompressedModel cm = compress_model(*model, {.bits = 5});

  std::ostringstream os;
  BinaryWriter w(os);
  write_compressed(w, cm);
  std::uint64_t framing = 8 + 4;
  for (const auto& e : cm.entries) framing += 4 + 8 * e.shape.size() + 1;
  EXPECT_EQ(w.bytes_written(), framing + cm.compressed_bytes());
}

TEST(CodecDifferential, WireShimShrinksSparseAndDenseUpdates) {
  // The pricing the federated sweep relies on: encoded < raw for
  // gradient-shaped payloads.
  Rng rng(7);
  std::vector<float> dense(20000);
  for (auto& v : dense)
    v = rng.bernoulli(0.9) ? 0.0f : static_cast<float>(rng.normal(0.0, 0.02));
  const QuantizedWireCodec wire;
  EXPECT_LT(wire.dense_wire_bytes(dense), dense.size() * 4);

  std::vector<std::pair<std::uint32_t, float>> coords(2000);
  std::uint32_t idx = 0;
  for (auto& [i, v] : coords) {
    idx += 1 + static_cast<std::uint32_t>(rng.uniform_int(50));
    i = idx;
    v = static_cast<float>(rng.normal(0.0, 0.02));
  }
  EXPECT_LT(wire.sparse_wire_bytes(coords), coords.size() * 8);
}

// ---- Trainer integration: the codec is a pricing shim ----------------------

struct CodecFederatedTest : ::testing::Test {
  CodecFederatedTest() {
    Rng rng(1);
    data::SyntheticConfig c;
    c.num_samples = 400;
    c.num_features = 12;
    c.num_classes = 4;
    c.class_sep = 2.5;
    const auto ds = data::make_classification(c, rng);
    const auto split = data::train_test_split(ds, 0.25, rng);
    test_set = split.test;
    shards = data::partition_dirichlet(split.train, 6, 0.5, rng);
    factory = federated::mlp_factory(12, 16, 4);
  }
  data::TabularDataset test_set;
  std::vector<data::TabularDataset> shards;
  federated::ModelFactory factory;
};

TEST_F(CodecFederatedTest, FedAvgCodecShrinksBytesWithoutChangingTraining) {
  federated::FedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local_epochs = 1;

  federated::FedAvgTrainer raw(factory, shards, cfg);
  const auto hraw = raw.run(test_set);

  const QuantizedWireCodec wire;
  federated::FedAvgTrainer coded(factory, shards, cfg);
  coded.attach_wire_codec(&wire);
  const auto hcoded = coded.run(test_set);

  // Pricing shim: the training trajectory is bit-identical...
  ASSERT_EQ(hraw.size(), hcoded.size());
  for (std::size_t i = 0; i < hraw.size(); ++i) {
    EXPECT_EQ(hraw[i].test_accuracy, hcoded[i].test_accuracy);
    EXPECT_EQ(hraw[i].train_loss, hcoded[i].train_loss);
  }
  // ...but the wire bill shrinks, and the raw columns still agree.
  EXPECT_EQ(coded.ledger().bytes_up_raw, raw.ledger().bytes_up);
  EXPECT_EQ(coded.ledger().bytes_down_raw, raw.ledger().bytes_down);
  EXPECT_LT(coded.ledger().bytes_up, coded.ledger().bytes_up_raw);
  EXPECT_LT(coded.ledger().bytes_down, coded.ledger().bytes_down_raw);
}

TEST_F(CodecFederatedTest, SelectiveSgdCodecShrinksSparseBytes) {
  federated::SelectiveSGDConfig cfg;
  cfg.rounds = 2;
  cfg.local_epochs = 1;
  cfg.upload_fraction = 0.1;
  cfg.download_fraction = 1.0;

  federated::SelectiveSGDTrainer raw(factory, shards, cfg);
  const auto hraw = raw.run(test_set);

  const QuantizedWireCodec wire;
  federated::SelectiveSGDTrainer coded(factory, shards, cfg);
  coded.attach_wire_codec(&wire);
  const auto hcoded = coded.run(test_set);

  ASSERT_EQ(hraw.size(), hcoded.size());
  for (std::size_t i = 0; i < hraw.size(); ++i)
    EXPECT_EQ(hraw[i].test_accuracy, hcoded[i].test_accuracy);
  EXPECT_EQ(coded.ledger().bytes_up_raw, raw.ledger().bytes_up);
  EXPECT_EQ(coded.ledger().bytes_down_raw, raw.ledger().bytes_down);
  EXPECT_LT(coded.ledger().bytes_up, coded.ledger().bytes_up_raw);
  EXPECT_LT(coded.ledger().bytes_down, coded.ledger().bytes_down_raw);
}

TEST_F(CodecFederatedTest, DpFedAvgCodecKeepsTrainingAndLedgerMatchesCounters) {
  privacy::DpFedAvgConfig cfg;
  cfg.rounds = 3;
  cfg.client_sample_prob = 0.7;
  cfg.local_epochs = 1;

  privacy::DpFedAvgTrainer raw(factory, shards, cfg);
  const auto hraw = raw.run(test_set);

  const QuantizedWireCodec wire;
  privacy::DpFedAvgTrainer coded(factory, shards, cfg);
  coded.attach_wire_codec(&wire);
  const auto hcoded = coded.run(test_set);

  // The codec prices the clipped deltas; the noisy releases are untouched.
  ASSERT_EQ(hraw.size(), hcoded.size());
  for (std::size_t i = 0; i < hraw.size(); ++i) {
    EXPECT_EQ(hraw[i].test_accuracy, hcoded[i].test_accuracy);
    EXPECT_EQ(hraw[i].train_loss, hcoded[i].train_loss);
    EXPECT_EQ(hraw[i].epsilon, hcoded[i].epsilon);
    EXPECT_EQ(hraw[i].clients_selected, hcoded[i].clients_selected);
  }
  EXPECT_EQ(nn::flatten_values(raw.global_model().parameters()),
            nn::flatten_values(coded.global_model().parameters()));

  // Through a lossy network the ledger also bills failed clients'
  // downloads and wasted uplink, exactly as the sim.bytes_* counters do.
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.dropout_prob = 0.2;
  plan.truncation_prob = 0.3;
  plan.max_retries = 1;
  plan.min_quorum = 1;
  sim::SimNetwork net(plan);
  privacy::DpFedAvgTrainer faulty(factory, shards, cfg);
  faulty.attach_network(&net);
  faulty.attach_wire_codec(&wire);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::uint64_t up0 = reg.counter("sim.bytes_up_compressed").value();
  const std::uint64_t down0 = reg.counter("sim.bytes_down_compressed").value();
  faulty.run(test_set);
  const federated::CommLedger& ledger = faulty.ledger();
  EXPECT_GT(net.counters().bytes_wasted, 0U);
  EXPECT_LT(ledger.bytes_down, ledger.bytes_down_raw);
  if (obs::kEnabled) {
    EXPECT_EQ(ledger.total(),
              (reg.counter("sim.bytes_up_compressed").value() - up0) +
                  (reg.counter("sim.bytes_down_compressed").value() - down0));
  }
}

}  // namespace
}  // namespace mdl::compress
