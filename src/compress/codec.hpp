// BlockCodec — canonical-Huffman + RLE entropy codec over raw byte streams
// (the hzr family of codecs: Huffman with zero-run symbols, built for
// "stochastic data with many values close to zero").
//
// It is the repo's one entropy coder: it frames arbitrary byte payloads
// into independent blocks, escapes incompressible blocks verbatim, and
// carries a CRC-32 of the raw bytes so a decode either reproduces the input
// exactly or throws. It sits below mdl::ckpt and mdl::federated in the
// dependency graph (library mdl_codec, core-only), so checkpoint archives,
// federated wire payloads and the Deep Compression artifact's index streams
// all ride on it.
//
// Stream layout (all integers little-endian):
//
//   [u32 magic "MDLZ"] [u8 version = 1] [u64 raw_size] [u32 crc32(raw)]
//   then blocks until raw_size bytes are accounted for:
//     [u8 type] [u32 raw_len] [u32 enc_len] [enc_len bytes]
//       type 0 (stored):  enc_len == raw_len, the bytes verbatim
//       type 1 (huffman): entropy-coded block payload (see codec.cpp)
//
// The decoder treats its input as adversarial: every length, table entry,
// code, and run is validated before use, and any malformed input — flipped
// bit, truncation, trailing garbage, over-subscribed code table, run
// overflowing the block — throws mdl::Error. It never reads out of bounds
// (tests/test_codec.cpp sweeps every bit flip and truncation under
// ASan+UBSan).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mdl::compress {

struct BlockCodecConfig {
  /// Raw bytes per block. Bigger blocks amortize the per-block table;
  /// smaller ones bound the damage of an incompressible region. Must be in
  /// [1, kMaxBlockRaw].
  std::size_t block_size = 64 * 1024;
};

class BlockCodec {
 public:
  static constexpr std::uint32_t kMagic = 0x5A4C444DU;  // "MDLZ"
  static constexpr std::uint8_t kVersion = 1;
  /// Stream header: magic + version + raw_size + raw CRC.
  static constexpr std::size_t kStreamHeaderBytes = 4 + 1 + 8 + 4;
  /// Per-block header: type + raw_len + enc_len.
  static constexpr std::size_t kBlockHeaderBytes = 1 + 4 + 4;
  /// Hard upper bound on a block's raw length the decoder will accept.
  static constexpr std::size_t kMaxBlockRaw = 1 << 20;

  explicit BlockCodec(BlockCodecConfig config = {});

  /// Encodes `raw` into a framed stream. Never expands beyond
  /// max_encoded_size() thanks to the stored-block escape.
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> raw) const;
  /// String-payload convenience (checkpoint archives travel as strings).
  std::string encode_string(std::string_view raw) const;

  /// Decodes a framed stream; the format is self-describing, so no config
  /// is needed. Throws mdl::Error on any malformed input.
  static std::vector<std::uint8_t> decode(std::span<const std::uint8_t> enc);
  static std::string decode_string(std::string_view enc);

  /// True when `bytes` starts with a plausible BlockCodec stream header
  /// (magic + version). A probe, not a validation.
  static bool looks_encoded(std::string_view bytes);

  /// Worst-case encoded size for `raw_size` input bytes at `block_size`:
  /// stream header + one block header per block + the raw bytes (stored
  /// escape). The property tests pin encode() under this bound.
  static std::uint64_t max_encoded_size(std::uint64_t raw_size,
                                        std::size_t block_size);
  std::uint64_t max_encoded_size(std::uint64_t raw_size) const {
    return max_encoded_size(raw_size, config_.block_size);
  }

  const BlockCodecConfig& config() const { return config_; }

 private:
  BlockCodecConfig config_;
};

}  // namespace mdl::compress
