// The three-stage Deep Compression pipeline (Han, Mao & Dally, ICLR'16)
// cited by §III-B: magnitude pruning -> k-means weight sharing -> Huffman
// coding, with exact storage accounting at every stage. The Huffman stage
// is BlockCodec (canonical Huffman + zero-run coding, codec.hpp) over each
// parameter's quantization-index stream. One simplification is documented
// in DESIGN.md: the full index stream is coded (where the pruned-zero
// symbol dominates) rather than separate relative-index streams; the
// entropy structure exploited is the same.
#pragma once

#include <span>

#include "compress/quantize.hpp"
#include "core/serialize.hpp"
#include "nn/module.hpp"

namespace mdl::compress {

/// A fully compressed model: per parameter, a codebook plus an entropy-coded
/// index stream. Restorable into a live model for accuracy measurement.
struct CompressedModel {
  struct Entry {
    std::vector<std::int64_t> shape;
    std::vector<float> codebook;
    int bits = 0;
    std::vector<std::uint8_t> indices;  ///< encode_indices() stream
  };
  std::vector<Entry> entries;

  /// Bytes of the quantized-but-not-entropy-coded form (packed indices +
  /// codebooks) — the "P + Q" row of the compression table.
  std::uint64_t quantized_bytes() const;
  /// Bytes the artifact spends on index streams and codebooks, length
  /// prefixes included, exactly as write_compressed lays them out.
  std::uint64_t compressed_bytes() const;

  /// Writes parameter values back into `model` (shapes must match). Throws
  /// on a stream that does not decode to one index per element or that
  /// holds an index outside its codebook.
  void restore_into(nn::Module& model) const;
};

/// Huffman stage: BlockCodec over the index bytes. Codebooks of at most 256
/// entries write one byte per index; larger ones (up to 65536) write a
/// low-byte plane followed by a high-byte plane. Throws on an empty or
/// oversized codebook and on an index outside it.
std::vector<std::uint8_t> encode_indices(std::span<const std::uint32_t> indices,
                                         std::size_t codebook_size);
/// Inverse of encode_indices; throws unless the stream decodes to exactly
/// `count` indices of the width `codebook_size` implies.
std::vector<std::uint32_t> decode_indices(std::span<const std::uint8_t> stream,
                                          std::uint64_t count,
                                          std::size_t codebook_size);

/// Quantizes every parameter of (a typically pruned) `model` and entropy-
/// codes the index streams. Biases/1-D parameters are quantized at 8 bits
/// regardless of `config.bits`, as in the original paper.
CompressedModel compress_model(nn::Module& model,
                               const QuantizeConfig& config);

/// Uncompressed float32 size of all parameters.
std::uint64_t model_dense_bytes(nn::Module& model);

/// Size of the pruned model stored in CSR (2-D params) + dense (rest) —
/// the "P" row of the compression table.
std::uint64_t model_pruned_bytes(nn::Module& model);

/// Full artifact serialization (what would ship inside the mobile app),
/// format version 3. The reader accepts only version 3 and bounds every
/// shape and length against the input before allocating.
void write_compressed(BinaryWriter& w, const CompressedModel& cm);
CompressedModel read_compressed(BinaryReader& r);

}  // namespace mdl::compress
