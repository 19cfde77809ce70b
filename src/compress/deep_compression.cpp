#include "compress/deep_compression.hpp"

#include "compress/codec.hpp"
#include "compress/sparse_matrix.hpp"

namespace mdl::compress {
namespace {

constexpr std::uint32_t kArtifactVersion = 3;

/// Bytes per index in the coded planes: one for codebooks of at most 256
/// entries, two (low plane, then high plane) up to 65536.
std::size_t index_width(std::size_t codebook_size) {
  MDL_CHECK(codebook_size >= 1 && codebook_size <= 65536,
            "codebook of " << codebook_size << " entries outside [1, 65536]");
  return codebook_size <= 256 ? 1 : 2;
}

}  // namespace

std::vector<std::uint8_t> encode_indices(std::span<const std::uint32_t> indices,
                                         std::size_t codebook_size) {
  const std::size_t width = index_width(codebook_size);
  const std::size_t n = indices.size();
  std::vector<std::uint8_t> planes(n * width);
  for (std::size_t i = 0; i < n; ++i) {
    MDL_CHECK(indices[i] < codebook_size,
              "index " << indices[i] << " outside a codebook of "
                       << codebook_size);
    planes[i] = static_cast<std::uint8_t>(indices[i] & 0xFF);
    if (width == 2) planes[n + i] = static_cast<std::uint8_t>(indices[i] >> 8);
  }
  return BlockCodec().encode(planes);
}

std::vector<std::uint32_t> decode_indices(std::span<const std::uint8_t> stream,
                                          std::uint64_t count,
                                          std::size_t codebook_size) {
  const std::size_t width = index_width(codebook_size);
  const std::vector<std::uint8_t> planes = BlockCodec::decode(stream);
  MDL_CHECK(planes.size() % width == 0 && planes.size() / width == count,
            "index stream decodes to " << planes.size() << " bytes, want "
                                       << count << " x " << width);
  std::vector<std::uint32_t> indices(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = planes[i];
    if (width == 2)
      indices[i] |= static_cast<std::uint32_t>(planes[indices.size() + i]) << 8;
  }
  return indices;
}

std::uint64_t CompressedModel::quantized_bytes() const {
  std::uint64_t total = 0;
  for (const Entry& e : entries) {
    std::uint64_t count = 1;
    for (std::int64_t d : e.shape) count *= static_cast<std::uint64_t>(d);
    total += (count * static_cast<std::uint64_t>(e.bits) + 7) / 8 +
             e.codebook.size() * 4;
  }
  return total;
}

std::uint64_t CompressedModel::compressed_bytes() const {
  std::uint64_t total = 0;
  // As write_compressed lays each entry out: u64 length + f32 codebook,
  // u64 length + index stream.
  for (const Entry& e : entries)
    total += 8 + e.codebook.size() * 4 + 8 + e.indices.size();
  return total;
}

void CompressedModel::restore_into(nn::Module& model) const {
  const auto params = model.parameters();
  MDL_CHECK(params.size() == entries.size(),
            "model has " << params.size() << " parameters, artifact has "
                         << entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    QuantizedTensor q;
    q.shape = e.shape;
    q.codebook = e.codebook;
    q.bits = e.bits;
    q.indices = decode_indices(e.indices, static_cast<std::uint64_t>(q.size()),
                               e.codebook.size());
    Tensor restored = q.dequantize();
    MDL_CHECK(restored.same_shape(params[i]->value),
              "parameter " << i << " shape mismatch: artifact "
                           << restored.shape_str() << " vs model "
                           << params[i]->value.shape_str());
    params[i]->value = std::move(restored);
  }
}

CompressedModel compress_model(nn::Module& model,
                               const QuantizeConfig& config) {
  CompressedModel cm;
  for (nn::Parameter* p : model.parameters()) {
    QuantizeConfig cfg = config;
    if (p->value.ndim() < 2) cfg.bits = 8;  // biases: 8-bit, as in the paper
    const QuantizedTensor q = quantize_kmeans(p->value, cfg);
    CompressedModel::Entry e;
    e.shape = q.shape;
    e.codebook = q.codebook;
    e.bits = q.bits;
    e.indices = encode_indices(q.indices, q.codebook.size());
    cm.entries.push_back(std::move(e));
  }
  return cm;
}

std::uint64_t model_dense_bytes(nn::Module& model) {
  std::uint64_t total = 0;
  for (nn::Parameter* p : model.parameters())
    total += static_cast<std::uint64_t>(p->value.size()) * 4;
  return total;
}

std::uint64_t model_pruned_bytes(nn::Module& model) {
  std::uint64_t total = 0;
  for (nn::Parameter* p : model.parameters()) {
    if (p->value.ndim() == 2) {
      total += CsrMatrix::from_dense(p->value).storage_bytes();
    } else {
      total += static_cast<std::uint64_t>(p->value.size()) * 4;
    }
  }
  return total;
}

void write_compressed(BinaryWriter& w, const CompressedModel& cm) {
  write_archive_header(w, kArtifactVersion);
  w.write_u32(static_cast<std::uint32_t>(cm.entries.size()));
  for (const CompressedModel::Entry& e : cm.entries) {
    w.write_shape(e.shape);
    w.write_u8(static_cast<std::uint8_t>(e.bits));
    w.write_f32_vector(e.codebook);
    w.write_u64(e.indices.size());
    w.write_bytes(e.indices.data(), e.indices.size());
  }
}

CompressedModel read_compressed(BinaryReader& r) {
  const std::uint32_t version = read_archive_header(r);
  MDL_CHECK(version == kArtifactVersion,
            "unsupported artifact version " << version);
  CompressedModel cm;
  // Entries are appended as they parse, so a corrupt count runs into the
  // end of the input instead of sizing an allocation.
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    CompressedModel::Entry e;
    r.read_shape(e.shape);
    e.bits = r.read_u8();
    e.codebook = r.read_f32_vector();
    const std::string stream = r.read_string();  // length bounded by input
    e.indices.assign(stream.begin(), stream.end());
    cm.entries.push_back(std::move(e));
  }
  return cm;
}

}  // namespace mdl::compress
