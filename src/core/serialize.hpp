// Portable binary serialization for model checkpoints and compressed
// artifacts.
//
// The format is little-endian, tagged with a magic + version header per
// archive. Writers/readers operate on std::ostream/std::istream so the same
// code serves files, string buffers (tests), and in-memory transport in the
// federated simulator. All mobiledl checkpoint/compression formats build on
// these primitives so storage accounting in the compression benches is
// exact: `BinaryWriter::bytes_written()` is the deployable artifact size.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/tensor.hpp"

namespace mdl {

/// Streaming little-endian writer with byte accounting.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_bytes(const void* data, std::size_t n);
  void write_string(const std::string& s);
  /// [u32 rank][i64 dims] — the shape prefix of write_tensor.
  void write_shape(const std::vector<std::int64_t>& shape);
  void write_tensor(const Tensor& t);
  void write_f32_vector(const std::vector<float>& v);
  void write_u32_vector(const std::vector<std::uint32_t>& v);

  /// Total bytes emitted so far.
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::ostream& os_;
  std::uint64_t bytes_ = 0;
};

/// Streaming little-endian reader; throws mdl::Error on truncated input.
/// Length-prefixed reads (string/tensor/vector) validate the stored length
/// against the bytes actually remaining in the stream *before* allocating,
/// so a corrupt length field throws a clean mdl::Error instead of
/// attempting a multi-GB allocation.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is) : is_(is) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  void read_bytes(void* data, std::size_t n);
  std::string read_string();
  /// Reads a write_shape() prefix into `shape` and returns its element
  /// count, throwing on a rank above 8, a negative dimension, or more than
  /// 2^40 elements — before the caller allocates anything.
  std::uint64_t read_shape(std::vector<std::int64_t>& shape);
  Tensor read_tensor();
  std::vector<float> read_f32_vector();
  std::vector<std::uint32_t> read_u32_vector();

  /// Bytes between the cursor and end-of-stream; nullopt when the stream is
  /// not seekable (then length validation degrades to plausibility caps).
  std::optional<std::uint64_t> bytes_remaining();

 private:
  /// Throws unless `need` bytes (a `what` field) remain in the stream.
  void check_remaining(std::uint64_t need, const char* what);

  std::istream& is_;
};

/// Writes the archive header (magic "MDL1" + format version).
void write_archive_header(BinaryWriter& w, std::uint32_t version);
/// Reads and validates the archive header, returning the format version.
std::uint32_t read_archive_header(BinaryReader& r);

}  // namespace mdl
