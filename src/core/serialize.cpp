#include "core/serialize.hpp"

#include <bit>
#include <cstring>

namespace mdl {
namespace {

constexpr std::uint32_t kMagic = 0x314C444DU;  // "MDL1" little-endian

static_assert(std::endian::native == std::endian::little,
              "mobiledl serialization assumes a little-endian host");

}  // namespace

void BinaryWriter::write_bytes(const void* data, std::size_t n) {
  os_.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(n));
  MDL_CHECK(os_.good(), "stream write of " << n << " bytes failed");
  bytes_ += n;
}

void BinaryWriter::write_u8(std::uint8_t v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_u32(std::uint32_t v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_u64(std::uint64_t v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_i64(std::int64_t v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_f32(float v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_f64(double v) { write_bytes(&v, sizeof v); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_bytes(s.data(), s.size());
}

void BinaryWriter::write_shape(const std::vector<std::int64_t>& shape) {
  write_u32(static_cast<std::uint32_t>(shape.size()));
  for (const std::int64_t d : shape) write_i64(d);
}

void BinaryWriter::write_tensor(const Tensor& t) {
  write_shape(t.shape());
  write_bytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float));
}

void BinaryWriter::write_f32_vector(const std::vector<float>& v) {
  write_u64(v.size());
  write_bytes(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::write_u32_vector(const std::vector<std::uint32_t>& v) {
  write_u64(v.size());
  write_bytes(v.data(), v.size() * sizeof(std::uint32_t));
}

std::optional<std::uint64_t> BinaryReader::bytes_remaining() {
  const std::istream::pos_type cur = is_.tellg();
  if (cur == std::istream::pos_type(-1)) return std::nullopt;
  is_.seekg(0, std::ios::end);
  const std::istream::pos_type end = is_.tellg();
  is_.seekg(cur);
  if (end == std::istream::pos_type(-1) || end < cur) return std::nullopt;
  return static_cast<std::uint64_t>(end - cur);
}

void BinaryReader::check_remaining(std::uint64_t need, const char* what) {
  const std::optional<std::uint64_t> remaining = bytes_remaining();
  if (!remaining.has_value()) return;  // non-seekable stream
  MDL_CHECK(need <= *remaining,
            "corrupt archive: " << what << " wants " << need
                                << " bytes but only " << *remaining
                                << " remain in the stream");
}

void BinaryReader::read_bytes(void* data, std::size_t n) {
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  MDL_CHECK(is_.gcount() == static_cast<std::streamsize>(n),
            "truncated archive: wanted " << n << " bytes, got "
                                         << is_.gcount());
}

std::uint8_t BinaryReader::read_u8() {
  std::uint8_t v;
  read_bytes(&v, sizeof v);
  return v;
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v;
  read_bytes(&v, sizeof v);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v;
  read_bytes(&v, sizeof v);
  return v;
}

std::int64_t BinaryReader::read_i64() {
  std::int64_t v;
  read_bytes(&v, sizeof v);
  return v;
}

float BinaryReader::read_f32() {
  float v;
  read_bytes(&v, sizeof v);
  return v;
}

double BinaryReader::read_f64() {
  double v;
  read_bytes(&v, sizeof v);
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  MDL_CHECK(n < (1ULL << 32), "implausible string length " << n);
  check_remaining(n, "string body");
  std::string s(n, '\0');
  read_bytes(s.data(), n);
  return s;
}

std::uint64_t BinaryReader::read_shape(std::vector<std::int64_t>& shape) {
  const std::uint32_t nd = read_u32();
  MDL_CHECK(nd <= 8, "implausible tensor rank " << nd);
  shape.resize(nd);
  std::uint64_t elems = 1;
  for (auto& d : shape) {
    d = read_i64();
    MDL_CHECK(d >= 0, "negative tensor dimension " << d);
    MDL_CHECK(d == 0 || elems <= (1ULL << 40) / static_cast<std::uint64_t>(d),
              "implausible tensor element count");
    elems *= static_cast<std::uint64_t>(d);
  }
  return elems;
}

Tensor BinaryReader::read_tensor() {
  std::vector<std::int64_t> shape;
  const std::uint64_t elems = read_shape(shape);
  check_remaining(elems * sizeof(float), "tensor data");
  Tensor t(shape);
  read_bytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float));
  return t;
}

std::vector<float> BinaryReader::read_f32_vector() {
  const std::uint64_t n = read_u64();
  MDL_CHECK(n < (1ULL << 32), "implausible vector length " << n);
  check_remaining(n * sizeof(float), "f32 vector");
  std::vector<float> v(n);
  read_bytes(v.data(), n * sizeof(float));
  return v;
}

std::vector<std::uint32_t> BinaryReader::read_u32_vector() {
  const std::uint64_t n = read_u64();
  MDL_CHECK(n < (1ULL << 32), "implausible vector length " << n);
  check_remaining(n * sizeof(std::uint32_t), "u32 vector");
  std::vector<std::uint32_t> v(n);
  read_bytes(v.data(), n * sizeof(std::uint32_t));
  return v;
}

void write_archive_header(BinaryWriter& w, std::uint32_t version) {
  w.write_u32(kMagic);
  w.write_u32(version);
}

std::uint32_t read_archive_header(BinaryReader& r) {
  const std::uint32_t magic = r.read_u32();
  MDL_CHECK(magic == kMagic, "bad archive magic 0x" << std::hex << magic);
  return r.read_u32();
}

}  // namespace mdl
