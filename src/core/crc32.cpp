#include "core/crc32.hpp"

#include <array>

namespace mdl {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320U;

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? kPoly ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_table();
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xFFU] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFU;
}

std::uint32_t crc32(const void* data, std::size_t n) {
  return crc32_update(0, data, n);
}

}  // namespace mdl
