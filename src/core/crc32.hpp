// CRC-32 (IEEE 802.3) — the one integrity checksum in the repo.
//
// Every mdl::ckpt archive carries a CRC-32 footer over its header and
// payload, and every compress::BlockCodec stream carries one over its raw
// bytes, so a truncated or bit-flipped checkpoint, wire payload or model
// artifact is *detected* instead of deserialized into garbage weights.
// CRC-32 is not cryptographic — it guards against storage/transfer
// corruption, which is the failure mode of interest on mobile flash and
// interrupted writes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mdl {

/// Streaming CRC-32: crc32(data, n) == crc32_update(crc32_update(0, a), b)
/// for any split of `data` into `a` + `b`.
std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t n);

/// One-shot CRC-32 of a buffer.
std::uint32_t crc32(const void* data, std::size_t n);

}  // namespace mdl
