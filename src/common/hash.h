#ifndef IFLS_COMMON_HASH_H_
#define IFLS_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

#include "src/common/endian.h"

namespace ifls {

// Checksum64: the checksum primitive shared by the v3 snapshot codec
// (index/vip_tree_io_v3) and the network wire protocol (net/wire). It
// detects torn writes, bit rot and truncated frames; it is an integrity
// check, not authentication.
//
// Four independent 64-bit lanes walk the input in 32-byte blocks; lane l
// takes the little-endian word at byte 8l of each block. Each lane step
// (xor in the word, multiply by an odd constant, xor-shift) is a bijection
// in both the lane and the word, so the lanes run in parallel on one core
// and any single-bit flip changes the lane it lands in. The lanes are then
// folded, in order, into a state seeded with the length, the remaining
// 0-31 tail bytes are stepped in one at a time, and a final xor-shift and
// multiply mixes the result. Every step after a flipped input is a
// bijection of the state, so every single-bit flip changes the checksum.
// The result is defined on the bytes alone, independent of host and
// alignment.
//
// There is deliberately no incremental form: a caller checksums one
// contiguous range.

inline constexpr std::uint64_t kChecksumMultiplier = 0x9e3779b97f4a7c15ull;
inline constexpr std::uint64_t kChecksumLaneSeeds[4] = {
    0x243f6a8885a308d3ull, 0x13198a2e03707344ull, 0xa4093822299f31d0ull,
    0x082efa98ec4e6c89ull};

/// One lane step: a bijection in `state` for a fixed `word`, and in `word`
/// for a fixed `state`.
inline std::uint64_t ChecksumStep(std::uint64_t state, std::uint64_t word) {
  state ^= word;
  state *= kChecksumMultiplier;
  return state ^ (state >> 29);
}

/// Four-lane 64-bit checksum of `bytes` bytes at `data`.
inline std::uint64_t Checksum64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane0 = kChecksumLaneSeeds[0];
  std::uint64_t lane1 = kChecksumLaneSeeds[1];
  std::uint64_t lane2 = kChecksumLaneSeeds[2];
  std::uint64_t lane3 = kChecksumLaneSeeds[3];
  std::size_t i = 0;
  for (; bytes - i >= 32; i += 32) {
    lane0 = ChecksumStep(lane0, LoadLE<std::uint64_t>(p + i));
    lane1 = ChecksumStep(lane1, LoadLE<std::uint64_t>(p + i + 8));
    lane2 = ChecksumStep(lane2, LoadLE<std::uint64_t>(p + i + 16));
    lane3 = ChecksumStep(lane3, LoadLE<std::uint64_t>(p + i + 24));
  }
  std::uint64_t h = ChecksumStep(static_cast<std::uint64_t>(bytes), lane0);
  h = ChecksumStep(h, lane1);
  h = ChecksumStep(h, lane2);
  h = ChecksumStep(h, lane3);
  for (; i < bytes; ++i) h = ChecksumStep(h, p[i]);
  h ^= h >> 32;
  h *= kChecksumMultiplier;
  return h ^ (h >> 29);
}

}  // namespace ifls

#endif  // IFLS_COMMON_HASH_H_
