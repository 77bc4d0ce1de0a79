// Checksum64 (src/common/hash.h), the checksum of v3 snapshot images and
// wire frames: pinned known-answer vectors, a reference written from the
// definition in little-endian terms, and the guarantee the formats rely on,
// that every single-bit flip changes the checksum. CI runs this test in the
// -O3 job too, so a vectorised build of the lane loop cannot change bits
// unnoticed.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/hash.h"

namespace ifls {
namespace {

/// Deterministic test bytes: byte i is (131 i + 7) mod 256.
std::vector<unsigned char> Pattern(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  return bytes;
}

/// Checksum64 as its definition states it, one lane at a time, words
/// assembled from bytes by shifts rather than loaded from memory.
std::uint64_t ReferenceChecksum(const unsigned char* p, std::size_t n) {
  std::uint64_t lanes[4];
  for (int l = 0; l < 4; ++l) lanes[l] = kChecksumLaneSeeds[l];
  const std::size_t blocks = n / 32;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t word = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        word |= static_cast<std::uint64_t>(p[32 * b + 8 * l + k]) << (8 * k);
      }
      lanes[l] = ChecksumStep(lanes[l], word);
    }
  }
  std::uint64_t h = static_cast<std::uint64_t>(n);
  for (std::uint64_t lane : lanes) h = ChecksumStep(h, lane);
  for (std::size_t i = 32 * blocks; i < n; ++i) h = ChecksumStep(h, p[i]);
  h ^= h >> 32;
  h *= kChecksumMultiplier;
  return h ^ (h >> 29);
}

TEST(Checksum64Test, KnownAnswers) {
  struct Vector {
    std::size_t length;
    std::uint64_t checksum;
  };
  // Lengths around the 32-byte block: empty, tail only, one block, one
  // block plus a tail, two blocks, and many blocks with a tail.
  constexpr Vector kVectors[] = {
      {0, 0x0114afd4630aece2ull},    {1, 0xe7cd3d0e6ce9fb44ull},
      {31, 0x715cbd09678c3a9bull},   {32, 0x39e0e72644061901ull},
      {33, 0x7e7b0dc38361f7c6ull},   {64, 0x1f92bfa4b3374cbbull},
      {1000, 0xca05a65ee802b73aull},
  };
  for (const Vector& v : kVectors) {
    SCOPED_TRACE(v.length);
    const std::vector<unsigned char> bytes = Pattern(v.length);
    EXPECT_EQ(Checksum64(bytes.data(), bytes.size()), v.checksum);
  }
}

TEST(Checksum64Test, MatchesReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = Pattern(300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 300; ++n) {
      ASSERT_EQ(Checksum64(bytes.data() + offset, n),
                ReferenceChecksum(bytes.data() + offset, n))
          << "offset " << offset << ", length " << n;
    }
  }
}

TEST(Checksum64Test, EverySingleBitFlipChangesTheChecksum) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 97; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  for (const std::size_t n : lengths) {
    std::vector<unsigned char> bytes = Pattern(n);
    const std::uint64_t clean = Checksum64(bytes.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<unsigned char>(1u << bit);
        ASSERT_NE(Checksum64(bytes.data(), n), clean)
            << "length " << n << ", byte " << i << ", bit " << bit;
        bytes[i] ^= static_cast<unsigned char>(1u << bit);
      }
    }
  }
}

TEST(Checksum64Test, LengthIsPartOfTheChecksum) {
  // Trailing zero bytes are not free: a truncated or zero-extended range
  // checksums differently.
  const std::vector<unsigned char> zeros(128, 0);
  for (std::size_t n = 0; n < zeros.size(); ++n) {
    ASSERT_NE(Checksum64(zeros.data(), n), Checksum64(zeros.data(), n + 1))
        << "length " << n;
  }
}

}  // namespace
}  // namespace ifls
