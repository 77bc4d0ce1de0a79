#ifndef IFLS_INDEX_VIP_TREE_IO_V3_H_
#define IFLS_INDEX_VIP_TREE_IO_V3_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/hash.h"

namespace ifls {

// On-disk layout of the IFLS VIP-tree snapshot format v3 (binary,
// little-endian, page-aligned, checksummed), the index's only persisted
// form. A v3 file is *directly mappable*: the two arena sections and the
// iMinD(p, n) table are the bytes the in-memory index reads at query time,
// so loading is mmap + a descriptor fixup pass over the (small) node-record
// table — never a parse or a copy of the bulk payload.
//
//   [ V3Header, zero-padded to kV3SectionAlignment ]   -> checksummed
//   [ num_nodes x V3NodeRecord  (the descriptor table) ]  -> checksummed
//   [ pad ] [ ids section:  ids_count  x int32  ]  -+- one checksum, from
//   [ pad ] [ dist section: dist_count x double ]  -+  ids start to dist end
//   [ pad ] [ partition-to-node table:              -> checksummed
//             num_partitions x num_nodes double, row-major ]
//
// The table holds the paper's iMinD(p, n) for every partition p and tree
// node n: 0 where n contains p, else the min over doors(p) x AD(n) of the
// door-to-door distance, bit-identical to what a heap-built tree composes.
// A mapped tree answers PartitionToNode with one cell read of it. The
// loader checks its shape against the header's partition and node counts
// and rejects NaN or negative cells. Version 4 added the table. Version 5
// dropped the hops section (a first-hop door per distance cell, which no
// query reads; path reconstruction runs a door-graph search instead) and
// the header fields that described it. Version 6 replaced the byte-serial
// FNV-1a-64 checksums with the four-lane Checksum64 (src/common/hash.h) and
// made the payload checksum one contiguous range that includes the padding
// between the ids and dist sections. Older images are rejected by the
// version check and must be rewritten.
//
// Every section offset is kV3SectionAlignment-aligned, so any mmap base
// (page-aligned by definition) yields naturally aligned int32/double views.
// The per-node id lists (children, partitions, doors, access doors) and the
// derived index maps live inside the ids section in the deterministic arena
// layout order; the descriptor table stores only the counts needed to slice
// them back out. The loader re-derives the index maps and *verifies* them
// against the mapped ids section, so a bit-rotted file cannot produce a
// structurally plausible but wrong index even when its checksums were also
// tampered with.

inline constexpr char kV3Magic[8] = {'I', 'F', 'L', 'S', 'S', 'N', 'P', '3'};
inline constexpr std::uint32_t kV3Version = 6;
/// Section alignment; one x86/arm64 page, so mapped sections start on page
/// boundaries and the header occupies exactly one page.
inline constexpr std::size_t kV3SectionAlignment = 4096;

/// Fixed-size file header (first kV3SectionAlignment bytes, zero-padded).
struct V3Header {
  char magic[8];
  std::uint32_t version = kV3Version;
  std::uint32_t header_bytes = kV3SectionAlignment;
  /// Total file size; a mapping smaller than this is a short map.
  std::uint64_t file_bytes = 0;

  // VipTreeOptions (build-relevant subset; build_threads is not part of the
  // format).
  std::int32_t leaf_capacity = 0;
  std::int32_t internal_fanout = 0;
  std::uint8_t build_leaf_to_ancestor = 0;
  std::uint8_t enable_door_distance_cache = 0;
  std::uint8_t reserved[6] = {};

  // Venue fingerprint: a loaded tree must match the venue it is given.
  std::uint64_t num_partitions = 0;
  std::uint64_t num_doors = 0;

  std::uint64_t num_nodes = 0;
  /// Descriptor table (V3NodeRecord array) location.
  std::uint64_t structure_offset = 0;
  std::uint64_t structure_bytes = 0;
  /// Arena sections: byte offset + element count each.
  std::uint64_t ids_offset = 0;
  std::uint64_t ids_count = 0;
  std::uint64_t dist_offset = 0;
  std::uint64_t dist_count = 0;
  /// iMinD(p, n) table: byte offset and shape (rows = num_partitions,
  /// cols = num_nodes).
  std::uint64_t partition_node_offset = 0;
  std::uint64_t partition_node_rows = 0;
  std::uint64_t partition_node_cols = 0;

  /// Checksum64 over the descriptor table bytes.
  std::uint64_t structure_checksum = 0;
  /// Checksum64 over the file bytes [ids_offset, dist_offset + dist_count *
  /// 8): the ids section, the zero padding after it and the dist section.
  std::uint64_t payload_checksum = 0;
  /// Checksum64 over the iMinD(p, n) table bytes.
  std::uint64_t partition_node_checksum = 0;
  /// Checksum64 over this struct's bytes with this field zeroed.
  std::uint64_t header_checksum = 0;
};
static_assert(sizeof(V3Header) <= kV3SectionAlignment,
              "v3 header must fit its page");
static_assert(std::has_unique_object_representations_v<V3Header>,
              "v3 header must have no padding: its bytes are checksummed");

/// One node of the descriptor table. List *contents* live in the ids
/// section; records carry only what the fixup pass needs to slice and
/// re-validate them.
struct V3NodeRecord {
  std::int32_t id = -1;
  std::int32_t parent = -1;
  std::uint32_t num_children = 0;
  std::uint32_t num_partitions = 0;
  std::uint32_t num_doors = 0;
  std::uint32_t num_access_doors = 0;
  /// Ancestor matrix count (leaves in VIP mode: depth; else 0), validated
  /// against the re-derived structure.
  std::uint32_t num_ancestors = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(V3NodeRecord) == 32, "v3 node record layout drifted");

// The v3 checksum primitive is the shared Checksum64 from src/common/hash.h
// (re-exported through the include above); the wire codec (net/wire) uses
// the same one, so a frame checksum and a snapshot checksum are computed by
// one implementation.

/// Rounds `offset` up to the next kV3SectionAlignment boundary.
inline constexpr std::uint64_t V3AlignUp(std::uint64_t offset) {
  return (offset + kV3SectionAlignment - 1) & ~(kV3SectionAlignment - 1);
}

}  // namespace ifls

#endif  // IFLS_INDEX_VIP_TREE_IO_V3_H_
