#include "src/index/vip_tree_io_v3.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/endian.h"
#include "src/common/hash.h"
#include "src/common/mapped_file.h"
#include "src/index/vip_tree.h"

// Format v3: the mappable binary snapshot (layout documented in
// vip_tree_io_v3.h). Saving streams the arenas out verbatim, then the
// iMinD(p, n) table (composed for a heap-built tree, copied from a mapped
// one); loading is an mmap plus a descriptor fixup pass — InitFromStructure
// replayed over mapped arenas, which validates the computed layout against
// the section sizes and the derived id tables against the mapped bytes, so
// every corruption mode surfaces as a proper Status.

namespace ifls {

namespace {

/// Validates that a section `[offset, offset + count * elem_bytes)` lies
/// inside the file and starts on a section boundary.
Status CheckSection(const char* what, std::uint64_t offset,
                    std::uint64_t count, std::uint64_t elem_bytes,
                    std::uint64_t file_bytes) {
  if (offset % kV3SectionAlignment != 0) {
    return Status::InvalidArgument(std::string("v3 snapshot: ") + what +
                                   " section is misaligned");
  }
  if (offset > file_bytes || count > (file_bytes - offset) / elem_bytes) {
    return Status::InvalidArgument(std::string("v3 snapshot: ") + what +
                                   " section extends past the end of the "
                                   "file (truncated)");
  }
  return Status::OK();
}

}  // namespace

Status VipTree::SaveV3ToFile(const std::string& path) const {
  V3Header h{};
  std::memcpy(h.magic, kV3Magic, sizeof(h.magic));
  h.version = kV3Version;
  h.header_bytes = kV3SectionAlignment;
  h.leaf_capacity = options_.leaf_capacity;
  h.internal_fanout = options_.internal_fanout;
  h.build_leaf_to_ancestor = options_.build_leaf_to_ancestor ? 1 : 0;
  h.enable_door_distance_cache = options_.enable_door_distance_cache ? 1 : 0;
  h.num_partitions = venue_->num_partitions();
  h.num_doors = venue_->num_doors();
  h.num_nodes = nodes_.size();

  std::vector<V3NodeRecord> records;
  records.reserve(nodes_.size());
  for (const VipNode& n : nodes_) {
    V3NodeRecord r;
    r.id = n.id;
    r.parent = n.parent;
    r.num_children = static_cast<std::uint32_t>(n.children.size());
    r.num_partitions = static_cast<std::uint32_t>(n.partitions.size());
    r.num_doors = static_cast<std::uint32_t>(n.doors.size());
    r.num_access_doors = static_cast<std::uint32_t>(n.access_doors.size());
    r.num_ancestors = static_cast<std::uint32_t>(n.ancestor_matrices.size());
    records.push_back(r);
  }

  h.structure_offset = kV3SectionAlignment;
  h.structure_bytes = records.size() * sizeof(V3NodeRecord);
  h.ids_offset = V3AlignUp(h.structure_offset + h.structure_bytes);
  h.ids_count = ids_.size();
  h.dist_offset = V3AlignUp(h.ids_offset + h.ids_count * sizeof(std::int32_t));
  h.dist_count = dist_.size();
  h.partition_node_offset =
      V3AlignUp(h.dist_offset + h.dist_count * sizeof(double));
  h.partition_node_rows = venue_->num_partitions();
  h.partition_node_cols = nodes_.size();
  const std::uint64_t table_bytes =
      h.partition_node_rows * h.partition_node_cols * sizeof(double);
  h.file_bytes = h.partition_node_offset + table_bytes;
  std::vector<double> composed;
  const double* table = partition_to_node_;
  if (table == nullptr) {
    composed = ComposePartitionToNodeTable();
    table = composed.data();
  }

  // The image is assembled in memory, zero padding included, so each
  // checksum covers one contiguous range of the bytes the loader maps.
  const std::uint64_t dist_end = h.dist_offset + h.dist_count * sizeof(double);
  std::string image(static_cast<std::size_t>(h.file_bytes), '\0');
  const auto place = [&image](std::uint64_t offset, const void* src,
                              std::uint64_t bytes) {
    if (bytes > 0) std::memcpy(image.data() + offset, src, bytes);
  };
  place(h.structure_offset, records.data(), h.structure_bytes);
  place(h.ids_offset, ids_.data(), h.ids_count * sizeof(std::int32_t));
  place(h.dist_offset, dist_.data(), h.dist_count * sizeof(double));
  place(h.partition_node_offset, table, table_bytes);
  h.structure_checksum =
      Checksum64(image.data() + h.structure_offset,
                 static_cast<std::size_t>(h.structure_bytes));
  h.payload_checksum =
      Checksum64(image.data() + h.ids_offset,
                 static_cast<std::size_t>(dist_end - h.ids_offset));
  h.partition_node_checksum =
      Checksum64(image.data() + h.partition_node_offset,
                 static_cast<std::size_t>(table_bytes));
  h.header_checksum = 0;
  h.header_checksum = Checksum64(&h, sizeof(h));
  std::memcpy(image.data(), &h, sizeof(h));

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  if (!os.good()) {
    return Status::IOError("failed writing v3 snapshot '" + path + "'");
  }
  return Status::OK();
}

Result<VipTree> VipTree::LoadV3FromFile(const Venue* venue,
                                        const std::string& path) {
  if (venue == nullptr) {
    return Status::InvalidArgument("venue must not be null");
  }
  Result<MappedFile> map_result = MappedFile::Open(path);
  if (!map_result.ok()) return map_result.status();
  auto mapping =
      std::make_shared<const MappedFile>(std::move(map_result).value());

  // ---- Header validation, cheapest check first. ------------------------
  if (mapping->size() < sizeof(V3Header)) {
    return Status::InvalidArgument(
        "v3 snapshot '" + path + "' is too short for its header (short "
        "map: " + std::to_string(mapping->size()) + " bytes)");
  }
  V3Header h = LoadLE<V3Header>(mapping->data());
  if (std::memcmp(h.magic, kV3Magic, sizeof(h.magic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an IFLS v3 snapshot (bad magic)");
  }
  if (h.version != kV3Version) {
    return Status::InvalidArgument("unsupported v3 snapshot version " +
                                   std::to_string(h.version));
  }
  if (h.header_bytes != kV3SectionAlignment) {
    return Status::InvalidArgument("v3 snapshot header size mismatch");
  }
  {
    V3Header check = h;
    check.header_checksum = 0;
    if (Checksum64(&check, sizeof(check)) != h.header_checksum) {
      return Status::InvalidArgument("v3 snapshot header checksum mismatch");
    }
  }
  if (h.file_bytes != mapping->size()) {
    return Status::InvalidArgument(
        "v3 snapshot short map: header declares " +
        std::to_string(h.file_bytes) + " bytes but the file holds " +
        std::to_string(mapping->size()));
  }

  // ---- Descriptor table. ----------------------------------------------
  // The node count is bounded by the file size before it is multiplied, so
  // the size product cannot wrap.
  if (h.structure_offset != kV3SectionAlignment ||
      h.structure_offset > h.file_bytes ||
      h.num_nodes >
          (h.file_bytes - h.structure_offset) / sizeof(V3NodeRecord) ||
      h.structure_bytes != h.num_nodes * sizeof(V3NodeRecord)) {
    return Status::InvalidArgument(
        "v3 snapshot descriptor table is truncated or mis-sized");
  }
  const auto* records = mapping->ViewAt<V3NodeRecord>(h.structure_offset);
  if (Checksum64(records, static_cast<std::size_t>(h.structure_bytes)) !=
      h.structure_checksum) {
    return Status::InvalidArgument(
        "v3 snapshot descriptor table checksum mismatch");
  }

  // ---- Payload sections. ----------------------------------------------
  IFLS_RETURN_NOT_OK(CheckSection("ids", h.ids_offset, h.ids_count,
                                  sizeof(std::int32_t), h.file_bytes));
  IFLS_RETURN_NOT_OK(CheckSection("dist", h.dist_offset, h.dist_count,
                                  sizeof(double), h.file_bytes));
  // One checksum covers the ids section, the padding after it and the dist
  // section, so the dist section must start past the ids section's end.
  // CheckSection bounded both ends by the file size, so neither sum wraps.
  const std::uint64_t ids_end = h.ids_offset + h.ids_count * sizeof(std::int32_t);
  const std::uint64_t dist_end = h.dist_offset + h.dist_count * sizeof(double);
  if (h.dist_offset < ids_end) {
    return Status::InvalidArgument(
        "v3 snapshot dist section does not follow the ids section");
  }
  if (Checksum64(mapping->data() + h.ids_offset,
                 static_cast<std::size_t>(dist_end - h.ids_offset)) !=
      h.payload_checksum) {
    return Status::InvalidArgument("v3 snapshot payload checksum mismatch");
  }
  const auto* ids = mapping->ViewAt<std::int32_t>(h.ids_offset);
  const auto* dist = mapping->ViewAt<double>(h.dist_offset);

  if (h.num_partitions != venue->num_partitions() ||
      h.num_doors != venue->num_doors()) {
    return Status::InvalidArgument(
        "index was built for a different venue (partition/door counts "
        "differ)");
  }

  // ---- iMinD(p, n) table: one row per partition, one column per node.
  if (h.partition_node_rows != h.num_partitions ||
      h.partition_node_cols != h.num_nodes) {
    return Status::InvalidArgument(
        "v3 snapshot partition-to-node table is " +
        std::to_string(h.partition_node_rows) + " x " +
        std::to_string(h.partition_node_cols) + ", expected " +
        std::to_string(h.num_partitions) + " x " +
        std::to_string(h.num_nodes));
  }
  // A table with more cells than the file has bytes is truncated; bounding
  // the rows first keeps the cell count from wrapping.
  const std::uint64_t table_cells =
      h.partition_node_cols != 0 &&
              h.partition_node_rows > h.file_bytes / h.partition_node_cols
          ? h.file_bytes + 1
          : h.partition_node_rows * h.partition_node_cols;
  IFLS_RETURN_NOT_OK(CheckSection("partition-to-node",
                                  h.partition_node_offset, table_cells,
                                  sizeof(double), h.file_bytes));
  const auto* table = mapping->ViewAt<double>(h.partition_node_offset);
  const auto table_count = static_cast<std::size_t>(table_cells);
  if (Checksum64(table, table_count * sizeof(double)) !=
      h.partition_node_checksum) {
    return Status::InvalidArgument(
        "v3 snapshot partition-to-node table checksum mismatch");
  }
  // PartitionToNode serves these cells as lower bounds without a further
  // check: a NaN would compare false everywhere, and a negative one would
  // break the bound.
  if (!std::all_of(table, table + table_count,
                   [](double x) { return x >= 0.0; })) {
    return Status::InvalidArgument(
        "v3 snapshot partition-to-node table holds a NaN or negative cell");
  }

  // ---- Rebuild the transient structure by slicing the mapped ids arena
  // with the record counts; the derived index maps are skipped here and
  // re-derived + verified by the fixup pass below.
  VipTreeStructure structure;
  structure.nodes.resize(static_cast<std::size_t>(h.num_nodes));
  std::uint64_t cursor = 0;
  const auto take = [&](std::uint64_t count) -> const std::int32_t* {
    if (h.ids_count - cursor < count) return nullptr;
    const std::int32_t* p = ids + cursor;
    cursor += count;
    return p;
  };
  for (std::size_t i = 0; i < h.num_nodes; ++i) {
    const V3NodeRecord& r = records[i];
    if (r.id != static_cast<std::int32_t>(i)) {
      return Status::InvalidArgument(
          "v3 snapshot node record ids must match their positions");
    }
    VipTreeStructure::Node& n = structure.nodes[i];
    n.id = r.id;
    n.parent = r.parent;
    const std::int32_t* children = take(r.num_children);
    const std::int32_t* partitions = take(r.num_partitions);
    const std::int32_t* doors = take(r.num_doors);
    const std::int32_t* access = take(r.num_access_doors);
    // Derived tables, laid out right after: access_door_idx, the
    // child-access prefix table, and the flattened child-access indices.
    std::uint64_t child_flat = 0;
    bool child_ok = true;
    for (std::uint32_t c = 0; c < r.num_children && children != nullptr; ++c) {
      const std::int32_t ch = children[c];
      if (ch < 0 || static_cast<std::uint64_t>(ch) >= h.num_nodes) {
        child_ok = false;
        break;
      }
      child_flat += records[static_cast<std::size_t>(ch)].num_access_doors;
    }
    if (!child_ok) {
      return Status::InvalidArgument(
          "v3 snapshot child id out of range in the descriptor table");
    }
    const bool skipped =
        take(r.num_access_doors) != nullptr &&
        take(r.num_children > 0 ? r.num_children + 1 : 0) != nullptr &&
        take(child_flat) != nullptr;
    if (children == nullptr || partitions == nullptr || doors == nullptr ||
        access == nullptr || !skipped) {
      return Status::InvalidArgument(
          "v3 snapshot ids section is too small for its descriptor table "
          "(truncated)");
    }
    n.children.assign(children, children + r.num_children);
    n.partitions.assign(partitions, partitions + r.num_partitions);
    n.doors.assign(doors, doors + r.num_doors);
    n.access_doors.assign(access, access + r.num_access_doors);
  }

  // ---- Descriptor fixup pass: adopt the mapped sections as read-only
  // arenas and replay the layout. Reserve validates the exact totals,
  // AppendRange verifies the derived id tables bit-for-bit against the
  // mapped bytes, and the matrix slots land exactly on the mapped payload.
  VipTree tree;
  tree.venue_ = venue;
  tree.options_.leaf_capacity = h.leaf_capacity;
  tree.options_.internal_fanout = h.internal_fanout;
  tree.options_.build_leaf_to_ancestor = h.build_leaf_to_ancestor != 0;
  tree.options_.enable_door_distance_cache =
      h.enable_door_distance_cache != 0;
  tree.ids_.AdoptMapped(ids, static_cast<std::size_t>(h.ids_count));
  tree.dist_.AdoptMapped(dist, static_cast<std::size_t>(h.dist_count));
  IFLS_RETURN_NOT_OK(tree.InitFromStructure(structure));
  // The fixup pass checks the door sets only against each other; DoorToDoor
  // trusts them to hold every door of a leaf's partitions, so check them
  // against the venue as well.
  const auto contains = [&tree](NodeId n, PartitionId p) {
    return tree.NodeContainsPartition(n, p);
  };
  for (std::size_t i = 0; i < h.num_nodes; ++i) {
    if (records[i].num_ancestors != tree.nodes_[i].ancestor_matrices.size()) {
      return Status::InvalidArgument(
          "ancestor matrix count does not match the tree structure");
    }
    const VipTreeStructure::Node& n = structure.nodes[i];
    const NodeDoors derived =
        DeriveNodeDoors(*venue, structure, n.id, contains);
    if (derived.doors != n.doors || derived.access_doors != n.access_doors) {
      return Status::InvalidArgument(
          "v3 snapshot door sets do not match the venue");
    }
  }
  tree.partition_to_node_ = table;
  tree.mapping_ = std::move(mapping);
  return tree;
}

}  // namespace ifls
