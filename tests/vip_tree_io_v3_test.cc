// Format-v3 (zero-copy mmap) snapshot tests: a mapped tree must be
// indistinguishable from the built tree — same structure, bit-identical
// payload cells, bit-identical solver answers on every objective. Also pins
// down the byte stability of the v3 image and the resident-vs-mapped memory
// accounting the fleet router's eviction budget relies on. The VipTreeIoTest
// suite holds the general save/load checks of the index file: round trips
// against the graph oracle and rejection of garbage, truncated and
// wrong-venue files.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/core/solve_dispatch.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/presets.h"
#include "src/index/graph_oracle.h"
#include "src/index/vip_tree.h"
#include "src/index/vip_tree_io_v3.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

void ExpectSameStructure(const VipTree& built, const VipTree& loaded) {
  ASSERT_EQ(loaded.num_nodes(), built.num_nodes());
  EXPECT_EQ(loaded.num_leaves(), built.num_leaves());
  EXPECT_EQ(loaded.height(), built.height());
  EXPECT_EQ(loaded.root(), built.root());
  for (std::size_t i = 0; i < built.num_nodes(); ++i) {
    const VipNode& a = built.node(static_cast<NodeId>(i));
    const VipNode& b = loaded.node(static_cast<NodeId>(i));
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(ToVector(a.children), ToVector(b.children));
    EXPECT_EQ(ToVector(a.partitions), ToVector(b.partitions));
    EXPECT_EQ(ToVector(a.doors), ToVector(b.doors));
    EXPECT_EQ(ToVector(a.access_doors), ToVector(b.access_doors));
    EXPECT_EQ(a.subtree_partitions, b.subtree_partitions);
    ASSERT_EQ(a.ancestor_matrices.size(), b.ancestor_matrices.size());
  }
}

void ExpectSamePayload(const VipTree& built, const VipTree& loaded) {
  for (std::size_t i = 0; i < built.num_nodes(); ++i) {
    const VipNode& a = built.node(static_cast<NodeId>(i));
    const VipNode& b = loaded.node(static_cast<NodeId>(i));
    auto expect_same_matrix = [](const DoorMatrixView& ma,
                                 const DoorMatrixView& mb) {
      ASSERT_EQ(ma.num_rows(), mb.num_rows());
      ASSERT_EQ(ma.num_cols(), mb.num_cols());
      for (std::size_t r = 0; r < ma.num_rows(); ++r) {
        for (std::size_t c = 0; c < ma.num_cols(); ++c) {
          const int ri = static_cast<int>(r);
          const int ci = static_cast<int>(c);
          ASSERT_EQ(ma.At(ri, ci), mb.At(ri, ci));
        }
      }
    };
    expect_same_matrix(a.matrix, b.matrix);
    for (std::size_t k = 0; k < a.ancestor_matrices.size(); ++k) {
      expect_same_matrix(a.ancestor_matrices[k], b.ancestor_matrices[k]);
    }
  }
}

std::string SaveV3ToTempFile(const VipTree& tree, const std::string& stem) {
  const std::string path = ::testing::TempDir() + "/" + stem + ".v3.ifls";
  IFLS_CHECK(tree.SaveV3ToFile(path).ok());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  IFLS_CHECK(out.good());
}

TEST(VipTreeIoV3Test, RoundTripPreservesStructureAndPayload) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "roundtrip");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_FALSE(built.is_mapped());
  ExpectSameStructure(built, mapped);
  ExpectSamePayload(built, mapped);
}

/// The acceptance bar of the mmap refactor: on every objective, a query
/// against file-backed arenas returns the bit-identical answer, objective
/// and distance computations as the heap-built tree. It reads matrix cells
/// only where the heap tree reads them too, except that each iMinD(p, n)
/// bound is one read of the image's table instead of a composition, so it
/// reads fewer.
TEST(VipTreeIoV3Test, MappedAnswersBitIdenticalAcrossObjectives) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "answers");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));

  Rng rng(411);
  FacilitySets sets = Unwrap(SelectUniformFacilities(venue, 4, 8, &rng));
  IflsContext ctx;
  ctx.existing = sets.existing;
  ctx.candidates = sets.candidates;
  for (int i = 0; i < 24; ++i) {
    ctx.clients.push_back(RandomClient(venue, &rng, i));
  }

  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    ctx.oracle = &built;
    const IflsResult heap = Unwrap(SolveWithObjective(objective, ctx));
    ctx.oracle = &mapped;
    const IflsResult mapped_result =
        Unwrap(SolveWithObjective(objective, ctx));
    EXPECT_EQ(heap.found, mapped_result.found);
    EXPECT_EQ(heap.answer, mapped_result.answer);
    EXPECT_EQ(heap.objective, mapped_result.objective);  // bit-identical
    EXPECT_EQ(heap.stats.distance_computations,
              mapped_result.stats.distance_computations);
    EXPECT_LT(mapped_result.stats.matrix_lookups, heap.stats.matrix_lookups);
  }
}

/// The image is deterministic: the iMinD(p, n) table is composed on the
/// build threads, and the bytes must not depend on their number, for VIP
/// and IP trees; a mapped tree re-saves the same bytes, its table verbatim.
TEST(VipTreeIoV3Test, V3SaveIsByteStable) {
  std::vector<Venue> venues;
  venues.push_back(Unwrap(GenerateVenue(SmallVenueSpec())));
  venues.push_back(Unwrap(BuildPresetVenue(VenuePreset::kMelbourneCentral)));
  for (std::size_t v = 0; v < venues.size(); ++v) {
    for (const bool vip : {true, false}) {
      const std::string stem =
          "stable_" + std::to_string(v) + (vip ? "_vip" : "_ip");
      std::vector<std::string> images;
      for (const int threads : {1, 4}) {
        VipTreeOptions options;
        options.build_leaf_to_ancestor = vip;
        options.build_threads = threads;
        const VipTree built = Unwrap(VipTree::Build(&venues[v], options));
        images.push_back(ReadFileBytes(
            SaveV3ToTempFile(built, stem + "_" + std::to_string(threads))));
      }
      EXPECT_EQ(images[0], images[1]) << stem;
      const VipTree mapped = Unwrap(VipTree::LoadV3FromFile(
          &venues[v], ::testing::TempDir() + "/" + stem + "_4.v3.ifls"));
      EXPECT_EQ(ReadFileBytes(SaveV3ToTempFile(mapped, stem + "_resaved")),
                images[0])
          << stem;
    }
  }
}

/// Every defect of the iMinD(p, n) table is a typed load error, also when
/// the forger re-seals the checksums: a shape other than P x N, a
/// misaligned or out-of-bounds section, a NaN or negative cell, and (not
/// re-sealed) a flipped cell.
TEST(VipTreeIoV3Test, PartitionToNodeTableDefectsAreTyped) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  const VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "table_defects");
  const std::string image = ReadFileBytes(path);
  V3Header original;
  std::memcpy(&original, image.data(), sizeof(original));
  ASSERT_EQ(original.partition_node_rows, venue.num_partitions());
  ASSERT_EQ(original.partition_node_cols, built.num_nodes());
  ASSERT_EQ(original.partition_node_offset % kV3SectionAlignment, 0u);
  ASSERT_EQ(original.file_bytes,
            original.partition_node_offset +
                original.partition_node_rows * original.partition_node_cols *
                    sizeof(double));
  // A cell off the diagonal of containment: partition 0 against the leaf
  // of the last partition, when that leaf does not contain partition 0.
  const PartitionId last =
      static_cast<PartitionId>(venue.num_partitions() - 1);
  const NodeId far = built.LeafOf(last);
  ASSERT_FALSE(built.NodeContainsPartition(far, 0));
  const std::size_t cell = original.partition_node_offset +
                           static_cast<std::size_t>(far) * sizeof(double);

  struct Case {
    const char* name;
    std::function<void(V3Header*, std::string*)> mutate;
    bool reseal_table;
    const char* expected;
  };
  const auto write_cell = [cell](std::string* bytes, double value) {
    std::memcpy(bytes->data() + cell, &value, sizeof(value));
  };
  const std::vector<Case> cases = {
      {"rows", [](V3Header* h, std::string*) { h->partition_node_rows += 1; },
       true, "partition-to-node table is"},
      {"cols", [](V3Header* h, std::string*) { h->partition_node_cols -= 1; },
       true, "partition-to-node table is"},
      {"misaligned",
       [](V3Header* h, std::string*) { h->partition_node_offset += 8; }, true,
       "partition-to-node section is misaligned"},
      {"out of bounds",
       [](V3Header* h, std::string*) {
         h->partition_node_offset += kV3SectionAlignment;
       },
       true, "partition-to-node section extends past the end"},
      {"NaN cell",
       [&](V3Header*, std::string* b) {
         write_cell(b, std::numeric_limits<double>::quiet_NaN());
       },
       true, "NaN or negative cell"},
      {"negative cell",
       [&](V3Header*, std::string* b) { write_cell(b, -1.0); }, true,
       "NaN or negative cell"},
      {"flipped cell",
       [&](V3Header*, std::string* b) { write_cell(b, 12345.0); }, false,
       "partition-to-node table checksum mismatch"},
  };
  for (const Case& c : cases) {
    std::string bytes = image;
    V3Header h = original;
    c.mutate(&h, &bytes);
    if (c.reseal_table) {
      h.partition_node_checksum = Checksum64(
          bytes.data() + original.partition_node_offset,
          static_cast<std::size_t>(original.file_bytes -
                                   original.partition_node_offset));
    }
    h.header_checksum = 0;
    h.header_checksum = Checksum64(&h, sizeof(h));
    std::memcpy(bytes.data(), &h, sizeof(h));
    const std::string mutated = ::testing::TempDir() + "/table_defect_" +
                                std::to_string(&c - cases.data()) +
                                ".v3.ifls";
    WriteFileBytes(mutated, bytes);
    const Status s = VipTree::LoadV3FromFile(&venue, mutated).status();
    ASSERT_TRUE(s.IsInvalidArgument()) << c.name << ": " << s.ToString();
    EXPECT_NE(s.message().find(c.expected), std::string::npos)
        << c.name << ": " << s.ToString();
  }
}

TEST(VipTreeIoV3Test, IpTreeVariantRoundTrips) {
  // build_leaf_to_ancestor=false (the IP-tree ablation) writes no ancestor
  // matrices. The header must carry the options.
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTreeOptions options;
  options.build_leaf_to_ancestor = false;
  VipTree built = Unwrap(VipTree::Build(&venue, options));
  const std::string path = SaveV3ToTempFile(built, "iptree");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  EXPECT_FALSE(mapped.options().build_leaf_to_ancestor);
  ExpectSameStructure(built, mapped);
  ExpectSamePayload(built, mapped);
}

TEST(VipTreeIoV3Test, MappedFootprintAccounting) {
  // Mapped arenas must vanish from the resident footprint (what eviction
  // budgets count) and appear in the mapped figure instead.
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "footprint");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));

  const VipTreeLayoutStats built_stats = built.LayoutStats();
  const VipTreeLayoutStats mapped_stats = mapped.LayoutStats();
  EXPECT_GT(built_stats.arena_capacity_bytes, 0u);
  EXPECT_EQ(built_stats.mapped_bytes, 0u);
  // For a mapped tree the arena "capacity" is the mapped section sizes (so
  // utilization stays meaningful), and all of it is mapped, none heap.
  EXPECT_EQ(mapped_stats.arena_capacity_bytes, mapped_stats.mapped_bytes);
  EXPECT_GT(mapped_stats.mapped_bytes, 0u);

  EXPECT_EQ(mapped.MappedFootprintBytes(),
            std::filesystem::file_size(path));
  EXPECT_LT(mapped.MemoryFootprintBytes(), built.MemoryFootprintBytes());
}

// ---------------------------------------------------------------------------
// Save/load of the index file
// ---------------------------------------------------------------------------

TEST(VipTreeIoTest, RoundTripPreservesStructure) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "io_structure");
  VipTree loaded = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  ExpectSameStructure(built, loaded);
  ExpectSamePayload(built, loaded);
  EXPECT_EQ(loaded.options().leaf_capacity, built.options().leaf_capacity);
  EXPECT_EQ(loaded.options().internal_fanout,
            built.options().internal_fanout);
  EXPECT_EQ(loaded.options().build_leaf_to_ancestor,
            built.options().build_leaf_to_ancestor);
}

TEST(VipTreeIoTest, RoundTripPreservesDistances) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "io_distances");
  VipTree loaded = Unwrap(VipTree::LoadV3FromFile(&venue, path));

  Rng rng(91);
  for (int i = 0; i < 200; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const Client b = RandomClient(venue, &rng, 1);
    ASSERT_DOUBLE_EQ(
        loaded.PointToPoint(a.position, a.partition, b.position, b.partition),
        built.PointToPoint(a.position, a.partition, b.position, b.partition));
  }
}

TEST(VipTreeIoTest, FileRoundTrip) {
  // A tree loaded from its file answers like the graph oracle, with no
  // reference to the tree that wrote it.
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  const std::string path = ::testing::TempDir() + "/io_file.v3.ifls";
  {
    VipTree built = Unwrap(VipTree::Build(&venue));
    ASSERT_TRUE(built.SaveV3ToFile(path).ok());
  }
  VipTree loaded = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  GraphDistanceOracle oracle(&venue);
  Rng rng(92);
  for (int i = 0; i < 50; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const auto target = static_cast<PartitionId>(
        rng.NextBounded(venue.num_partitions()));
    ASSERT_NEAR(loaded.PointToPartition(a.position, a.partition, target),
                oracle.PointToPartition(a.position, a.partition, target),
                1e-9);
  }
}

TEST(VipTreeIoTest, IpTreeRoundTrips) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTreeOptions options;
  options.build_leaf_to_ancestor = false;
  VipTree built = Unwrap(VipTree::Build(&venue, options));
  const std::string path = SaveV3ToTempFile(built, "io_iptree");
  VipTree loaded = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  EXPECT_FALSE(loaded.options().build_leaf_to_ancestor);
  Rng rng(93);
  const Client a = RandomClient(venue, &rng, 0);
  const Client b = RandomClient(venue, &rng, 1);
  EXPECT_DOUBLE_EQ(
      loaded.PointToPoint(a.position, a.partition, b.position, b.partition),
      built.PointToPoint(a.position, a.partition, b.position, b.partition));
}

/// Two independent builds of one venue save to the same bytes, and so does
/// a tree loaded from that file: the image is fully determined by the
/// venue and the options.
TEST(VipTreeIoTest, V2SaveIsByteStable) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree first_build = Unwrap(VipTree::Build(&venue));
  VipTree second_build = Unwrap(VipTree::Build(&venue));
  const std::string first = SaveV3ToTempFile(first_build, "io_stable_a");
  const std::string second = SaveV3ToTempFile(second_build, "io_stable_b");
  VipTree loaded = Unwrap(VipTree::LoadV3FromFile(&venue, first));
  const std::string third = SaveV3ToTempFile(loaded, "io_stable_c");
  const std::string bytes = ReadFileBytes(first);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, ReadFileBytes(second));
  EXPECT_EQ(bytes, ReadFileBytes(third));
}

TEST(VipTreeIoTest, RejectsWrongVenue) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "io_wrong_venue");

  VenueGeneratorSpec other_spec = SmallVenueSpec();
  other_spec.rooms_per_level = 30;  // different venue
  Venue other = Unwrap(GenerateVenue(other_spec));
  Result<VipTree> loaded = VipTree::LoadV3FromFile(&other, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(VipTreeIoTest, RejectsGarbage) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  const std::string bogus = ::testing::TempDir() + "/io_garbage.v3.ifls";
  WriteFileBytes(bogus, "NOT_A_TREE 1");
  EXPECT_TRUE(
      VipTree::LoadV3FromFile(&venue, bogus).status().IsInvalidArgument());

  // A valid header followed by nothing.
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "io_header_only");
  WriteFileBytes(path, ReadFileBytes(path).substr(0, sizeof(V3Header)));
  EXPECT_TRUE(
      VipTree::LoadV3FromFile(&venue, path).status().IsInvalidArgument());

  EXPECT_TRUE(VipTree::LoadV3FromFile(&venue, "/no/such/file")
                  .status()
                  .IsIOError());
}

/// Truncating a valid file in the middle of the distance payload must fail
/// with a proper Status (never a crash or a silently short index).
TEST(VipTreeIoTest, RejectsTruncatedPayload) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "io_truncated");
  const std::string full = ReadFileBytes(path);
  V3Header h;
  ASSERT_GE(full.size(), sizeof(h));
  std::memcpy(&h, full.data(), sizeof(h));
  ASSERT_GT(h.dist_count, 0u);
  const std::size_t cut = static_cast<std::size_t>(
      h.dist_offset + h.dist_count * sizeof(double) / 2);
  ASSERT_LT(cut, full.size());
  WriteFileBytes(path, full.substr(0, cut));
  Result<VipTree> loaded = VipTree::LoadV3FromFile(&venue, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

}  // namespace
}  // namespace ifls
