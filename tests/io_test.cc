#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "src/datasets/presets.h"
#include "src/datasets/workload.h"
#include "src/index/vip_tree_io_v3.h"
#include "src/io/venue_io.h"
#include "src/io/workload_io.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::BuildTinyVenue;
using testing_util::TinyVenue;
using testing_util::Unwrap;

void ExpectVenuesEqual(const Venue& a, const Venue& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  ASSERT_EQ(a.num_doors(), b.num_doors());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.num_levels(), b.num_levels());
  EXPECT_EQ(a.num_rooms(), b.num_rooms());
  for (std::size_t i = 0; i < a.num_partitions(); ++i) {
    const Partition& pa = a.partition(static_cast<PartitionId>(i));
    const Partition& pb = b.partition(static_cast<PartitionId>(i));
    EXPECT_EQ(pa.rect, pb.rect);
    EXPECT_EQ(pa.kind, pb.kind);
    EXPECT_EQ(pa.category, pb.category);
    EXPECT_EQ(pa.doors, pb.doors);
  }
  for (std::size_t i = 0; i < a.num_doors(); ++i) {
    const Door& da = a.door(static_cast<DoorId>(i));
    const Door& db = b.door(static_cast<DoorId>(i));
    EXPECT_EQ(da.position, db.position);
    EXPECT_EQ(da.partition_a, db.partition_a);
    EXPECT_EQ(da.partition_b, db.partition_b);
    EXPECT_DOUBLE_EQ(da.vertical_cost, db.vertical_cost);
  }
}

TEST(VenueIoTest, TinyVenueRoundTrips) {
  TinyVenue t = BuildTinyVenue();
  t.venue.SetCategory(t.room_a, "dining & entertainment");
  std::stringstream stream;
  ASSERT_TRUE(SaveVenue(t.venue, &stream).ok());
  Venue loaded = Unwrap(LoadVenue(&stream));
  ExpectVenuesEqual(t.venue, loaded);
}

TEST(VenueIoTest, GeneratedVenueWithJitterRoundTrips) {
  VenueGeneratorSpec spec = testing_util::SmallVenueSpec();
  spec.door_jitter_seed = 99;
  Venue venue = Unwrap(GenerateVenue(spec));
  std::stringstream stream;
  ASSERT_TRUE(SaveVenue(venue, &stream).ok());
  Venue loaded = Unwrap(LoadVenue(&stream));
  ExpectVenuesEqual(venue, loaded);
}

TEST(VenueIoTest, CategoriesWithSpacesSurvive) {
  Venue venue = Unwrap(BuildPresetVenue(VenuePreset::kMelbourneCentral));
  ASSERT_TRUE(AssignMelbourneCentralCategories(&venue).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveVenue(venue, &stream).ok());
  Venue loaded = Unwrap(LoadVenue(&stream));
  ExpectVenuesEqual(venue, loaded);
}

TEST(VenueIoTest, FileRoundTrip) {
  TinyVenue t = BuildTinyVenue();
  const std::string path = ::testing::TempDir() + "/ifls_venue.txt";
  ASSERT_TRUE(SaveVenueToFile(t.venue, path).ok());
  Venue loaded = Unwrap(LoadVenueFromFile(path));
  ExpectVenuesEqual(t.venue, loaded);
}

TEST(VenueIoTest, RejectsGarbage) {
  std::stringstream stream("NOT_A_VENUE 1");
  EXPECT_TRUE(LoadVenue(&stream).status().IsInvalidArgument());
  std::stringstream wrong_version("IFLS_VENUE 99\n");
  EXPECT_TRUE(LoadVenue(&wrong_version).status().IsInvalidArgument());
  std::stringstream truncated("IFLS_VENUE 1\nname x\npartitions 2\n");
  EXPECT_FALSE(LoadVenue(&truncated).ok());
  EXPECT_TRUE(LoadVenueFromFile("/no/such/path").status().IsIOError());
}

TEST(WorkloadIoTest, RoundTrips) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  Rng rng(21);
  WorkloadData data;
  data.facilities = Unwrap(SelectUniformFacilities(venue, 5, 7, &rng));
  ClientGeneratorOptions options;
  data.clients = GenerateClients(venue, 40, options, &rng);

  std::stringstream stream;
  ASSERT_TRUE(SaveWorkload(data, &stream).ok());
  WorkloadData loaded = Unwrap(LoadWorkload(&stream));
  EXPECT_EQ(loaded.facilities.existing, data.facilities.existing);
  EXPECT_EQ(loaded.facilities.candidates, data.facilities.candidates);
  ASSERT_EQ(loaded.clients.size(), data.clients.size());
  for (std::size_t i = 0; i < data.clients.size(); ++i) {
    EXPECT_EQ(loaded.clients[i].partition, data.clients[i].partition);
    EXPECT_EQ(loaded.clients[i].position, data.clients[i].position);
    EXPECT_EQ(loaded.clients[i].id, static_cast<ClientId>(i));
  }
}

TEST(WorkloadIoTest, FileRoundTrip) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  Rng rng(23);
  WorkloadData data;
  data.facilities = Unwrap(SelectUniformFacilities(venue, 2, 3, &rng));
  const std::string path = ::testing::TempDir() + "/ifls_workload.txt";
  ASSERT_TRUE(SaveWorkloadToFile(data, path).ok());
  WorkloadData loaded = Unwrap(LoadWorkloadFromFile(path));
  EXPECT_EQ(loaded.facilities.existing, data.facilities.existing);
}

TEST(WorkloadIoTest, RejectsGarbage) {
  std::stringstream stream("BOGUS");
  EXPECT_TRUE(LoadWorkload(&stream).status().IsInvalidArgument());
  std::stringstream truncated("IFLS_WORKLOAD 1\nexisting 5 1 2\n");
  EXPECT_FALSE(LoadWorkload(&truncated).ok());
}

// ---------------------------------------------------------------------------
// v3 mmap snapshot: corrupted-file regressions. Every failure mode must
// surface as a proper Status from the mapping/validation pipeline — never
// a crash, an abort, or a silently wrong index.
// ---------------------------------------------------------------------------

class V3CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    venue_ = testing_util::Unwrap(
        GenerateVenue(testing_util::SmallVenueSpec()));
    VipTree tree = testing_util::Unwrap(VipTree::Build(&venue_));
    // One file per test: ctest runs these tests as parallel processes, and
    // rewriting a file another process has mapped would crash that one.
    path_ = ::testing::TempDir() + "/ifls_corrupt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".v3.ifls";
    ASSERT_TRUE(tree.SaveV3ToFile(path_).ok());
  }

  std::string ReadBytes() {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Status Load() { return VipTree::LoadV3FromFile(&venue_, path_).status(); }

  Venue venue_;
  std::string path_;
};

TEST_F(V3CorruptionTest, IntactFileLoads) {
  EXPECT_TRUE(VipTree::LoadV3FromFile(&venue_, path_).ok());
}

TEST_F(V3CorruptionTest, ShortMapSmallerThanHeader) {
  WriteBytes(ReadBytes().substr(0, 64));
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("short map"), std::string::npos);
}

TEST_F(V3CorruptionTest, ShortMapTruncatedTail) {
  const std::string bytes = ReadBytes();
  WriteBytes(bytes.substr(0, bytes.size() - 1024));
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("short map"), std::string::npos);
}

TEST_F(V3CorruptionTest, BadMagic) {
  std::string bytes = ReadBytes();
  bytes[0] ^= 0x5a;
  WriteBytes(bytes);
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("bad magic"), std::string::npos);
}

/// Header layout of version 4 images, which stored a first-hop door per
/// distance cell in a hops section between the dist section and the
/// partition-to-node table.
struct V4Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t header_bytes;
  std::uint64_t file_bytes;
  std::int32_t leaf_capacity;
  std::int32_t internal_fanout;
  std::uint8_t build_leaf_to_ancestor;
  std::uint8_t store_first_hop;
  std::uint8_t single_door_optimization;
  std::uint8_t enable_door_distance_cache;
  std::uint32_t reserved;
  std::uint64_t num_partitions;
  std::uint64_t num_doors;
  std::uint64_t num_nodes;
  std::uint64_t structure_offset;
  std::uint64_t structure_bytes;
  std::uint64_t ids_offset;
  std::uint64_t ids_count;
  std::uint64_t dist_offset;
  std::uint64_t dist_count;
  std::uint64_t hops_offset;
  std::uint64_t hops_count;
  std::uint64_t partition_node_offset;
  std::uint64_t partition_node_rows;
  std::uint64_t partition_node_cols;
  std::uint64_t structure_checksum;
  std::uint64_t payload_checksum;
  std::uint64_t partition_node_checksum;
  std::uint64_t header_checksum;
};

/// Rewrites a current image the way version 4 laid it out: a hops section
/// after the dist section, the table moved behind it, and every checksum
/// resealed, so only the version check can refuse it.
std::string AsVersion4Image(const std::string& bytes) {
  V3Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  V4Header old{};
  std::memcpy(old.magic, h.magic, sizeof(old.magic));
  old.version = 4;
  old.header_bytes = h.header_bytes;
  old.leaf_capacity = h.leaf_capacity;
  old.internal_fanout = h.internal_fanout;
  old.build_leaf_to_ancestor = h.build_leaf_to_ancestor;
  old.store_first_hop = 1;
  old.single_door_optimization = 1;
  old.enable_door_distance_cache = h.enable_door_distance_cache;
  old.num_partitions = h.num_partitions;
  old.num_doors = h.num_doors;
  old.num_nodes = h.num_nodes;
  old.structure_offset = h.structure_offset;
  old.structure_bytes = h.structure_bytes;
  old.ids_offset = h.ids_offset;
  old.ids_count = h.ids_count;
  old.dist_offset = h.dist_offset;
  old.dist_count = h.dist_count;
  old.hops_offset = h.partition_node_offset;
  old.hops_count = h.dist_count;
  old.partition_node_offset =
      V3AlignUp(old.hops_offset + old.hops_count * sizeof(DoorId));
  old.partition_node_rows = h.partition_node_rows;
  old.partition_node_cols = h.partition_node_cols;
  old.structure_checksum = h.structure_checksum;
  old.partition_node_checksum = h.partition_node_checksum;

  std::string image = bytes.substr(0, h.partition_node_offset);
  const std::string hops(old.hops_count * sizeof(DoorId), '\xff');
  image += hops;
  image.resize(old.partition_node_offset, '\0');
  image += bytes.substr(h.partition_node_offset);
  old.file_bytes = image.size();
  old.payload_checksum =
      Fnv1a64Continue(h.payload_checksum, hops.data(), hops.size());
  old.header_checksum = Fnv1a64(&old, sizeof(old));
  std::fill(image.begin(), image.begin() + sizeof(V3Header), '\0');
  std::memcpy(image.data(), &old, sizeof(old));
  return image;
}

TEST_F(V3CorruptionTest, UnsupportedVersionRejected) {
  const std::string bytes = ReadBytes();
  // A future version with a valid header checksum: the version check itself
  // (not the checksum) must refuse it.
  std::string future = bytes;
  V3Header h;
  std::memcpy(&h, future.data(), sizeof(h));
  h.version = kV3Version + 1;
  h.header_checksum = 0;
  h.header_checksum = Fnv1a64(&h, sizeof(h));
  std::memcpy(future.data(), &h, sizeof(h));
  // The previous version, laid out with its hops section.
  static_assert(kV3Version - 1 == 4, "update the previous-version layout");
  const std::string previous = AsVersion4Image(bytes);
  for (const auto& [version, image] :
       {std::pair<std::uint32_t, const std::string&>{kV3Version + 1, future},
        std::pair<std::uint32_t, const std::string&>{kV3Version - 1,
                                                     previous}}) {
    SCOPED_TRACE(version);
    WriteBytes(image);
    const Status s = Load();
    ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("unsupported v3 snapshot version " +
                              std::to_string(version)),
              std::string::npos);
  }
}

TEST_F(V3CorruptionTest, HeaderChecksumMismatch) {
  std::string bytes = ReadBytes();
  // Flip a bit inside the header (leaf_capacity) without re-checksumming.
  bytes[offsetof(V3Header, leaf_capacity)] ^= 1;
  WriteBytes(bytes);
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("header checksum"), std::string::npos);
}

TEST_F(V3CorruptionTest, PayloadChecksumMismatch) {
  std::string bytes = ReadBytes();
  V3Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  // Flip one distance byte; the continued ids->dist checksum catches
  // it before any query can read the poisoned cell.
  bytes[h.dist_offset + 3] ^= 0xff;
  WriteBytes(bytes);
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("payload checksum"), std::string::npos);
}

TEST_F(V3CorruptionTest, DescriptorTableChecksumMismatch) {
  std::string bytes = ReadBytes();
  V3Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  bytes[h.structure_offset + offsetof(V3NodeRecord, num_doors)] ^= 1;
  WriteBytes(bytes);
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("descriptor table checksum"), std::string::npos);
}

TEST_F(V3CorruptionTest, TruncatedDescriptorTable) {
  std::string bytes = ReadBytes();
  V3Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  // Claim one more node than the table holds, re-checksumming the header so
  // the size check itself (not the checksum) must catch the lie.
  h.num_nodes += 1;
  h.header_checksum = 0;
  h.header_checksum = Fnv1a64(&h, sizeof(h));
  std::memcpy(bytes.data(), &h, sizeof(h));
  WriteBytes(bytes);
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("descriptor table is truncated"),
            std::string::npos);
}

TEST_F(V3CorruptionTest, DoorSetMismatchRejected) {
  // Minimised from v3_snapshot_fuzz_test: one interior (non-access) door of
  // a leaf is replaced by another id that keeps the list sorted, and the
  // checksums are re-sealed. The derived index maps still match the mapped
  // bytes, so only checking the door sets against the venue catches it;
  // loaded, DoorToDoor would read that door's matrix row at index -1.
  std::string bytes = ReadBytes();
  V3Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  const auto ids_at = [&](std::size_t pos) {
    std::int32_t v;
    std::memcpy(&v, bytes.data() + h.ids_offset + pos * sizeof(v), sizeof(v));
    return v;
  };
  // Leaves come first in node order and open the ids section; each lays
  // out partitions, doors, access doors and access-door indices.
  std::size_t cursor = 0;
  std::size_t target = 0;  // ids position of the replaced door
  std::int32_t replacement = -1;
  for (std::size_t node = 0; node < h.num_nodes && replacement < 0; ++node) {
    V3NodeRecord r;
    std::memcpy(&r, bytes.data() + h.structure_offset + node * sizeof(r),
                sizeof(r));
    ASSERT_EQ(r.num_children, 0u) << "no leaf has a replaceable door";
    const std::size_t doors = cursor + r.num_partitions;
    const std::size_t access = doors + r.num_doors;
    for (std::size_t i = 0; i < r.num_doors && replacement < 0; ++i) {
      const std::int32_t d = ids_at(doors + i);
      bool is_access = false;
      for (std::size_t j = 0; j < r.num_access_doors; ++j) {
        is_access = is_access || ids_at(access + j) == d;
      }
      const std::int32_t below = i == 0 ? -1 : ids_at(doors + i - 1);
      if (is_access || d - below <= 1) continue;
      replacement = d - 1;
      target = doors + i;
    }
    cursor = access + 2 * r.num_access_doors;
  }
  std::memcpy(bytes.data() + h.ids_offset + target * sizeof(std::int32_t),
              &replacement, sizeof(replacement));

  std::uint64_t payload = Fnv1a64(bytes.data() + h.ids_offset,
                                  h.ids_count * sizeof(std::int32_t));
  payload = Fnv1a64Continue(payload, bytes.data() + h.dist_offset,
                            h.dist_count * sizeof(double));
  h.payload_checksum = payload;
  h.header_checksum = 0;
  h.header_checksum = Fnv1a64(&h, sizeof(h));
  std::memcpy(bytes.data(), &h, sizeof(h));
  WriteBytes(bytes);
  const Status s = Load();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("door sets do not match the venue"),
            std::string::npos);
}

TEST_F(V3CorruptionTest, WrongVenueRejected) {
  VenueGeneratorSpec other_spec = testing_util::SmallVenueSpec();
  other_spec.rooms_per_level = 30;
  Venue other = testing_util::Unwrap(GenerateVenue(other_spec));
  const Status s = VipTree::LoadV3FromFile(&other, path_).status();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("different venue"), std::string::npos);
}

TEST_F(V3CorruptionTest, MissingFileIsIOError) {
  EXPECT_TRUE(VipTree::LoadV3FromFile(&venue_, "/no/such/file.v3.ifls")
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace ifls
