// Seeded mutation fuzz over the v3 snapshot loader, VipTree::LoadV3FromFile:
// the only parser of persisted index bytes, which the fleet router feeds
// with files from disk. Starting from valid VIP-tree and IP-tree images of
// one venue, each iteration applies a few mutations — bit flips, boundary
// values (0, 1, -1, INT32_MAX, UINT64_MAX) written into header, node-record
// and ids-section fields, and truncation or extension of the file — and
// loads the result. Boundary values also land in cells of the iMinD(p, n)
// table, together with NaN and -1.0. The invariant:
//
//   * the load returns OK or a typed InvalidArgument/IOError, never a crash,
//     an abort or a hang (run it under -DIFLS_SANITIZE=address, which also
//     enables UBSan, to make memory errors fatal);
//   * an accepted tree answers LeafOf for every partition, DoorToDoor for
//     sampled door pairs and PartitionToNode for sampled (partition, node)
//     pairs. Distance values in a fuzzed payload are attacker-chosen, so no
//     solver runs on them and no value is checked beyond the table's sign.
//
// Half of the iterations re-seal the structure, payload, table and header
// checksums after mutating; otherwise the checksums reject almost every
// mutation and the structural checks behind them never run.
//
// Carries its own main() so `--iterations=<n|high>` can scale the run (the
// `high` row is the nightly ctest configuration).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/index/vip_tree.h"
#include "src/index/vip_tree_io_v3.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

// Mutated images loaded per run; overridden by --iterations.
int g_iterations = 16000;

constexpr std::uint64_t kBoundaryValues[] = {
    0, 1, std::numeric_limits<std::uint64_t>::max(),  // max is also -1
    static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())};

/// A fixed-width integer field at a byte offset of the image.
struct Field {
  std::size_t offset;
  std::size_t bytes;
};

constexpr Field kHeaderFields[] = {
    {offsetof(V3Header, version), 4},
    {offsetof(V3Header, header_bytes), 4},
    {offsetof(V3Header, file_bytes), 8},
    {offsetof(V3Header, leaf_capacity), 4},
    {offsetof(V3Header, internal_fanout), 4},
    {offsetof(V3Header, build_leaf_to_ancestor), 1},
    {offsetof(V3Header, enable_door_distance_cache), 1},
    {offsetof(V3Header, num_partitions), 8},
    {offsetof(V3Header, num_doors), 8},
    {offsetof(V3Header, num_nodes), 8},
    {offsetof(V3Header, structure_offset), 8},
    {offsetof(V3Header, structure_bytes), 8},
    {offsetof(V3Header, ids_offset), 8},
    {offsetof(V3Header, ids_count), 8},
    {offsetof(V3Header, dist_offset), 8},
    {offsetof(V3Header, dist_count), 8},
    {offsetof(V3Header, partition_node_offset), 8},
    {offsetof(V3Header, partition_node_rows), 8},
    {offsetof(V3Header, partition_node_cols), 8},
};

constexpr Field kRecordFields[] = {
    {offsetof(V3NodeRecord, id), 4},
    {offsetof(V3NodeRecord, parent), 4},
    {offsetof(V3NodeRecord, num_children), 4},
    {offsetof(V3NodeRecord, num_partitions), 4},
    {offsetof(V3NodeRecord, num_doors), 4},
    {offsetof(V3NodeRecord, num_access_doors), 4},
    {offsetof(V3NodeRecord, num_ancestors), 4},
};

V3Header ReadHeader(const std::string& bytes) {
  V3Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

/// True when `[offset, offset + count * elem)` lies inside the image.
bool InImage(const std::string& bytes, std::uint64_t offset,
             std::uint64_t count, std::uint64_t elem) {
  return offset <= bytes.size() && count <= (bytes.size() - offset) / elem;
}

/// Writes the low `field.bytes` bytes of `value` (little-endian host) when
/// the field lies inside the image.
void WriteField(std::string* bytes, Field field, std::uint64_t value) {
  if (field.offset + field.bytes > bytes->size()) return;
  std::memcpy(bytes->data() + field.offset, &value, field.bytes);
}

void FlipBits(std::string* bytes, const V3Header& original, Rng* rng) {
  if (bytes->empty()) return;
  // Half the flips land in the header page and descriptor table, where one
  // bit changes the most structure.
  const std::uint64_t hot = std::min<std::uint64_t>(
      bytes->size(), original.structure_offset + original.structure_bytes);
  const int flips = 1 + static_cast<int>(rng->NextBounded(8));
  for (int i = 0; i < flips; ++i) {
    const std::uint64_t limit = rng->NextBounded(2) == 0 ? hot : bytes->size();
    const std::size_t pos = rng->NextBounded(limit);
    (*bytes)[pos] = static_cast<char>((*bytes)[pos] ^ (1 << rng->NextBounded(8)));
  }
}

void WriteBoundaryValue(std::string* bytes, const V3Header& original,
                        Rng* rng) {
  const std::uint64_t value =
      kBoundaryValues[rng->NextBounded(std::size(kBoundaryValues))];
  switch (rng->NextBounded(4)) {
    case 0:
      WriteField(bytes,
                 kHeaderFields[rng->NextBounded(std::size(kHeaderFields))],
                 value);
      break;
    case 3: {
      // One cell of the iMinD(p, n) table: a boundary bit pattern, NaN or
      // a negative distance.
      const Field f{static_cast<std::size_t>(
                        original.partition_node_offset +
                        rng->NextBounded(original.partition_node_rows *
                                         original.partition_node_cols) *
                            sizeof(double)),
                    sizeof(double)};
      const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                                -1.0};
      std::uint64_t bits = value;
      if (rng->NextBounded(2) == 0) {
        std::memcpy(&bits, &special[rng->NextBounded(2)], sizeof(bits));
      }
      WriteField(bytes, f, bits);
      break;
    }
    case 1: {
      Field f = kRecordFields[rng->NextBounded(std::size(kRecordFields))];
      f.offset += original.structure_offset +
                  rng->NextBounded(original.num_nodes) * sizeof(V3NodeRecord);
      WriteField(bytes, f, value);
      break;
    }
    default: {
      // One id-list or index-map entry of the ids section.
      const Field f{static_cast<std::size_t>(
                        original.ids_offset +
                        rng->NextBounded(original.ids_count) *
                            sizeof(std::int32_t)),
                    sizeof(std::int32_t)};
      WriteField(bytes, f, value);
      break;
    }
  }
}

void Resize(std::string* bytes, Rng* rng) {
  if (rng->NextBounded(2) == 0 && !bytes->empty()) {
    bytes->resize(rng->NextBounded(bytes->size()));
  } else {
    const std::size_t extra = 1 + rng->NextBounded(2 * kV3SectionAlignment);
    const char fill = rng->NextBounded(2) == 0
                          ? '\0'
                          : static_cast<char>(rng->NextBounded(256));
    bytes->append(extra, fill);
  }
}

/// Recomputes the checksums over the (mutated) header's own section
/// geometry, as a forger would, so the structural checks must do the
/// rejecting. Optionally also makes file_bytes match the image size.
void Reseal(std::string* bytes, bool fix_file_bytes) {
  if (bytes->size() < sizeof(V3Header)) return;
  V3Header h = ReadHeader(*bytes);
  if (fix_file_bytes) h.file_bytes = bytes->size();
  if (InImage(*bytes, h.structure_offset, h.structure_bytes, 1)) {
    h.structure_checksum =
        Checksum64(bytes->data() + h.structure_offset,
                   static_cast<std::size_t>(h.structure_bytes));
  }
  if (InImage(*bytes, h.ids_offset, h.ids_count, sizeof(std::int32_t)) &&
      InImage(*bytes, h.dist_offset, h.dist_count, sizeof(double)) &&
      h.dist_offset >= h.ids_offset) {
    h.payload_checksum = Checksum64(
        bytes->data() + h.ids_offset,
        static_cast<std::size_t>(h.dist_offset + h.dist_count * sizeof(double) -
                                 h.ids_offset));
  }
  if (h.partition_node_cols != 0 &&
      h.partition_node_rows <= bytes->size() / h.partition_node_cols &&
      InImage(*bytes, h.partition_node_offset,
              h.partition_node_rows * h.partition_node_cols, sizeof(double))) {
    h.partition_node_checksum =
        Checksum64(bytes->data() + h.partition_node_offset,
                   static_cast<std::size_t>(h.partition_node_rows *
                                            h.partition_node_cols) *
                       sizeof(double));
  }
  h.header_checksum = 0;
  h.header_checksum = Checksum64(&h, sizeof(h));
  std::memcpy(bytes->data(), &h, sizeof(h));
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  IFLS_CHECK(out.good()) << "cannot write " << path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(V3SnapshotFuzzTest, MutatedImagesLoadOrFailTyped) {
  const Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  // One file per process: the default and nightly rows may run at once.
  const std::string path = ::testing::TempDir() + "/v3_snapshot_fuzz_" +
                           std::to_string(::getpid()) + ".v3.ifls";
  std::vector<std::string> images;
  for (const bool vip : {true, false}) {
    VipTreeOptions options;
    options.build_leaf_to_ancestor = vip;
    const VipTree tree = Unwrap(VipTree::Build(&venue, options));
    ASSERT_TRUE(tree.SaveV3ToFile(path).ok());
    images.push_back(ReadFile(path));
  }

  int accepted = 0;
  int rejected_sealed = 0;  // rejected past the checksums
  for (int it = 0; it < g_iterations; ++it) {
    Rng rng(0x5eed'0000 + static_cast<std::uint64_t>(it));
    const std::string& base = images[rng.NextBounded(images.size())];
    const V3Header original = ReadHeader(base);
    std::string bytes = base;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(3)) {
        case 0:
          FlipBits(&bytes, original, &rng);
          break;
        case 1:
          WriteBoundaryValue(&bytes, original, &rng);
          break;
        default:
          Resize(&bytes, &rng);
          break;
      }
    }
    const bool sealed = it % 2 == 0;
    if (sealed) Reseal(&bytes, rng.NextBounded(2) == 0);
    WriteFile(path, bytes);

    SCOPED_TRACE("iteration " + std::to_string(it));
    Result<VipTree> loaded = VipTree::LoadV3FromFile(&venue, path);
    if (!loaded.ok()) {
      const Status& s = loaded.status();
      ASSERT_TRUE(s.IsInvalidArgument() || s.IsIOError()) << s.ToString();
      if (sealed && s.message().find("checksum") == std::string::npos) {
        ++rejected_sealed;
      }
      continue;
    }
    ++accepted;
    const VipTree& tree = loaded.value();
    for (std::size_t p = 0; p < venue.num_partitions(); ++p) {
      const NodeId leaf = tree.LeafOf(static_cast<PartitionId>(p));
      ASSERT_TRUE(tree.IsLeaf(leaf));
    }
    for (int pair = 0; pair < 32; ++pair) {
      const auto a = static_cast<DoorId>(rng.NextBounded(venue.num_doors()));
      const auto b = static_cast<DoorId>(rng.NextBounded(venue.num_doors()));
      static_cast<void>(tree.DoorToDoor(a, b));
      const auto p =
          static_cast<PartitionId>(rng.NextBounded(venue.num_partitions()));
      const auto n = static_cast<NodeId>(rng.NextBounded(tree.num_nodes()));
      ASSERT_GE(tree.PartitionToNode(p, n), 0.0);
    }
  }
  std::remove(path.c_str());
  std::printf("v3 snapshot fuzz: %d iterations, %d accepted, %d re-sealed "
              "images rejected past the checksums\n",
              g_iterations, accepted, rejected_sealed);
  // The re-sealed half must reach the structural checks, or the fuzz only
  // exercises the checksums.
  if (g_iterations >= 100) {
    EXPECT_GT(rejected_sealed, 0);
  }
}

}  // namespace
}  // namespace ifls

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--iterations=", 13) != 0) continue;
    const std::string value = arg + 13;
    if (value == "high") {
      ifls::g_iterations = 160000;  // nightly configuration
    } else {
      ifls::g_iterations = std::max(1, std::atoi(value.c_str()));
    }
  }
  return RUN_ALL_TESTS();
}
