#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <type_traits>

#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/presets.h"
#include "src/datasets/venue_generator.h"
#include "src/datasets/workload.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::Unwrap;

// --------------------------------------------------------------- Generator

TEST(VenueGeneratorTest, RespectsExactRoomCounts) {
  VenueGeneratorSpec spec = testing_util::SmallVenueSpec();
  Venue venue = Unwrap(GenerateVenue(spec));
  EXPECT_EQ(venue.num_rooms(), 48u);  // 24 per level x 2
  EXPECT_EQ(venue.num_levels(), 2);
  EXPECT_TRUE(venue.Validate().ok());
}

TEST(VenueGeneratorTest, TotalRoomsDistribution) {
  VenueGeneratorSpec spec;
  spec.levels = 3;
  spec.total_rooms = 32;  // 11 + 11 + 10
  spec.rooms_per_corridor_side = 6;
  EXPECT_EQ(spec.RoomsOnLevel(0), 11);
  EXPECT_EQ(spec.RoomsOnLevel(1), 11);
  EXPECT_EQ(spec.RoomsOnLevel(2), 10);
  Venue venue = Unwrap(GenerateVenue(spec));
  EXPECT_EQ(venue.num_rooms(), 32u);
  EXPECT_EQ(venue.num_levels(), 3);
}

TEST(VenueGeneratorTest, ExtraRoomDoorsRaiseDoorCount) {
  VenueGeneratorSpec spec = testing_util::SmallVenueSpec();
  spec.levels = 1;
  spec.stairwells = 0;
  Venue base = Unwrap(GenerateVenue(spec));
  spec.extra_room_doors_per_level = 6;
  Venue extra = Unwrap(GenerateVenue(spec));
  EXPECT_EQ(extra.num_doors(), base.num_doors() + 6);
  EXPECT_TRUE(extra.Validate().ok());
}

TEST(VenueGeneratorTest, DoorJitterIsDeterministicPerSeed) {
  VenueGeneratorSpec spec = testing_util::SmallVenueSpec();
  spec.door_jitter_seed = 5;
  Venue a = Unwrap(GenerateVenue(spec));
  Venue b = Unwrap(GenerateVenue(spec));
  ASSERT_EQ(a.num_doors(), b.num_doors());
  for (std::size_t d = 0; d < a.num_doors(); ++d) {
    EXPECT_EQ(a.door(static_cast<DoorId>(d)).position,
              b.door(static_cast<DoorId>(d)).position);
  }
  spec.door_jitter_seed = 6;
  Venue c = Unwrap(GenerateVenue(spec));
  int moved = 0;
  for (std::size_t d = 0; d < a.num_doors(); ++d) {
    if (!(a.door(static_cast<DoorId>(d)).position ==
          c.door(static_cast<DoorId>(d)).position)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(VenueGeneratorTest, RejectsBadSpecs) {
  VenueGeneratorSpec spec;
  spec.levels = 0;
  EXPECT_TRUE(GenerateVenue(spec).status().IsInvalidArgument());
  spec = VenueGeneratorSpec();
  spec.room_width = -1;
  EXPECT_TRUE(GenerateVenue(spec).status().IsInvalidArgument());
  spec = VenueGeneratorSpec();
  spec.levels = 3;
  spec.stairwells = 0;
  EXPECT_TRUE(GenerateVenue(spec).status().IsInvalidArgument());
}

// ----------------------------------------------------------------- Presets

// gtest prints this parameter as a dump of its bytes, and ctest names each
// case after that dump. The padding is spelled out and zeroed so the names do
// not pick up stack garbage and stay the same from run to run.
struct PresetExpectation {
  VenuePreset preset;
  std::int32_t pad0 = 0;
  std::size_t rooms;
  std::size_t doors;  // paper-reported door count
  int levels;
  std::int32_t pad1 = 0;
};
static_assert(std::has_unique_object_representations_v<PresetExpectation>,
              "PresetExpectation must have no implicit padding");

class PresetTest : public ::testing::TestWithParam<PresetExpectation> {};

TEST_P(PresetTest, MatchesPublishedStatistics) {
  const PresetExpectation e = GetParam();
  Venue venue = Unwrap(BuildPresetVenue(e.preset));
  EXPECT_EQ(venue.num_rooms(), e.rooms);
  EXPECT_EQ(venue.num_levels(), e.levels);
  // Door counts fold corridor/stair doors into the published totals; allow
  // a modest tolerance around the paper's number.
  const double ratio =
      static_cast<double>(venue.num_doors()) / static_cast<double>(e.doors);
  EXPECT_GE(ratio, 0.85) << venue.ToString();
  EXPECT_LE(ratio, 1.15) << venue.ToString();
  EXPECT_TRUE(venue.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllVenues, PresetTest,
    ::testing::Values(
        PresetExpectation{.preset = VenuePreset::kMelbourneCentral,
                          .rooms = 298, .doors = 299, .levels = 7},
        PresetExpectation{.preset = VenuePreset::kChadstone,
                          .rooms = 679, .doors = 678, .levels = 4},
        PresetExpectation{.preset = VenuePreset::kCopenhagenAirport,
                          .rooms = 76, .doors = 118, .levels = 1},
        PresetExpectation{.preset = VenuePreset::kMenziesBuilding,
                          .rooms = 1344, .doors = 1375, .levels = 16}));

TEST(PresetTest, CopenhagenFootprintRoughlyMatchesPaper) {
  Venue venue = Unwrap(BuildPresetVenue(VenuePreset::kCopenhagenAirport));
  const Rect bounds = venue.LevelBounds(0);
  EXPECT_NEAR(bounds.width(), 2000.0, 100.0);
  EXPECT_NEAR(bounds.height(), 600.0, 50.0);
}

TEST(PresetTest, NamesAreStable) {
  EXPECT_STREQ(VenuePresetName(VenuePreset::kMelbourneCentral), "MC");
  EXPECT_STREQ(VenuePresetName(VenuePreset::kChadstone), "CH");
  EXPECT_STREQ(VenuePresetName(VenuePreset::kCopenhagenAirport), "CPH");
  EXPECT_STREQ(VenuePresetName(VenuePreset::kMenziesBuilding), "MZB");
  EXPECT_EQ(AllVenuePresets().size(), 4u);
}

TEST(McCategoryTest, CardinalitiesMatchThePaper) {
  const auto categories = MelbourneCentralCategories();
  std::map<std::string, int> counts;
  int total = 0;
  for (const auto& c : categories) {
    counts[c.name] = c.count;
    total += c.count;
  }
  EXPECT_EQ(counts["fashion & accessories"], 101);
  EXPECT_EQ(counts["dining & entertainment"], 54);
  EXPECT_EQ(counts["health & beauty"], 39);
  EXPECT_EQ(counts["fresh food"], 19);
  EXPECT_EQ(counts["banks & services"], 14);
  EXPECT_EQ(total, 291);  // Fe + Fn is always 291 in the paper's Table 2
}

TEST(McCategoryTest, AssignmentProducesPaperFacilitySplits) {
  Venue venue = Unwrap(BuildPresetVenue(VenuePreset::kMelbourneCentral));
  ASSERT_TRUE(AssignMelbourneCentralCategories(&venue).ok());
  // The five real-setting experiments: (|Fe|, |Fn|) per category.
  const std::map<std::string, std::pair<int, int>> expectations = {
      {"fashion & accessories", {101, 190}},
      {"dining & entertainment", {54, 237}},
      {"health & beauty", {39, 252}},
      {"fresh food", {19, 272}},
      {"banks & services", {14, 277}},
  };
  for (const auto& [category, sizes] : expectations) {
    FacilitySets sets =
        Unwrap(SelectCategoryFacilities(venue, category));
    EXPECT_EQ(sets.existing.size(), static_cast<std::size_t>(sizes.first))
        << category;
    EXPECT_EQ(sets.candidates.size(), static_cast<std::size_t>(sizes.second))
        << category;
  }
}

TEST(McCategoryTest, AssignmentFailsOnSmallVenue) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  EXPECT_TRUE(
      AssignMelbourneCentralCategories(&venue).IsInvalidArgument());
}

TEST(McCategoryTest, UnknownCategoryIsNotFound) {
  Venue venue = Unwrap(BuildPresetVenue(VenuePreset::kMelbourneCentral));
  ASSERT_TRUE(AssignMelbourneCentralCategories(&venue).ok());
  EXPECT_TRUE(
      SelectCategoryFacilities(venue, "no such category").status()
          .IsNotFound());
}

// --------------------------------------------------------------- Clients

TEST(ClientGeneratorTest, UniformClientsAreInsideTheirPartitions) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  Rng rng(31);
  ClientGeneratorOptions options;
  const auto clients = GenerateClients(venue, 500, options, &rng);
  ASSERT_EQ(clients.size(), 500u);
  std::set<PartitionId> used;
  for (const Client& c : clients) {
    const Partition& p = venue.partition(c.partition);
    EXPECT_TRUE(p.rect.Contains(c.position));
    EXPECT_NE(p.kind, PartitionKind::kStairwell);
    used.insert(c.partition);
  }
  // Uniform placement over ~50 partitions should touch many of them.
  EXPECT_GT(used.size(), 20u);
}

TEST(ClientGeneratorTest, DeterministicPerSeed) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  ClientGeneratorOptions options;
  Rng rng_a(7), rng_b(7);
  const auto a = GenerateClients(venue, 50, options, &rng_a);
  const auto b = GenerateClients(venue, 50, options, &rng_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position, b[i].position);
    EXPECT_EQ(a[i].partition, b[i].partition);
  }
}

TEST(ClientGeneratorTest, NormalClientsClusterWithSmallSigma) {
  Venue venue = Unwrap(BuildPresetVenue(VenuePreset::kCopenhagenAirport));
  ClientGeneratorOptions tight;
  tight.distribution = ClientDistribution::kNormal;
  tight.sigma = 0.125;
  ClientGeneratorOptions loose = tight;
  loose.sigma = 2.0;
  Rng rng_a(11), rng_b(11);
  const auto clustered = GenerateClients(venue, 400, tight, &rng_a);
  const auto dispersed = GenerateClients(venue, 400, loose, &rng_b);
  const Point centre = venue.LevelBounds(0).center();
  auto mean_distance = [&](const std::vector<Client>& cs) {
    double total = 0;
    for (const Client& c : cs) total += PlanarDistance(c.position, centre);
    return total / cs.size();
  };
  EXPECT_LT(mean_distance(clustered), mean_distance(dispersed) * 0.7);
  for (const Client& c : clustered) {
    EXPECT_TRUE(venue.partition(c.partition).rect.Contains(c.position));
  }
}

TEST(ClientGeneratorTest, CorridorExclusionRespected) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  ClientGeneratorOptions options;
  options.allow_corridors = false;
  Rng rng(13);
  const auto clients = GenerateClients(venue, 200, options, &rng);
  for (const Client& c : clients) {
    EXPECT_EQ(venue.partition(c.partition).kind, PartitionKind::kRoom);
  }
}

// -------------------------------------------------------------- Facilities

TEST(FacilitySelectorTest, UniformDrawsAreDisjointRooms) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  Rng rng(17);
  FacilitySets sets = Unwrap(SelectUniformFacilities(venue, 10, 15, &rng));
  EXPECT_EQ(sets.existing.size(), 10u);
  EXPECT_EQ(sets.candidates.size(), 15u);
  std::set<PartitionId> all(sets.existing.begin(), sets.existing.end());
  all.insert(sets.candidates.begin(), sets.candidates.end());
  EXPECT_EQ(all.size(), 25u);
  for (PartitionId p : all) {
    EXPECT_EQ(venue.partition(p).kind, PartitionKind::kRoom);
  }
}

TEST(FacilitySelectorTest, OverdrawFails) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  Rng rng(19);
  EXPECT_TRUE(SelectUniformFacilities(venue, 40, 40, &rng)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------- Workload

TEST(WorkloadTest, SyntheticBuildIsConsistent) {
  WorkloadSpec spec;
  spec.preset = VenuePreset::kCopenhagenAirport;
  spec.num_existing = 10;
  spec.num_candidates = 20;
  spec.num_clients = 100;
  spec.seed = 3;
  Workload w = Unwrap(BuildWorkload(spec));
  EXPECT_EQ(w.facilities.existing.size(), 10u);
  EXPECT_EQ(w.facilities.candidates.size(), 20u);
  EXPECT_EQ(w.clients.size(), 100u);
  EXPECT_EQ(w.venue.num_rooms(), 76u);
}

TEST(WorkloadTest, RealSettingRequiresMelbourneCentral) {
  WorkloadSpec spec;
  spec.preset = VenuePreset::kChadstone;
  spec.real_setting = true;
  EXPECT_TRUE(BuildWorkload(spec).status().IsInvalidArgument());
}

TEST(WorkloadTest, RealSettingBuildsCategorySplit) {
  WorkloadSpec spec;
  spec.preset = VenuePreset::kMelbourneCentral;
  spec.real_setting = true;
  spec.existing_category = "fresh food";
  spec.num_clients = 50;
  Workload w = Unwrap(BuildWorkload(spec));
  EXPECT_EQ(w.facilities.existing.size(), 19u);
  EXPECT_EQ(w.facilities.candidates.size(), 272u);
}

TEST(WorkloadTest, ParameterGridsMatchTable2) {
  const ParameterGrid mc = PresetParameterGrid(VenuePreset::kMelbourneCentral);
  EXPECT_EQ(mc.existing_sizes,
            (std::vector<std::size_t>{25, 50, 75, 100, 125}));
  EXPECT_EQ(mc.candidate_sizes,
            (std::vector<std::size_t>{100, 125, 150, 175, 200}));
  EXPECT_EQ(mc.default_existing, 75u);
  EXPECT_EQ(mc.default_candidates, 150u);

  const ParameterGrid cph =
      PresetParameterGrid(VenuePreset::kCopenhagenAirport);
  EXPECT_EQ(cph.existing_sizes, (std::vector<std::size_t>{10, 15, 20, 25, 30}));
  EXPECT_EQ(cph.default_existing, 20u);

  const ParameterGrid mzb = PresetParameterGrid(VenuePreset::kMenziesBuilding);
  EXPECT_EQ(mzb.candidate_sizes,
            (std::vector<std::size_t>{300, 400, 500, 600, 700}));

  EXPECT_EQ(ClientSizeSweep(),
            (std::vector<std::size_t>{1000, 5000, 10000, 15000, 20000}));
  EXPECT_EQ(SigmaSweep(), (std::vector<double>{0.125, 0.25, 0.5, 1.0, 2.0}));
}

}  // namespace
}  // namespace ifls
