// Seeded mutation fuzz over the text files of a fleet directory: venue.txt,
// parsed by LoadVenue / LoadVenueFromFile, and facilities.txt, parsed by
// LoadVenueSnapshot. Both arrive from disk. Starting from a valid venue text
// (stair doors and categories included) and a valid facilities text, each
// iteration applies a few mutations — byte flips, deleted or duplicated
// ranges, truncation, and whole tokens replaced by boundary values (0, -1,
// huge counts, out-of-range integers and doubles, inf, nan, garbage) — and
// loads the result. The invariant:
//
//   * a load returns OK or a typed non-ok Status, never a crash, an abort
//     or a hang (run it under -DIFLS_SANITIZE=address, which also enables
//     UBSan, to make memory errors fatal);
//   * an accepted venue passes Venue::Validate, and its coordinates are
//     finite;
//   * an accepted facility list holds no more ids than its file has bytes.
//
// Carries its own main() so `--iterations=<n|high>` can scale the run (the
// `high` row is the nightly ctest configuration).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/datasets/facility_selector.h"
#include "src/index/vip_tree.h"
#include "src/io/venue_io.h"
#include "src/service/fleet_store.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

// Mutated texts loaded per run, split between the two files; overridden by
// --iterations.
int g_iterations = 8000;

constexpr std::string_view kBoundaryTokens[] = {
    "0",    "-1",   "1",   "99999999999999",      "18446744073709551616",
    "2147483647",   "2147483648",   "-2147483649",   "1e308", "1e400", "-1e400", "1e-400",
    "inf",  "nan",  "-0",  "0x10", "+1", "p", "d", "room", "stairwell",
    "partitions", "doors", "existing", "candidates", "",  "1.5.5", "--1",
};

/// [begin, end) of each whitespace-delimited token of `text`.
std::vector<std::pair<std::size_t, std::size_t>> Tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) tokens.emplace_back(start, i);
  }
  return tokens;
}

void Mutate(std::string* text, Rng* rng) {
  if (text->empty()) {
    text->assign(kBoundaryTokens[rng->NextBounded(std::size(kBoundaryTokens))]);
    return;
  }
  switch (rng->NextBounded(5)) {
    case 0: {  // byte flips, biased to printable bytes
      const int flips = 1 + static_cast<int>(rng->NextBounded(4));
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = rng->NextBounded(text->size());
        (*text)[pos] = rng->NextBounded(2) == 0
                           ? static_cast<char>(rng->NextBounded(256))
                           : " \n0-9.eE+x"[rng->NextBounded(11)];
      }
      break;
    }
    case 1: {  // delete a range
      const std::size_t pos = rng->NextBounded(text->size());
      text->erase(pos, 1 + rng->NextBounded(64));
      break;
    }
    case 2: {  // duplicate a range
      const std::size_t pos = rng->NextBounded(text->size());
      const std::string range = text->substr(pos, 1 + rng->NextBounded(128));
      text->insert(rng->NextBounded(text->size() + 1), range);
      break;
    }
    case 3:  // truncate
      text->resize(rng->NextBounded(text->size()));
      break;
    default: {  // replace whole tokens with boundary values
      const int swaps = 1 + static_cast<int>(rng->NextBounded(3));
      for (int i = 0; i < swaps; ++i) {
        const auto tokens = Tokens(*text);
        if (tokens.empty()) break;
        const auto [begin, end] = tokens[rng->NextBounded(tokens.size())];
        text->replace(
            begin, end - begin,
            kBoundaryTokens[rng->NextBounded(std::size(kBoundaryTokens))]);
      }
      break;
    }
  }
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  IFLS_CHECK(out.good()) << "cannot write " << path;
}

void ExpectValidVenue(const Venue& venue) {
  ASSERT_TRUE(venue.Validate().ok()) << venue.Validate().ToString();
  for (const Partition& p : venue.partitions()) {
    ASSERT_TRUE(std::isfinite(p.rect.min_x) && std::isfinite(p.rect.min_y) &&
                std::isfinite(p.rect.max_x) && std::isfinite(p.rect.max_y));
  }
  for (const Door& d : venue.doors()) {
    ASSERT_TRUE(std::isfinite(d.position.x) && std::isfinite(d.position.y) &&
                std::isfinite(d.vertical_cost));
  }
}

TEST(VenueTextFuzzTest, MutatedTextsLoadOrFailTyped) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  venue.SetCategory(0, "food court");
  venue.SetCategory(3, "retail");
  std::ostringstream venue_stream;
  ASSERT_TRUE(SaveVenue(venue, &venue_stream).ok());
  const std::string venue_text = venue_stream.str();
  ASSERT_NE(venue_text.find("stairwell"), std::string::npos);

  // One directory per process: the default and nightly rows may run at once.
  const std::string dir = ::testing::TempDir() + "/venue_text_fuzz_" +
                          std::to_string(::getpid());
  const VipTree tree = Unwrap(VipTree::Build(&venue));
  Rng select_rng(17);
  const FacilitySets sets =
      Unwrap(SelectUniformFacilities(venue, 4, 8, &select_rng));
  ASSERT_TRUE(WriteVenueSnapshot(dir, venue, tree, sets.existing,
                                 sets.candidates)
                  .ok());
  // Mutated venue texts go to a file of their own, so the snapshot loads
  // below always read the valid venue.txt.
  const std::string venue_path = dir + "/fuzzed_venue.txt";
  const std::string facilities_path = dir + "/" + kFleetFacilitiesFileName;
  std::string facilities_text;
  {
    std::ifstream in(facilities_path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    facilities_text = text.str();
  }

  int venues_accepted = 0;
  int facilities_accepted = 0;
  for (int it = 0; it < g_iterations; ++it) {
    Rng rng(0xfe11'0000 + static_cast<std::uint64_t>(it));
    const bool facilities = it % 2 == 1;
    std::string text = facilities ? facilities_text : venue_text;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) Mutate(&text, &rng);
    SCOPED_TRACE("iteration " + std::to_string(it));

    if (!facilities) {
      // The stream and file entry points share one parser; alternate them.
      const auto load = [&]() -> Result<Venue> {
        if (rng.NextBounded(2) == 0) {
          std::istringstream stream(text);
          return LoadVenue(&stream);
        }
        WriteFile(venue_path, text);
        return LoadVenueFromFile(venue_path);
      };
      const Result<Venue> loaded = load();
      if (!loaded.ok()) continue;
      ++venues_accepted;
      ExpectValidVenue(loaded.value());
      continue;
    }

    WriteFile(facilities_path, text);
    Result<LoadedVenueSnapshot> snapshot =
        LoadVenueSnapshot(dir, SnapshotLoadMode::kMmap);
    if (!snapshot.ok()) continue;
    ++facilities_accepted;
    ASSERT_LE(snapshot.value().existing.size() +
                  snapshot.value().candidates.size(),
              text.size());
  }
  std::filesystem::remove_all(dir);
  std::printf("venue text fuzz: %d iterations, %d venues and %d facility "
              "files accepted\n",
              g_iterations, venues_accepted, facilities_accepted);
  // Some mutations (a changed coordinate, a duplicated blank) keep a text
  // valid; none accepted would mean the loads never get past the header.
  if (g_iterations >= 100) {
    EXPECT_GT(venues_accepted, 0);
    EXPECT_GT(facilities_accepted, 0);
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
      ifls::g_iterations = 80000;  // nightly configuration
    } else {
      ifls::g_iterations = std::max(1, std::atoi(value.c_str()));
    }
  }
  return RUN_ALL_TESTS();
}
