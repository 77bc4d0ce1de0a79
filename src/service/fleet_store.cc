#include "src/service/fleet_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "src/io/text_scanner.h"
#include "src/io/venue_io.h"

namespace ifls {
namespace {

namespace fs = std::filesystem;

constexpr char kFacilitiesMagic[] = "IFLS_FACILITIES";
constexpr int kFacilitiesVersion = 1;

Status SaveFacilities(const std::string& path,
                      std::span<const PartitionId> existing,
                      std::span<const PartitionId> candidates) {
  std::ofstream os(path);
  if (!os.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  os << kFacilitiesMagic << " " << kFacilitiesVersion << "\n";
  os << "existing " << existing.size();
  for (PartitionId p : existing) os << " " << p;
  os << "\n";
  os << "candidates " << candidates.size();
  for (PartitionId p : candidates) os << " " << p;
  os << "\n";
  if (!os.good()) return Status::IOError("failed writing '" + path + "'");
  return Status::OK();
}

Status LoadFacilityList(TextScanner& in, const char* tag,
                        std::vector<PartitionId>* out) {
  std::string_view keyword;
  std::size_t count = 0;
  if (!in.Next(&keyword) || keyword != tag || !in.Next(&count)) {
    return Status::InvalidArgument(std::string("expected '") + tag +
                                   "' in facilities file");
  }
  // Every id takes at least one byte of the file, so a larger count is a
  // lie; checking it first keeps a hostile count from sizing the vector.
  if (count > in.remaining()) {
    return Status::InvalidArgument(
        std::string("'") + tag + "' count " + std::to_string(count) +
        " exceeds the " + std::to_string(in.remaining()) +
        " bytes left in facilities file");
  }
  out->resize(count);
  for (PartitionId& p : *out) {
    if (!in.Next(&p)) {
      return Status::InvalidArgument(std::string("truncated '") + tag +
                                     "' list in facilities file");
    }
  }
  return Status::OK();
}

Result<std::pair<std::vector<PartitionId>, std::vector<PartitionId>>>
LoadFacilities(const std::string& path) {
  IFLS_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));
  TextScanner in(text);
  std::string_view magic;
  int version = 0;
  if (!in.Next(&magic) || magic != kFacilitiesMagic || !in.Next(&version)) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an IFLS facilities file");
  }
  if (version != kFacilitiesVersion) {
    return Status::InvalidArgument("unsupported facilities file version " +
                                   std::to_string(version));
  }
  std::pair<std::vector<PartitionId>, std::vector<PartitionId>> sets;
  IFLS_RETURN_NOT_OK(LoadFacilityList(in, "existing", &sets.first));
  IFLS_RETURN_NOT_OK(LoadFacilityList(in, "candidates", &sets.second));
  return sets;
}

std::string Join(const std::string& dir, const char* file) {
  return (fs::path(dir) / file).string();
}

}  // namespace

Status WriteVenueSnapshot(const std::string& dir, const Venue& venue,
                          const VipTree& tree,
                          std::span<const PartitionId> existing,
                          std::span<const PartitionId> candidates) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot directory '" + dir +
                           "': " + ec.message());
  }
  IFLS_RETURN_NOT_OK(SaveVenueToFile(venue, Join(dir, kFleetVenueFileName)));
  IFLS_RETURN_NOT_OK(tree.SaveV3ToFile(Join(dir, kFleetIndexV3FileName)));
  return SaveFacilities(Join(dir, kFleetFacilitiesFileName), existing,
                        candidates);
}

Result<LoadedVenueSnapshot> LoadVenueSnapshot(const std::string& dir,
                                              SnapshotLoadMode /*mode*/) {
  Result<Venue> venue = LoadVenueFromFile(Join(dir, kFleetVenueFileName));
  if (!venue.ok()) return venue.status();
  LoadedVenueSnapshot snapshot;
  snapshot.venue = std::make_shared<const Venue>(std::move(venue).value());

  Result<VipTree> tree = VipTree::LoadV3FromFile(
      snapshot.venue.get(), Join(dir, kFleetIndexV3FileName));
  if (!tree.ok()) return tree.status();
  snapshot.tree = std::make_shared<const VipTree>(std::move(tree).value());

  IFLS_ASSIGN_OR_RETURN(auto sets,
                        LoadFacilities(Join(dir, kFleetFacilitiesFileName)));
  snapshot.existing = std::move(sets.first);
  snapshot.candidates = std::move(sets.second);
  return snapshot;
}

Result<std::vector<std::string>> ListFleetVenues(const std::string& root) {
  std::error_code ec;
  fs::directory_iterator it(root, ec);
  if (ec) {
    return Status::IOError("cannot list fleet root '" + root +
                           "': " + ec.message());
  }
  std::vector<std::string> ids;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory()) continue;
    if (fs::exists(entry.path() / kFleetVenueFileName)) {
      ids.push_back(entry.path().filename().string());
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace ifls
