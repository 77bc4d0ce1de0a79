#include "src/io/venue_io.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <string_view>

#include "src/indoor/venue_builder.h"
#include "src/io/text_scanner.h"

namespace ifls {
namespace {

constexpr char kMagic[] = "IFLS_VENUE";
constexpr int kVersion = 1;

const char* KindToken(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kRoom:
      return "room";
    case PartitionKind::kCorridor:
      return "corridor";
    case PartitionKind::kStairwell:
      return "stairwell";
  }
  return "?";
}

Result<PartitionKind> KindFromToken(std::string_view token) {
  if (token == "room") return PartitionKind::kRoom;
  if (token == "corridor") return PartitionKind::kCorridor;
  if (token == "stairwell") return PartitionKind::kStairwell;
  return Status::InvalidArgument("unknown partition kind '" +
                                 std::string(token) + "'");
}

}  // namespace

Status SaveVenue(const Venue& venue, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  std::ostream& os = *out;
  os << kMagic << " " << kVersion << "\n";
  os << "name " << venue.name() << "\n";
  os << std::setprecision(17);
  os << "partitions " << venue.num_partitions() << "\n";
  for (const Partition& p : venue.partitions()) {
    os << "p " << KindToken(p.kind) << " " << p.level() << " " << p.rect.min_x
       << " " << p.rect.min_y << " " << p.rect.max_x << " " << p.rect.max_y;
    if (!p.category.empty()) os << " " << p.category;
    os << "\n";
  }
  os << "doors " << venue.num_doors() << "\n";
  for (const Door& d : venue.doors()) {
    os << "d " << d.partition_a << " " << d.partition_b << " "
       << d.position.x << " " << d.position.y << " " << d.position.level
       << " " << d.vertical_cost << "\n";
  }
  if (!os.good()) return Status::IOError("failed writing venue stream");
  return Status::OK();
}

Status SaveVenueToFile(const Venue& venue, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return SaveVenue(venue, &out);
}

namespace {

/// Parses a whole IFLS_VENUE text; LoadVenue and LoadVenueFromFile both end
/// here.
Result<Venue> ParseVenue(std::string_view text) {
  TextScanner in(text);
  std::string_view magic;
  int version = 0;
  if (!in.Next(&magic) || magic != kMagic || !in.Next(&version)) {
    return Status::InvalidArgument("not an IFLS_VENUE stream");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported venue format version " +
                                   std::to_string(version));
  }
  std::string_view keyword;
  if (!in.Next(&keyword) || keyword != "name") {
    return Status::InvalidArgument("expected 'name'");
  }
  const std::string name(in.RestOfLine());

  std::size_t num_partitions = 0;
  if (!in.Next(&keyword) || keyword != "partitions" ||
      !in.Next(&num_partitions)) {
    return Status::InvalidArgument("expected 'partitions <count>'");
  }
  VenueBuilder builder(name);
  for (std::size_t i = 0; i < num_partitions; ++i) {
    std::string_view tag, kind_token;
    Level level = 0;
    double x0, y0, x1, y1;
    if (!in.Next(&tag) || tag != "p" || !in.Next(&kind_token) ||
        !in.Next(&level) || !in.Next(&x0) || !in.Next(&y0) ||
        !in.Next(&x1) || !in.Next(&y1)) {
      return Status::InvalidArgument("malformed partition line " +
                                     std::to_string(i));
    }
    IFLS_ASSIGN_OR_RETURN(PartitionKind kind, KindFromToken(kind_token));
    // Levels index per-level tables (num_levels is the highest level + 1),
    // so a level below 0 or past the partition count is refused here.
    if (level < 0 || static_cast<std::size_t>(level) >= num_partitions) {
      return Status::InvalidArgument(
          "partition " + std::to_string(i) + " has level " +
          std::to_string(level) + " outside [0, partition count)");
    }
    builder.AddPartition(Rect(x0, y0, x1, y1, level), kind,
                         std::string(in.RestOfLine()));
  }

  std::size_t num_doors = 0;
  if (!in.Next(&keyword) || keyword != "doors" || !in.Next(&num_doors)) {
    return Status::InvalidArgument("expected 'doors <count>'");
  }
  for (std::size_t i = 0; i < num_doors; ++i) {
    std::string_view tag;
    PartitionId a, b;
    double x, y, vcost;
    Level level;
    if (!in.Next(&tag) || tag != "d" || !in.Next(&a) || !in.Next(&b) ||
        !in.Next(&x) || !in.Next(&y) || !in.Next(&level) ||
        !in.Next(&vcost)) {
      return Status::InvalidArgument("malformed door line " +
                                     std::to_string(i));
    }
    if (a < 0 || b < 0 ||
        static_cast<std::size_t>(a) >= builder.num_partitions() ||
        static_cast<std::size_t>(b) >= builder.num_partitions()) {
      return Status::InvalidArgument("door " + std::to_string(i) +
                                     " references unknown partition");
    }
    if (a == b) {
      return Status::InvalidArgument("door " + std::to_string(i) +
                                     " connects a partition to itself");
    }
    if (vcost > 0.0) {
      builder.AddStairDoor(a, b, Point(x, y, level), vcost);
    } else {
      builder.AddDoor(a, b, Point(x, y, level));
    }
  }
  return builder.Build();
}

}  // namespace

Result<Venue> LoadVenue(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null input stream");
  return ParseVenue(ReadAll(*in));
}

Result<Venue> LoadVenueFromFile(const std::string& path) {
  IFLS_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));
  return ParseVenue(text);
}

}  // namespace ifls
