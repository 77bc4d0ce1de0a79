#ifndef IFLS_IO_VENUE_IO_H_
#define IFLS_IO_VENUE_IO_H_

#include <iosfwd>
#include <string>

#include "src/common/status.h"
#include "src/indoor/venue.h"

namespace ifls {

/// Serializes a venue to the line-oriented IFLS_VENUE text format:
///
///   IFLS_VENUE 1
///   name <venue name>
///   partitions <count>
///   p <kind> <level> <min_x> <min_y> <max_x> <max_y> [category...]
///   doors <count>
///   d <partition_a> <partition_b> <x> <y> <level> <vertical_cost>
///
/// Ids are implicit (line order), matching the in-memory dense ids.
Status SaveVenue(const Venue& venue, std::ostream* out);
Status SaveVenueToFile(const Venue& venue, const std::string& path);

/// Parses the format above and rebuilds (and re-validates) the venue. Both
/// read their input whole and parse it with one TextScanner
/// (io/text_scanner.h); LoadVenue consumes the rest of its stream.
Result<Venue> LoadVenue(std::istream* in);
Result<Venue> LoadVenueFromFile(const std::string& path);

}  // namespace ifls

#endif  // IFLS_IO_VENUE_IO_H_
