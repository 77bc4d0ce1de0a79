#ifndef IFLS_SERVICE_VENUE_ROUTER_H_
#define IFLS_SERVICE_VENUE_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/metrics_registry.h"
#include "src/common/status.h"
#include "src/service/fleet_store.h"
#include "src/service/service.h"

namespace ifls {

/// Router configuration. The memory budget governs *resident heap* bytes
/// (tree descriptors, door caches, service state) — mapped snapshot bytes
/// are excluded on purpose: they belong to the page cache, evicting a venue
/// does not free them, and re-mapping them is what makes warm restarts
/// cheap. See MemoryTracker::ChargeMapped.
struct VenueRouterOptions {
  /// Resident-byte budget across all loaded venues; 0 = unlimited. The
  /// venue being served is never evicted, so one venue may exceed the
  /// budget alone.
  std::size_t memory_budget_bytes = 0;
  /// Hard cap on simultaneously resident venues; 0 = unlimited.
  std::size_t max_resident_venues = 0;
  /// Template for every per-venue service.
  ServiceOptions service;
};

/// Aggregated router counters; per-venue detail via VenueStats().
struct VenueRouterMetrics {
  std::uint64_t loads = 0;        // snapshot hydrations (incl. reloads)
  std::uint64_t hits = 0;         // requests served by a resident service
  std::uint64_t evictions = 0;
  std::size_t known_venues = 0;
  std::size_t resident_venues = 0;
  std::size_t resident_bytes = 0;  // heap estimate driving eviction
  std::size_t mapped_bytes = 0;    // page-cache bytes (excluded from budget)
};

/// Per-venue state visible to operators.
struct VenueEntryStats {
  std::string venue_id;
  bool resident = false;
  std::size_t resident_bytes = 0;
  std::size_t mapped_bytes = 0;
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
};

/// Serves a whole fleet of venues from one process (DESIGN.md §12): lazily
/// hydrates a per-venue IflsService from a fleet snapshot directory on
/// first touch, keeps services LRU-ordered under a resident-memory budget,
/// and evicts cold venues by dropping their heap state — with mmap-loaded
/// snapshots the payload stays in the page cache, so a later touch
/// re-hydrates by re-mapping instead of re-parsing or rebuilding.
///
/// Thread-safety: all methods are safe to call concurrently. Loads run
/// outside the router lock (only same-venue callers wait on each other);
/// queries against resident venues are a map lookup. Eviction only drops
/// the router's reference — in-flight queries hold the service shared_ptr,
/// so a service dies after its last caller returns, never under one.
class VenueRouter {
 public:
  /// Scans `root` for venue subdirectories (fleet_store layout). Venues are
  /// discovered eagerly but hydrated lazily.
  static Result<std::unique_ptr<VenueRouter>> Open(
      const std::string& root, VenueRouterOptions options = {});

  ~VenueRouter();

  VenueRouter(const VenueRouter&) = delete;
  VenueRouter& operator=(const VenueRouter&) = delete;

  /// The per-venue service, hydrating it if evicted/never loaded. The
  /// returned shared_ptr keeps the service alive across a concurrent
  /// eviction. NotFound for unknown venue ids.
  Result<std::shared_ptr<IflsService>> Service(const std::string& venue_id);

  /// Service(venue_id)->Query(request); a routing failure comes back as
  /// the reply's status.
  ServiceReply Query(const std::string& venue_id, ServiceRequest request);

  /// Ends a subscription of a resident venue. Never hydrates: on a cold
  /// venue it is a no-op returning OK (eviction already closed the
  /// service's subscriptions). NotFound for unknown venue ids.
  Status Unsubscribe(const std::string& venue_id,
                     std::uint64_t subscription_id);

  // ---- Lifecycle ------------------------------------------------------

  /// Hydrates a venue without issuing a request (warm-up).
  Status Preload(const std::string& venue_id);

  /// Drops a venue's resident state now (manual eviction / maintenance).
  /// In-flight requests finish against their pinned service. OK when the
  /// venue was already cold; NotFound for unknown ids.
  Status Evict(const std::string& venue_id);

  bool IsResident(const std::string& venue_id) const;
  std::vector<std::string> venue_ids() const;
  std::vector<VenueEntryStats> VenueStats() const;
  VenueRouterMetrics Metrics() const;
  const VenueRouterOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<IflsService> service;  // null when cold
    std::size_t resident_bytes = 0;
    std::size_t mapped_bytes = 0;
    /// Router-wide monotonic touch stamp (LRU order).
    std::uint64_t last_used = 0;
    std::uint64_t loads = 0;
    std::uint64_t evictions = 0;
    /// True while one caller hydrates; others wait on loaded_cv_.
    bool loading = false;
  };

  VenueRouter(std::string root, VenueRouterOptions options);

  /// Evicts LRU venues until budget and count hold, never touching
  /// `keep` or a loading entry. Caller holds mu_ and must let the returned
  /// services go only after releasing it (see EvictEntryLocked).
  std::vector<std::shared_ptr<IflsService>> EvictOverBudgetLocked(
      const std::string& keep);
  /// Marks `entry` cold and hands the router's reference to the caller.
  /// ~IflsService takes the registry mutex, which a /metrics scrape holds
  /// while calling Metrics() (-> mu_), so the service must die outside mu_.
  std::shared_ptr<IflsService> EvictEntryLocked(Entry& entry);
  void RegisterMetrics();

  const std::string root_;
  const VenueRouterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  std::map<std::string, Entry> entries_;
  std::uint64_t touch_clock_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evictions_ = 0;

  std::vector<MetricsRegistry::Registration> metric_registrations_;
};

}  // namespace ifls

#endif  // IFLS_SERVICE_VENUE_ROUTER_H_
