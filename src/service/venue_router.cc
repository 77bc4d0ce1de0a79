#include "src/service/venue_router.h"

#include <filesystem>
#include <limits>
#include <utility>

namespace ifls {

VenueRouter::VenueRouter(std::string root, VenueRouterOptions options)
    : root_(std::move(root)), options_(options) {}

VenueRouter::~VenueRouter() {
  // Callbacks read `this`; tear them down before members die.
  metric_registrations_.clear();
}

Result<std::unique_ptr<VenueRouter>> VenueRouter::Open(
    const std::string& root, VenueRouterOptions options) {
  IFLS_ASSIGN_OR_RETURN(std::vector<std::string> ids, ListFleetVenues(root));
  if (ids.empty()) {
    return Status::InvalidArgument("fleet root '" + root +
                                   "' contains no venue snapshots");
  }
  std::unique_ptr<VenueRouter> router(
      new VenueRouter(root, std::move(options)));
  for (std::string& id : ids) {
    router->entries_.emplace(std::move(id), Entry{});
  }
  router->RegisterMetrics();
  return router;
}

Result<std::shared_ptr<IflsService>> VenueRouter::Service(
    const std::string& venue_id) {
  // Declared before `lock`, so evicted services die after mu_ is released.
  std::vector<std::shared_ptr<IflsService>> evicted;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(venue_id);
  if (it == entries_.end()) {
    return Status::NotFound("unknown venue '" + venue_id + "'");
  }
  Entry& entry = it->second;
  // Exactly one caller hydrates; same-venue callers wait, other venues
  // proceed (the load itself runs outside the router lock).
  while (entry.loading) loaded_cv_.wait(lock);
  if (entry.service != nullptr) {
    entry.last_used = ++touch_clock_;
    ++hits_;
    return entry.service;
  }

  entry.loading = true;
  lock.unlock();

  const std::string dir =
      (std::filesystem::path(root_) / venue_id).string();
  Status load_status;
  std::shared_ptr<IflsService> loaded;
  std::size_t resident_bytes = 0;
  std::size_t mapped_bytes = 0;
  {
    Result<LoadedVenueSnapshot> snapshot =
        LoadVenueSnapshot(dir, SnapshotLoadMode::kMmap);
    if (!snapshot.ok()) {
      load_status = snapshot.status();
    } else {
      resident_bytes = snapshot.value().tree->MemoryFootprintBytes();
      mapped_bytes = snapshot.value().tree->MappedFootprintBytes();
      // Stamp the routing id on the per-venue service so its cost-ledger
      // samples carry venue="<id>" (the template label, if any, would make
      // every venue's traffic indistinguishable).
      ServiceOptions service_options = options_.service;
      service_options.venue_label = venue_id;
      Result<std::unique_ptr<IflsService>> service =
          IflsService::CreateFromParts(
              snapshot.value().venue, snapshot.value().tree,
              std::move(snapshot.value().existing),
              std::move(snapshot.value().candidates), service_options);
      if (!service.ok()) {
        load_status = service.status();
      } else {
        loaded = std::shared_ptr<IflsService>(std::move(service).value());
      }
    }
  }

  lock.lock();
  entry.loading = false;
  loaded_cv_.notify_all();
  if (!load_status.ok()) return load_status;

  entry.service = std::move(loaded);
  entry.resident_bytes = resident_bytes;
  entry.mapped_bytes = mapped_bytes;
  entry.last_used = ++touch_clock_;
  ++entry.loads;
  ++loads_;
  evicted = EvictOverBudgetLocked(venue_id);
  return entry.service;
}

ServiceReply VenueRouter::Query(const std::string& venue_id,
                                ServiceRequest request) {
  Result<std::shared_ptr<IflsService>> service = Service(venue_id);
  if (!service.ok()) {
    ServiceReply reply;
    reply.status = service.status();
    return reply;
  }
  return service.value()->Query(std::move(request));
}

Status VenueRouter::Mutate(const std::string& venue_id,
                           const Mutation& mutation,
                           std::uint64_t* applied_version) {
  IFLS_ASSIGN_OR_RETURN(std::shared_ptr<IflsService> service,
                        Service(venue_id));
  return service->Mutate(mutation, applied_version);
}

Result<std::shared_ptr<Subscription>> VenueRouter::Subscribe(
    const std::string& venue_id, const std::vector<Client>& clients,
    const SubscriptionOptions& options, SubscriptionCallback callback) {
  IFLS_ASSIGN_OR_RETURN(std::shared_ptr<IflsService> service,
                        Service(venue_id));
  return service->Subscribe(clients, options, std::move(callback));
}

Status VenueRouter::Unsubscribe(const std::string& venue_id,
                                std::uint64_t subscription_id) {
  // Deliberately does not hydrate: unsubscribing from an evicted venue is a
  // no-op (eviction already closed the service's subscriptions).
  std::shared_ptr<IflsService> service;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(venue_id);
    if (it == entries_.end()) {
      return Status::NotFound("unknown venue '" + venue_id + "'");
    }
    service = it->second.service;
  }
  if (service == nullptr) return Status::OK();
  return service->Unsubscribe(subscription_id);
}

Status VenueRouter::TickSubscription(const std::string& venue_id,
                                     std::uint64_t subscription_id,
                                     ClientId client, const Point& position,
                                     PartitionId partition) {
  IFLS_ASSIGN_OR_RETURN(std::shared_ptr<IflsService> service,
                        Service(venue_id));
  return service->TickSubscription(subscription_id, client, position,
                                   partition);
}

Status VenueRouter::Preload(const std::string& venue_id) {
  return Service(venue_id).status();
}

Status VenueRouter::Evict(const std::string& venue_id) {
  // Declared before `lock`, so the evicted service dies after mu_ is free.
  std::shared_ptr<IflsService> evicted;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(venue_id);
  if (it == entries_.end()) {
    return Status::NotFound("unknown venue '" + venue_id + "'");
  }
  while (it->second.loading) loaded_cv_.wait(lock);
  if (it->second.service != nullptr) evicted = EvictEntryLocked(it->second);
  return Status::OK();
}

bool VenueRouter::IsResident(const std::string& venue_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(venue_id);
  return it != entries_.end() && it->second.service != nullptr;
}

std::vector<std::string> VenueRouter::venue_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

std::vector<VenueEntryStats> VenueRouter::VenueStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<VenueEntryStats> stats;
  stats.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    VenueEntryStats s;
    s.venue_id = id;
    s.resident = entry.service != nullptr;
    s.resident_bytes = s.resident ? entry.resident_bytes : 0;
    s.mapped_bytes = s.resident ? entry.mapped_bytes : 0;
    s.loads = entry.loads;
    s.evictions = entry.evictions;
    stats.push_back(std::move(s));
  }
  return stats;
}

VenueRouterMetrics VenueRouter::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  VenueRouterMetrics m;
  m.loads = loads_;
  m.hits = hits_;
  m.evictions = evictions_;
  m.known_venues = entries_.size();
  for (const auto& [id, entry] : entries_) {
    if (entry.service == nullptr) continue;
    ++m.resident_venues;
    m.resident_bytes += entry.resident_bytes;
    m.mapped_bytes += entry.mapped_bytes;
  }
  return m;
}

std::vector<std::shared_ptr<IflsService>> VenueRouter::EvictOverBudgetLocked(
    const std::string& keep) {
  std::vector<std::shared_ptr<IflsService>> evicted;
  auto over_budget = [&]() {
    std::size_t resident = 0;
    std::size_t bytes = 0;
    for (const auto& [id, entry] : entries_) {
      if (entry.service == nullptr) continue;
      ++resident;
      bytes += entry.resident_bytes;
    }
    if (options_.max_resident_venues > 0 &&
        resident > options_.max_resident_venues) {
      return true;
    }
    return options_.memory_budget_bytes > 0 &&
           bytes > options_.memory_budget_bytes;
  };
  while (over_budget()) {
    std::map<std::string, Entry>::iterator victim = entries_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& entry = it->second;
      if (entry.service == nullptr || entry.loading || it->first == keep) {
        continue;
      }
      if (entry.last_used < oldest) {
        oldest = entry.last_used;
        victim = it;
      }
    }
    // Only the protected venue remains: serving it beats the budget.
    if (victim == entries_.end()) break;
    evicted.push_back(EvictEntryLocked(victim->second));
  }
  return evicted;
}

std::shared_ptr<IflsService> VenueRouter::EvictEntryLocked(Entry& entry) {
  // Giving up our reference is the whole eviction: in-flight callers hold
  // their own shared_ptr, so the service (and, once they finish, the tree
  // and its mapping) is destroyed after the last request completes. The
  // mapped file bytes stay in the page cache — that is the warm-restart
  // path Service() re-maps on the next touch.
  entry.resident_bytes = 0;
  entry.mapped_bytes = 0;
  ++entry.evictions;
  ++evictions_;
  return std::move(entry.service);
}

void VenueRouter::RegisterMetrics() {
  auto& registry = MetricsRegistry::Global();
  auto counter = [this](std::uint64_t VenueRouterMetrics::* field) {
    return [this, field]() {
      return Metrics().*field;
    };
  };
  auto gauge = [this](std::size_t VenueRouterMetrics::* field) {
    return [this, field]() {
      return static_cast<double>(Metrics().*field);
    };
  };
  metric_registrations_.push_back(registry.RegisterCallbackCounter(
      "ifls_router_loads_total", "", counter(&VenueRouterMetrics::loads)));
  metric_registrations_.push_back(registry.RegisterCallbackCounter(
      "ifls_router_hits_total", "", counter(&VenueRouterMetrics::hits)));
  metric_registrations_.push_back(registry.RegisterCallbackCounter(
      "ifls_router_evictions_total", "",
      counter(&VenueRouterMetrics::evictions)));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_router_known_venues", "",
      gauge(&VenueRouterMetrics::known_venues)));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_router_resident_venues", "",
      gauge(&VenueRouterMetrics::resident_venues)));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_router_resident_bytes", "",
      gauge(&VenueRouterMetrics::resident_bytes)));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_router_mapped_bytes", "",
      gauge(&VenueRouterMetrics::mapped_bytes)));
}

}  // namespace ifls
