// Acceptance lock-in for the online serving subsystem: across randomized
// venues and randomized mutation sequences, all three objectives answered on
// the service's (snapshot ⊕ overlay) composition must be bit-identical —
// answer id, found flag, objective value and ranked tie-breaks — to a full
// from-scratch rebuild (fresh VIP-tree, composed facility sets) at every
// step, both before and after compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/solve_dispatch.h"
#include "src/service/service.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::Unwrap;

VenueGeneratorSpec RandomSpec(Rng* rng) {
  VenueGeneratorSpec spec;
  spec.name = "service-diff";
  spec.levels = 1 + static_cast<int>(rng->NextBounded(2));
  spec.rooms_per_level = 12 + static_cast<int>(rng->NextBounded(16));
  spec.rooms_per_corridor_side = 4 + static_cast<int>(rng->NextBounded(4));
  spec.room_width = 4.0 + rng->NextUniform(0.0, 3.0);
  spec.room_depth = 6.0 + rng->NextUniform(0.0, 3.0);
  spec.corridor_width = 3.0;
  spec.stairwells = 1;
  spec.stair_length = 8.0 + rng->NextUniform(0.0, 6.0);
  spec.door_jitter_seed = rng->NextBounded(1u << 20) + 1;
  return spec;
}

/// Reference model of the effective facility sets, mirrored mutation by
/// mutation (only those the service accepted).
struct ReferenceSets {
  std::vector<PartitionId> existing;
  std::vector<PartitionId> candidates;

  static void Insert(std::vector<PartitionId>* v, PartitionId p) {
    v->insert(std::upper_bound(v->begin(), v->end(), p), p);
  }
  static void Erase(std::vector<PartitionId>* v, PartitionId p) {
    v->erase(std::find(v->begin(), v->end(), p));
  }
  void Apply(const Mutation& m) {
    switch (m.kind) {
      case MutationKind::kAddFacility:
        Insert(&existing, m.partition);
        break;
      case MutationKind::kRemoveFacility:
        Erase(&existing, m.partition);
        break;
      case MutationKind::kAddCandidate:
        Insert(&candidates, m.partition);
        break;
      case MutationKind::kRemoveCandidate:
        Erase(&candidates, m.partition);
        break;
    }
  }
};

class ServiceDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServiceDifferentialTest, ServiceMatchesFullRebuildAtEveryStep) {
  Rng rng(GetParam());

  // The rebuild reference gets its own identical venue + fresh VIP-tree
  // (venue generation and tree construction are deterministic).
  const VenueGeneratorSpec spec = RandomSpec(&rng);
  Venue reference_venue = Unwrap(GenerateVenue(spec));
  const VipTree reference_tree =
      Unwrap(VipTree::Build(&reference_venue));

  ReferenceSets ref;
  {
    FacilitySets sets = Unwrap(SelectUniformFacilities(
        reference_venue, 2 + rng.NextBounded(3), 3 + rng.NextBounded(4),
        &rng));
    ref.existing = std::move(sets.existing);
    ref.candidates = std::move(sets.candidates);
    std::sort(ref.existing.begin(), ref.existing.end());
    std::sort(ref.candidates.begin(), ref.candidates.end());
  }

  std::vector<Client> clients;
  const std::size_t num_clients = 8 + rng.NextBounded(12);
  for (std::size_t i = 0; i < num_clients; ++i) {
    clients.push_back(
        RandomClient(reference_venue, &rng, static_cast<ClientId>(i)));
  }

  ServiceOptions options;
  options.num_workers = 0;        // inline, deterministic
  options.compaction_threshold = 0;  // compaction points chosen by the test
  Venue service_venue = Unwrap(GenerateVenue(spec));
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(service_venue), ref.existing, ref.candidates, options));

  // Bit-identical comparison of the service answer vs a from-scratch solve
  // over the reference tree and the composed sets.
  const auto check_all_objectives = [&](const char* stage, int step) {
    for (IflsObjective objective :
         {IflsObjective::kMinMax, IflsObjective::kMinDist,
          IflsObjective::kMaxSum}) {
      SCOPED_TRACE(::testing::Message()
                   << stage << " step " << step << " "
                   << IflsObjectiveName(objective));
      ServiceRequest req;
      req.objective = objective;
      req.clients = clients;
      const ServiceReply reply = service->Query(std::move(req));

      IflsContext ctx;
      ctx.oracle = &reference_tree;
      ctx.existing = ref.existing;
      ctx.candidates = ref.candidates;
      ctx.clients = clients;
      const Result<IflsResult> rebuilt = SolveWithObjective(objective, ctx);

      // Mutations can drive the sets into shapes a solver rejects (e.g.
      // everything removed); service and rebuild must then fail identically.
      ASSERT_EQ(reply.status.ok(), rebuilt.ok())
          << reply.status.ToString() << " vs " << rebuilt.status().ToString();
      if (!rebuilt.ok()) continue;

      EXPECT_EQ(reply.result.found, rebuilt->found);
      EXPECT_EQ(reply.result.answer, rebuilt->answer);
      EXPECT_EQ(reply.result.objective, rebuilt->objective);  // bit-identical
      EXPECT_EQ(reply.result.ranked, rebuilt->ranked);

      // The service's effective sets equal the reference composition.
      const auto state = service->AcquireState();
      EXPECT_EQ(state->effective_existing, ref.existing);
      EXPECT_EQ(state->effective_candidates, ref.candidates);
    }
  };

  check_all_objectives("boot", -1);

  const int num_steps = 10 + static_cast<int>(rng.NextBounded(6));
  std::uint64_t epoch_before = service->snapshot_epoch();
  for (int step = 0; step < num_steps; ++step) {
    // A random mutation on a random partition; invalid ones must be
    // rejected without changing any answer.
    Mutation m;
    m.kind = static_cast<MutationKind>(rng.NextBounded(4));
    m.partition = static_cast<PartitionId>(
        rng.NextBounded(reference_venue.num_partitions()));
    const Status applied = service->Mutate(m);
    if (applied.ok()) ref.Apply(m);

    check_all_objectives("mutate", step);

    // Compact at random points (and always near the end): the fold plus
    // overlay rebase must leave every answer unchanged.
    if (rng.NextBounded(4) == 0 || step == num_steps - 1) {
      ASSERT_TRUE(service->CompactNow().ok());
      const std::uint64_t epoch_after = service->snapshot_epoch();
      EXPECT_GT(epoch_after, epoch_before);  // epochs strictly monotonic
      epoch_before = epoch_after;
      check_all_objectives("compacted", step);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMutationSequences, ServiceDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ifls
