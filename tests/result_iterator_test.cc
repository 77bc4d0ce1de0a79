// Streaming result iterators: pages must concatenate — bit-identically and
// without duplicates or gaps — to the full ranked answer of a one-shot
// top-k=|Fn| solve, ties at page boundaries must break by lowest partition
// id, and an open iterator must stay pinned to its serving state across
// concurrent mutations and compactions.

#include "src/service/result_iterator.h"

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

using testing_util::BuildTinyVenue;
using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::TinyVenue;
using testing_util::Unwrap;

ServiceOptions InlineOptions() {
  ServiceOptions options;
  options.num_workers = 0;
  options.compaction_threshold = 0;
  return options;
}

/// The full ranked answer over the iterator's own pinned state — exactly
/// what concatenating every page must reproduce.
std::vector<std::pair<PartitionId, double>> FullRanking(
    const ResultIterator& it, const std::vector<Client>& clients) {
  const ServingState& state = *it.state();
  IflsContext ctx;
  ctx.oracle = &state.snapshot->tree();
  ctx.existing = state.effective_existing;
  ctx.candidates = state.effective_candidates;
  ctx.clients = clients;
  EfficientOptions options;
  options.top_k = static_cast<int>(std::max<std::size_t>(
      1, state.effective_candidates.size()));
  return Unwrap(SolveEfficient(ctx, options)).ranked;
}

/// Drains the iterator with the given page size, checking the exhausted
/// flag on the way.
std::vector<std::pair<PartitionId, double>> DrainPages(ResultIterator* it,
                                                       std::size_t m) {
  std::vector<std::pair<PartitionId, double>> all;
  for (int guard = 0; guard < 10000; ++guard) {
    const ResultIterator::Page page = it->Next(m);
    all.insert(all.end(), page.items.begin(), page.items.end());
    if (page.exhausted) return all;
    EXPECT_LE(page.items.size(), m);
  }
  ADD_FAILURE() << "iterator never exhausted";
  return all;
}

class ResultIteratorPagingTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResultIteratorPagingTest, PagesConcatenateToFullRankingBitIdentical) {
  Rng rng(GetParam());
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  const FacilitySets sets = Unwrap(SelectUniformFacilities(
      venue, 2 + rng.NextBounded(3), 6 + rng.NextBounded(10), &rng));
  std::vector<Client> clients;
  const std::size_t num_clients = 5 + rng.NextBounded(15);
  for (std::size_t i = 0; i < num_clients; ++i) {
    clients.push_back(RandomClient(venue, &rng, static_cast<ClientId>(i)));
  }
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), sets.existing, sets.candidates, InlineOptions()));

  ServiceRequest request;
  request.clients = clients;
  std::unique_ptr<ResultIterator> it =
      Unwrap(service->OpenIterator(std::move(request)));
  const std::vector<std::pair<PartitionId, double>> reference =
      FullRanking(*it, clients);
  ASSERT_EQ(reference.size(), it->total_candidates());

  // Random page sizes; every entry appears exactly once, in ranked order,
  // with the bit-identical exact objective of the one-shot solve.
  std::vector<std::pair<PartitionId, double>> paged;
  while (!it->exhausted()) {
    const std::size_t m = 1 + rng.NextBounded(4);
    const ResultIterator::Page page = it->Next(m);
    ASSERT_LE(page.items.size(), m);
    paged.insert(paged.end(), page.items.begin(), page.items.end());
    ASSERT_EQ(paged.size(), it->emitted());
  }
  EXPECT_EQ(paged, reference);  // bit-identical, no dupes, no gaps

  // Exhausted iterators keep returning empty terminal pages.
  const ResultIterator::Page after = it->Next(3);
  EXPECT_TRUE(after.exhausted);
  EXPECT_TRUE(after.items.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResultIteratorPagingTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(ResultIteratorTest, TieAtPageBoundaryBreaksByLowestPartitionId) {
  // One client dead-center in the corridor, candidate rooms A and B with
  // doors symmetric around it: both candidates score exactly 5.0 and the
  // m=1 page boundary falls inside the tie.
  TinyVenue t = BuildTinyVenue();
  const PartitionId room_a = t.room_a;
  const PartitionId room_b = t.room_b;
  std::vector<Client> clients(1);
  clients[0].id = 0;
  clients[0].position = Point(15, 2, 0);
  clients[0].partition = t.corridor;
  std::unique_ptr<IflsService> service = Unwrap(
      IflsService::Create(std::move(t.venue), {t.room_d}, {room_a, room_b},
                          InlineOptions()));
  ServiceRequest request;
  request.clients = clients;
  std::unique_ptr<ResultIterator> it =
      Unwrap(service->OpenIterator(std::move(request)));

  const ResultIterator::Page first = it->Next(1);
  const ResultIterator::Page second = it->Next(1);
  ASSERT_EQ(first.items.size(), 1u);
  ASSERT_EQ(second.items.size(), 1u);
  EXPECT_EQ(first.items[0].second, second.items[0].second);  // the tie
  EXPECT_EQ(first.items[0].first, room_a);   // lowest id wins the boundary
  EXPECT_EQ(second.items[0].first, room_b);
  EXPECT_TRUE(second.exhausted);
}

TEST(ResultIteratorTest, ZeroClientsRanksAllCandidatesByIdAtZero) {
  // With no clients every candidate's objective is an empty max = 0.0: one
  // global tie, so the stream must emit the whole candidate set ascending
  // by partition id.
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(7);
  const FacilitySets sets =
      Unwrap(SelectUniformFacilities(venue, 2, 9, &rng));
  std::vector<PartitionId> expected = sets.candidates;
  std::sort(expected.begin(), expected.end());
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), sets.existing, sets.candidates, InlineOptions()));
  std::unique_ptr<ResultIterator> it =
      Unwrap(service->OpenIterator(ServiceRequest{}));
  const auto paged = DrainPages(it.get(), 2);
  ASSERT_EQ(paged.size(), expected.size());
  for (std::size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].first, expected[i]);
    EXPECT_EQ(paged[i].second, 0.0);
  }
}

TEST(ResultIteratorTest, EmptyCandidateSetExhaustsImmediately) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(8);
  const FacilitySets sets =
      Unwrap(SelectUniformFacilities(venue, 3, 1, &rng));
  std::vector<Client> clients = {RandomClient(venue, &rng, 0)};
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), sets.existing, {}, InlineOptions()));
  ServiceRequest request;
  request.clients = clients;
  std::unique_ptr<ResultIterator> it =
      Unwrap(service->OpenIterator(std::move(request)));
  EXPECT_EQ(it->total_candidates(), 0u);
  const ResultIterator::Page page = it->Next(5);
  EXPECT_TRUE(page.items.empty());
  EXPECT_TRUE(page.exhausted);
}

TEST(ResultIteratorTest, ZeroMPagePeeksWithoutConsuming) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(9);
  const FacilitySets sets =
      Unwrap(SelectUniformFacilities(venue, 2, 6, &rng));
  std::vector<Client> clients = {RandomClient(venue, &rng, 0),
                                 RandomClient(venue, &rng, 1)};
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), sets.existing, sets.candidates, InlineOptions()));
  ServiceRequest request;
  request.clients = clients;
  std::unique_ptr<ResultIterator> it =
      Unwrap(service->OpenIterator(std::move(request)));

  const ResultIterator::Page empty = it->Next(0);
  EXPECT_TRUE(empty.items.empty());
  EXPECT_FALSE(empty.exhausted);
  EXPECT_EQ(it->emitted(), 0u);
  // A zero-m probe must not have disturbed the stream.
  const auto paged = DrainPages(it.get(), 3);
  EXPECT_EQ(paged, FullRanking(*it, clients));
}

TEST(ResultIteratorTest, PinnedAcrossMutationAndCompaction) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(10);
  const FacilitySets sets =
      Unwrap(SelectUniformFacilities(venue, 2, 8, &rng));
  std::vector<Client> clients;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(RandomClient(venue, &rng, static_cast<ClientId>(i)));
  }
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), sets.existing, sets.candidates, InlineOptions()));

  ServiceRequest request;
  request.clients = clients;
  std::unique_ptr<ResultIterator> it =
      Unwrap(service->OpenIterator(std::move(request)));
  const std::vector<std::pair<PartitionId, double>> reference =
      FullRanking(*it, clients);
  EXPECT_EQ(it->version(), 0u);

  // Take the first page, then yank the top candidate out from under the
  // service and compact; the snapshot chain moves on, the iterator must not.
  const ResultIterator::Page first = it->Next(2);
  ASSERT_FALSE(first.items.empty());
  Mutation removal;
  removal.kind = MutationKind::kRemoveCandidate;
  removal.partition = reference.front().first;
  std::uint64_t version = 0;
  ASSERT_TRUE(service->Mutate(removal, &version).ok());
  EXPECT_EQ(version, 1u);
  ASSERT_TRUE(service->CompactNow().ok());
  EXPECT_GT(service->snapshot_epoch(), it->snapshot_epoch());

  std::vector<std::pair<PartitionId, double>> paged = first.items;
  const auto rest = DrainPages(it.get(), 3);
  paged.insert(paged.end(), rest.begin(), rest.end());
  EXPECT_EQ(paged, reference);  // still the pre-mutation ranking, in full

  // A freshly opened iterator sees the post-mutation world.
  ServiceRequest fresh_request;
  fresh_request.clients = clients;
  std::unique_ptr<ResultIterator> fresh =
      Unwrap(service->OpenIterator(std::move(fresh_request)));
  EXPECT_EQ(fresh->version(), 1u);
  EXPECT_EQ(fresh->total_candidates(), reference.size() - 1);
  const auto fresh_paged = DrainPages(fresh.get(), 4);
  for (const auto& entry : fresh_paged) {
    EXPECT_NE(entry.first, removal.partition);
  }
}

TEST(ResultIteratorTest, NonMinMaxObjectivesAreRejected) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(11);
  const FacilitySets sets =
      Unwrap(SelectUniformFacilities(venue, 2, 4, &rng));
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), sets.existing, sets.candidates, InlineOptions()));
  for (IflsObjective objective :
       {IflsObjective::kMinDist, IflsObjective::kMaxSum}) {
    ServiceRequest request;
    request.objective = objective;
    EXPECT_TRUE(service->OpenIterator(std::move(request))
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(ResultIteratorTest, StatsAccumulateAcrossPages) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(12);
  const FacilitySets sets =
      Unwrap(SelectUniformFacilities(venue, 2, 8, &rng));
  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(RandomClient(venue, &rng, static_cast<ClientId>(i)));
  }
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), sets.existing, sets.candidates, InlineOptions()));
  ServiceRequest request;
  request.clients = clients;
  std::unique_ptr<ResultIterator> it =
      Unwrap(service->OpenIterator(std::move(request)));
  (void)DrainPages(it.get(), 1);
  const QueryStats stats = it->stats();
  EXPECT_GT(stats.queue_pops, 0);
  EXPECT_GE(stats.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace ifls
