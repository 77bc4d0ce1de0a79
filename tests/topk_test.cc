// Top-k IFLS (extension beyond the paper): the efficient solver's ranked
// mode against the exhaustive top-k oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>

#include "src/core/brute_force.h"
#include "src/core/efficient.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

constexpr double kTol = 1e-7;

class TopKEnv {
 public:
  static TopKEnv& Get() {
    static TopKEnv* env = new TopKEnv();
    return *env;
  }
  const Venue& venue() const { return venue_; }
  const VipTree& tree() const { return *tree_; }

 private:
  TopKEnv() {
    venue_ = Unwrap(GenerateVenue(SmallVenueSpec()));
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_)));
  }
  Venue venue_;
  std::unique_ptr<VipTree> tree_;
};

IflsContext RandomContext(std::uint64_t seed, std::size_t num_existing,
                          std::size_t num_candidates,
                          std::size_t num_clients) {
  TopKEnv& env = TopKEnv::Get();
  Rng rng(seed);
  IflsContext ctx;
  ctx.oracle = &env.tree();
  FacilitySets sets = Unwrap(SelectUniformFacilities(
      env.venue(), num_existing, num_candidates, &rng));
  ctx.existing = std::move(sets.existing);
  ctx.candidates = std::move(sets.candidates);
  for (std::size_t i = 0; i < num_clients; ++i) {
    ctx.clients.push_back(
        RandomClient(env.venue(), &rng, static_cast<ClientId>(i)));
  }
  return ctx;
}

// gtest prints this parameter as a dump of its bytes, and ctest names each
// case after that dump. The padding is spelled out and zeroed so the names do
// not pick up stack garbage and stay the same from run to run.
struct TopKParam {
  std::uint64_t seed;
  std::size_t existing;
  std::size_t candidates;
  std::size_t clients;
  int k;
  std::int32_t pad = 0;
};
static_assert(std::has_unique_object_representations_v<TopKParam>,
              "TopKParam must have no implicit padding");

class TopKAgreementTest : public ::testing::TestWithParam<TopKParam> {};

TEST_P(TopKAgreementTest, RankedObjectivesMatchTheOracle) {
  const TopKParam p = GetParam();
  const IflsContext ctx =
      RandomContext(p.seed, p.existing, p.candidates, p.clients);
  const IflsResult oracle = Unwrap(SolveBruteForceTopKMinMax(ctx, p.k));
  EfficientOptions options;
  options.top_k = p.k;
  const IflsResult ranked = Unwrap(SolveEfficient(ctx, options));

  ASSERT_EQ(ranked.found, oracle.found);
  ASSERT_EQ(ranked.ranked.size(), oracle.ranked.size());
  for (std::size_t i = 0; i < ranked.ranked.size(); ++i) {
    // Ranked objective values must match position by position (candidate
    // ids may differ on exact ties).
    EXPECT_NEAR(ranked.ranked[i].second, oracle.ranked[i].second,
                kTol * std::max(1.0, oracle.ranked[i].second))
        << "rank " << i;
    // And each reported objective must be the candidate's true objective.
    EXPECT_NEAR(EvaluateMinMax(ctx, ranked.ranked[i].first),
                ranked.ranked[i].second,
                kTol * std::max(1.0, ranked.ranked[i].second))
        << "rank " << i;
  }
  if (ranked.found) {
    EXPECT_EQ(ranked.answer, ranked.ranked.front().first);
    EXPECT_DOUBLE_EQ(ranked.objective, ranked.ranked.front().second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrials, TopKAgreementTest,
    ::testing::Values(TopKParam{1101, 4, 10, 40, 3},
                      TopKParam{1102, 6, 12, 60, 5},
                      TopKParam{1103, 2, 8, 30, 2},
                      TopKParam{1104, 8, 15, 50, 4},
                      TopKParam{1105, 3, 6, 25, 6},
                      TopKParam{1106, 5, 20, 70, 10},
                      TopKParam{1107, 1, 5, 20, 3},
                      TopKParam{1108, 10, 10, 80, 7}));

TEST(TopKEdgeTest, KLargerThanCandidateCountReturnsAll) {
  const IflsContext ctx = RandomContext(1201, 4, 5, 30);
  EfficientOptions options;
  options.top_k = 50;
  const IflsResult ranked = Unwrap(SolveEfficient(ctx, options));
  const IflsResult oracle = Unwrap(SolveBruteForceTopKMinMax(ctx, 50));
  EXPECT_EQ(ranked.ranked.size(), ctx.candidates.size());
  ASSERT_EQ(oracle.ranked.size(), ctx.candidates.size());
  for (std::size_t i = 0; i < ranked.ranked.size(); ++i) {
    EXPECT_NEAR(ranked.ranked[i].second, oracle.ranked[i].second, kTol);
  }
}

TEST(TopKEdgeTest, RankedListIsSortedAscending) {
  const IflsContext ctx = RandomContext(1202, 5, 15, 45);
  EfficientOptions options;
  options.top_k = 8;
  const IflsResult ranked = Unwrap(SolveEfficient(ctx, options));
  for (std::size_t i = 1; i < ranked.ranked.size(); ++i) {
    EXPECT_LE(ranked.ranked[i - 1].second, ranked.ranked[i].second + kTol);
  }
}

TEST(TopKEdgeTest, KOneMatchesPlainSolve) {
  const IflsContext ctx = RandomContext(1203, 4, 9, 35);
  EfficientOptions options;
  options.top_k = 1;
  const IflsResult plain = Unwrap(SolveEfficient(ctx));
  const IflsResult single = Unwrap(SolveEfficient(ctx, options));
  EXPECT_EQ(plain.found, single.found);
  if (plain.found) {
    EXPECT_NEAR(EvaluateMinMax(ctx, plain.answer),
                EvaluateMinMax(ctx, single.answer), kTol);
  }
}

TEST(TopKEdgeTest, EmptyCandidates) {
  IflsContext ctx = RandomContext(1204, 4, 5, 20);
  ctx.candidates.clear();
  EfficientOptions options;
  options.top_k = 3;
  const IflsResult ranked = Unwrap(SolveEfficient(ctx, options));
  EXPECT_FALSE(ranked.found);
  EXPECT_TRUE(ranked.ranked.empty());
  EXPECT_TRUE(SolveBruteForceTopKMinMax(ctx, 0).status().IsInvalidArgument());
}

TEST(TopKEdgeTest, DistinctCandidatesInRanking) {
  const IflsContext ctx = RandomContext(1205, 6, 12, 40);
  EfficientOptions options;
  options.top_k = 6;
  const IflsResult ranked = Unwrap(SolveEfficient(ctx, options));
  std::set<PartitionId> unique;
  for (const auto& [n, obj] : ranked.ranked) unique.insert(n);
  EXPECT_EQ(unique.size(), ranked.ranked.size());
}

}  // namespace
}  // namespace ifls
