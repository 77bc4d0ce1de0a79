#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/core/brute_force.h"
#include "src/core/maxsum.h"
#include "src/core/mindist.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

constexpr double kTol = 1e-7;

class ExtensionEnv {
 public:
  static ExtensionEnv& Get() {
    static ExtensionEnv* env = new ExtensionEnv();
    return *env;
  }
  const Venue& venue() const { return venue_; }
  const VipTree& tree() const { return *tree_; }

 private:
  ExtensionEnv() {
    venue_ = Unwrap(GenerateVenue(SmallVenueSpec()));
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_)));
  }
  Venue venue_;
  std::unique_ptr<VipTree> tree_;
};

IflsContext RandomContext(std::uint64_t seed, std::size_t num_existing,
                          std::size_t num_candidates,
                          std::size_t num_clients) {
  ExtensionEnv& env = ExtensionEnv::Get();
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

struct TrialParam {
  std::uint64_t seed;
  std::size_t existing;
  std::size_t candidates;
  std::size_t clients;
};

class MinDistAgreementTest : public ::testing::TestWithParam<TrialParam> {};

TEST_P(MinDistAgreementTest, MatchesBruteForceOptimum) {
  const TrialParam p = GetParam();
  const IflsContext ctx =
      RandomContext(p.seed, p.existing, p.candidates, p.clients);
  const IflsResult brute = Unwrap(SolveBruteForceMinDist(ctx));
  const IflsResult result = Unwrap(SolveMinDist(ctx));
  ASSERT_EQ(result.found, brute.found);
  if (!result.found) return;
  // The solver's answer must achieve the optimal total, and its reported
  // objective must be that exact total.
  const double achieved = EvaluateMinDist(ctx, result.answer);
  EXPECT_NEAR(achieved, brute.objective,
              kTol * std::max(1.0, brute.objective));
  EXPECT_NEAR(result.objective, achieved, kTol * std::max(1.0, achieved));
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrials, MinDistAgreementTest,
    ::testing::Values(TrialParam{601, 3, 6, 30}, TrialParam{602, 5, 10, 50},
                      TrialParam{603, 8, 12, 70}, TrialParam{604, 2, 4, 20},
                      TrialParam{605, 6, 9, 40}, TrialParam{606, 1, 15, 60},
                      TrialParam{607, 12, 5, 25}, TrialParam{608, 4, 8, 80}));

class MaxSumAgreementTest : public ::testing::TestWithParam<TrialParam> {};

TEST_P(MaxSumAgreementTest, MatchesBruteForceOptimum) {
  const TrialParam p = GetParam();
  const IflsContext ctx =
      RandomContext(p.seed, p.existing, p.candidates, p.clients);
  const IflsResult brute = Unwrap(SolveBruteForceMaxSum(ctx));
  const IflsResult result = Unwrap(SolveMaxSum(ctx));
  ASSERT_EQ(result.found, brute.found);
  if (!result.found) return;
  const double achieved = EvaluateMaxSum(ctx, result.answer);
  EXPECT_NEAR(achieved, brute.objective, 1e-9);
  EXPECT_NEAR(result.objective, achieved, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrials, MaxSumAgreementTest,
    ::testing::Values(TrialParam{701, 3, 6, 30}, TrialParam{702, 5, 10, 50},
                      TrialParam{703, 8, 12, 70}, TrialParam{704, 2, 4, 20},
                      TrialParam{705, 6, 9, 40}, TrialParam{706, 1, 15, 60},
                      TrialParam{707, 12, 5, 25}, TrialParam{708, 4, 8, 80}));

TEST(ExtensionDegenerateTest, EmptyCandidates) {
  IflsContext ctx = RandomContext(801, 4, 5, 20);
  ctx.candidates.clear();
  EXPECT_FALSE(Unwrap(SolveMinDist(ctx)).found);
  EXPECT_FALSE(Unwrap(SolveMaxSum(ctx)).found);
}

TEST(ExtensionDegenerateTest, EmptyClientsEveryCandidateTies) {
  IflsContext ctx = RandomContext(802, 4, 5, 20);
  ctx.clients.clear();
  const IflsResult mindist = Unwrap(SolveMinDist(ctx));
  ASSERT_TRUE(mindist.found);
  EXPECT_DOUBLE_EQ(mindist.objective, 0.0);
  const IflsResult maxsum = Unwrap(SolveMaxSum(ctx));
  ASSERT_TRUE(maxsum.found);
  EXPECT_DOUBLE_EQ(maxsum.objective, 0.0);
}

TEST(ExtensionDegenerateTest, NoExistingFacilities) {
  IflsContext ctx = RandomContext(803, 0, 6, 30);
  ctx.existing.clear();
  const IflsResult brute_md = Unwrap(SolveBruteForceMinDist(ctx));
  const IflsResult mindist = Unwrap(SolveMinDist(ctx));
  ASSERT_TRUE(mindist.found);
  EXPECT_NEAR(EvaluateMinDist(ctx, mindist.answer), brute_md.objective,
              kTol * std::max(1.0, brute_md.objective));
  // MaxSum with no existing facilities: every client is won by any
  // candidate (distance < infinity), so the optimum is |C|.
  const IflsResult maxsum = Unwrap(SolveMaxSum(ctx));
  ASSERT_TRUE(maxsum.found);
  EXPECT_DOUBLE_EQ(maxsum.objective, static_cast<double>(ctx.clients.size()));
}

TEST(ExtensionStatsTest, WorkCountersPopulated) {
  const IflsContext ctx = RandomContext(804, 6, 8, 60);
  const IflsResult result = Unwrap(SolveMinDist(ctx));
  EXPECT_GT(result.stats.queue_pops, 0);
  EXPECT_GT(result.stats.facilities_retrieved, 0);
  EXPECT_GT(result.stats.peak_memory_bytes, 0);
}

}  // namespace
}  // namespace ifls
