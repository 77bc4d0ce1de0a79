#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/efficient.h"
#include "src/core/maxsum.h"
#include "src/core/minmax_baseline.h"
#include "src/core/mindist.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

constexpr double kTol = 1e-7;

/// Shared venue + tree across the whole file (index construction is the
/// expensive part).
class SolverEnv {
 public:
  static SolverEnv& Get() {
    static SolverEnv* env = new SolverEnv();
    return *env;
  }

  const Venue& venue() const { return venue_; }
  const VipTree& tree() const { return *tree_; }

 private:
  SolverEnv() {
    venue_ = Unwrap(GenerateVenue(SmallVenueSpec()));
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_)));
  }
  Venue venue_;
  std::unique_ptr<VipTree> tree_;
};

/// Draws a random context on the shared venue.
IflsContext RandomContext(std::uint64_t seed, std::size_t num_existing,
                          std::size_t num_candidates,
                          std::size_t num_clients) {
  SolverEnv& env = SolverEnv::Get();
  Rng rng(seed);
  IflsContext ctx;
  ctx.oracle = &env.tree();
  FacilitySets sets = Unwrap(SelectUniformFacilities(
      env.venue(), num_existing, num_candidates, &rng));
  ctx.existing = std::move(sets.existing);
  ctx.candidates = std::move(sets.candidates);
  ctx.clients.reserve(num_clients);
  for (std::size_t i = 0; i < num_clients; ++i) {
    ctx.clients.push_back(
        RandomClient(env.venue(), &rng, static_cast<ClientId>(i)));
  }
  return ctx;
}

/// Certifies a solver result against the brute-force optimum: a returned
/// answer must achieve the optimal objective (re-evaluated exactly); a
/// no-answer must mean no candidate improves the no-facility objective.
void Certify(const IflsContext& ctx, const IflsResult& result,
             const IflsResult& brute, const char* which) {
  if (result.found) {
    ASSERT_NE(result.answer, kInvalidPartition) << which;
    const double achieved = EvaluateMinMax(ctx, result.answer);
    ASSERT_TRUE(brute.found) << which << ": answer exists but oracle found "
                                          "no candidates";
    EXPECT_NEAR(achieved, brute.objective,
                kTol * std::max(1.0, brute.objective))
        << which << " returned a non-optimal candidate";
    // The reported objective is an upper bound no smaller than the truth
    // and never above the no-new-facility objective.
    EXPECT_GE(result.objective + kTol, achieved) << which;
    EXPECT_LE(result.objective,
              NoFacilityMinMax(ctx) + kTol) << which;
  } else if (brute.found) {
    // Declining to answer is only sound when nothing improves the
    // objective.
    const double f0 = NoFacilityMinMax(ctx);
    EXPECT_NEAR(brute.objective, f0, kTol * std::max(1.0, f0))
        << which << " found no answer but an improving candidate exists";
  }
}

struct TrialParam {
  std::uint64_t seed;
  std::size_t existing;
  std::size_t candidates;
  std::size_t clients;
};

class SolverAgreementTest : public ::testing::TestWithParam<TrialParam> {};

TEST_P(SolverAgreementTest, AllSolversAchieveTheOptimum) {
  const TrialParam p = GetParam();
  const IflsContext ctx =
      RandomContext(p.seed, p.existing, p.candidates, p.clients);
  const IflsResult brute = Unwrap(SolveBruteForceMinMax(ctx));
  const IflsResult baseline = Unwrap(SolveModifiedMinMax(ctx));
  const IflsResult efficient = Unwrap(SolveEfficient(ctx));
  Certify(ctx, baseline, brute, "baseline");
  Certify(ctx, efficient, brute, "efficient");
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrials, SolverAgreementTest,
    ::testing::Values(
        TrialParam{101, 3, 6, 30}, TrialParam{102, 5, 10, 50},
        TrialParam{103, 8, 12, 80}, TrialParam{104, 2, 4, 20},
        TrialParam{105, 6, 9, 40}, TrialParam{106, 4, 15, 60},
        TrialParam{107, 10, 5, 25}, TrialParam{108, 1, 20, 70},
        TrialParam{109, 12, 3, 35}, TrialParam{110, 7, 7, 45},
        TrialParam{111, 3, 18, 55}, TrialParam{112, 9, 11, 65},
        TrialParam{113, 1, 1, 10}, TrialParam{114, 15, 15, 90},
        TrialParam{115, 5, 5, 100}, TrialParam{116, 2, 12, 15}));

class EfficientVariantTest : public ::testing::TestWithParam<TrialParam> {};

TEST_P(EfficientVariantTest, AblationVariantsStayOptimal) {
  const TrialParam p = GetParam();
  const IflsContext ctx =
      RandomContext(p.seed, p.existing, p.candidates, p.clients);
  const IflsResult brute = Unwrap(SolveBruteForceMinMax(ctx));

  for (int mask = 0; mask < 16; ++mask) {
    EfficientOptions options;
    options.group_clients = (mask & 1) == 0;
    options.prune_clients = (mask & 2) == 0;
    options.skip_empty_subtrees = (mask & 4) == 0;
    options.reuse_group_distances = (mask & 8) == 0;
    const IflsResult result = Unwrap(SolveEfficient(ctx, options));
    SCOPED_TRACE("options mask " + std::to_string(mask));
    Certify(ctx, result, brute, "efficient-variant");
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrials, EfficientVariantTest,
                         ::testing::Values(TrialParam{201, 4, 8, 40},
                                           TrialParam{202, 6, 10, 60},
                                           TrialParam{203, 2, 5, 25}));

TEST(EfficientOnIpTreeTest, IpTreeIndexGivesSameAnswers) {
  SolverEnv& env = SolverEnv::Get();
  VipTreeOptions ip_options;
  ip_options.build_leaf_to_ancestor = false;
  VipTree ip_tree = Unwrap(VipTree::Build(&env.venue(), ip_options));
  for (std::uint64_t seed : {301u, 302u, 303u}) {
    IflsContext ctx = RandomContext(seed, 5, 8, 40);
    const IflsResult brute = Unwrap(SolveBruteForceMinMax(ctx));
    ctx.oracle = &ip_tree;
    const IflsResult result = Unwrap(SolveEfficient(ctx));
    Certify(ctx, result, brute, "efficient-on-ip-tree");
  }
}

// ------------------------------------------------------- Degenerate inputs

TEST(SolverDegenerateTest, EmptyCandidates) {
  IflsContext ctx = RandomContext(401, 4, 5, 20);
  ctx.candidates.clear();
  EXPECT_FALSE(Unwrap(SolveBruteForceMinMax(ctx)).found);
  EXPECT_FALSE(Unwrap(SolveModifiedMinMax(ctx)).found);
  EXPECT_FALSE(Unwrap(SolveEfficient(ctx)).found);
}

TEST(SolverDegenerateTest, EmptyClients) {
  IflsContext ctx = RandomContext(402, 4, 5, 20);
  ctx.clients.clear();
  const IflsResult brute = Unwrap(SolveBruteForceMinMax(ctx));
  EXPECT_TRUE(brute.found);
  EXPECT_DOUBLE_EQ(brute.objective, 0.0);
  const IflsResult baseline = Unwrap(SolveModifiedMinMax(ctx));
  EXPECT_TRUE(baseline.found);
  EXPECT_DOUBLE_EQ(baseline.objective, 0.0);
  // The efficient approach reports "no answer" for an empty client set
  // (paper: empty C means no client constrains the answer); every candidate
  // ties at objective 0, consistent with the oracle.
  const IflsResult efficient = Unwrap(SolveEfficient(ctx));
  if (efficient.found) {
    EXPECT_DOUBLE_EQ(EvaluateMinMax(ctx, efficient.answer), 0.0);
  }
}

TEST(SolverDegenerateTest, EmptyExistingFacilities) {
  IflsContext ctx = RandomContext(403, 4, 6, 30);
  ctx.existing.clear();
  const IflsResult brute = Unwrap(SolveBruteForceMinMax(ctx));
  const IflsResult baseline = Unwrap(SolveModifiedMinMax(ctx));
  const IflsResult efficient = Unwrap(SolveEfficient(ctx));
  ASSERT_TRUE(brute.found);
  Certify(ctx, baseline, brute, "baseline");
  Certify(ctx, efficient, brute, "efficient");
}

TEST(SolverDegenerateTest, AllClientsInsideExistingFacilities) {
  SolverEnv& env = SolverEnv::Get();
  IflsContext ctx = RandomContext(404, 4, 6, 0);
  // Place every client inside an existing facility: everyone is pruned at
  // distance zero and no candidate can improve anything.
  for (std::size_t i = 0; i < 10; ++i) {
    Client c;
    c.id = static_cast<ClientId>(i);
    c.partition = ctx.existing[i % ctx.existing.size()];
    c.position = env.venue().partition(c.partition).rect.center();
    ctx.clients.push_back(c);
  }
  const IflsResult efficient = Unwrap(SolveEfficient(ctx));
  EXPECT_FALSE(efficient.found);
  EXPECT_DOUBLE_EQ(efficient.objective, 0.0);
  EXPECT_EQ(efficient.stats.clients_pruned, 10);
}

TEST(SolverDegenerateTest, ClientInsideCandidateGetsZeroObjective) {
  SolverEnv& env = SolverEnv::Get();
  IflsContext ctx = RandomContext(405, 3, 5, 0);
  Client c;
  c.id = 0;
  c.partition = ctx.candidates.front();
  c.position = env.venue().partition(c.partition).rect.center();
  ctx.clients.push_back(c);
  const IflsResult efficient = Unwrap(SolveEfficient(ctx));
  ASSERT_TRUE(efficient.found);
  EXPECT_EQ(efficient.answer, ctx.candidates.front());
  EXPECT_DOUBLE_EQ(efficient.objective, 0.0);
}

TEST(SolverDegenerateTest, InvalidContextsAreRejected) {
  IflsContext ctx = RandomContext(406, 3, 5, 10);
  IflsContext bad = ctx;
  bad.existing.push_back(bad.candidates.front());  // overlap
  EXPECT_TRUE(SolveEfficient(bad).status().IsInvalidArgument());
  EXPECT_TRUE(SolveModifiedMinMax(bad).status().IsInvalidArgument());
  EXPECT_TRUE(SolveBruteForceMinMax(bad).status().IsInvalidArgument());

  bad = ctx;
  bad.existing.push_back(bad.existing.front());  // duplicate
  EXPECT_TRUE(SolveEfficient(bad).status().IsInvalidArgument());

  bad = ctx;
  bad.clients.front().position = Point(-1e6, -1e6, 0);  // outside partition
  EXPECT_TRUE(SolveEfficient(bad).status().IsInvalidArgument());

  bad = ctx;
  bad.oracle = nullptr;
  EXPECT_TRUE(SolveEfficient(bad).status().IsInvalidArgument());
}

// ----------------------------------------------------------------- Stats

TEST(SolverStatsTest, EfficientPrunesClientsAndTracksWork) {
  const IflsContext ctx = RandomContext(501, 8, 10, 100);
  const IflsResult result = Unwrap(SolveEfficient(ctx));
  const QueryStats& s = result.stats;
  EXPECT_GT(s.queue_pushes, 0);
  EXPECT_GT(s.queue_pops, 0);
  EXPECT_GT(s.facilities_retrieved, 0);
  EXPECT_GT(s.distance_computations, 0);
  EXPECT_GT(s.lower_bound_computations, 0);
  EXPECT_GT(s.clients_pruned, 0);
  EXPECT_GT(s.peak_memory_bytes, 0);
  EXPECT_GT(s.door_distance_evals, 0u);
  EXPECT_GE(s.elapsed_seconds, 0.0);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(SolverStatsTest, BaselineCountsNnSearches) {
  const IflsContext ctx = RandomContext(502, 5, 8, 60);
  const IflsResult result = Unwrap(SolveModifiedMinMax(ctx));
  EXPECT_EQ(result.stats.nn_searches,
            static_cast<std::int64_t>(ctx.clients.size()));
  EXPECT_GT(result.stats.peak_memory_bytes, 0);
}

TEST(SolverStatsTest, PruningReducesDistanceComputations) {
  const IflsContext ctx = RandomContext(503, 10, 10, 150);
  EfficientOptions with;
  EfficientOptions without;
  without.prune_clients = false;
  const IflsResult pruned = Unwrap(SolveEfficient(ctx, with));
  const IflsResult unpruned = Unwrap(SolveEfficient(ctx, without));
  EXPECT_LE(pruned.stats.distance_computations,
            unpruned.stats.distance_computations);
}

// ------------------------------------------------------ Work-counter pins

/// One pinned run: the answer, the objective's bit pattern and every
/// solver-level work counter. `kernels` is pinned for MinMax runs only
/// (-1 elsewhere).
struct WorkPin {
  const char* run;
  std::uint64_t seed;
  PartitionId answer;
  std::uint64_t objective_bits;
  std::int64_t pushes;
  std::int64_t pops;
  std::int64_t lower_bounds;
  std::int64_t distances;
  std::int64_t retrieved;
  std::int64_t pruned;
  std::int64_t check_list;
  std::int64_t check_answer;
  std::int64_t kernels;

  bool operator==(const WorkPin& o) const {
    return std::string(run) == o.run && seed == o.seed &&
           answer == o.answer && objective_bits == o.objective_bits &&
           pushes == o.pushes && pops == o.pops &&
           lower_bounds == o.lower_bounds && distances == o.distances &&
           retrieved == o.retrieved && pruned == o.pruned &&
           check_list == o.check_list && check_answer == o.check_answer &&
           kernels == o.kernels;
  }
};

std::ostream& operator<<(std::ostream& os, const WorkPin& p) {
  return os << "{\"" << p.run << "\", " << p.seed << ", " << p.answer
            << ", 0x" << std::hex << p.objective_bits << std::dec << "ull, "
            << p.pushes << ", " << p.pops << ", " << p.lower_bounds << ", "
            << p.distances << ", " << p.retrieved << ", " << p.pruned << ", "
            << p.check_list << ", " << p.check_answer << ", " << p.kernels
            << "}";
}

WorkPin MakePin(const char* run, std::uint64_t seed, PartitionId answer,
                double objective, const QueryStats& s, bool pin_kernels) {
  return {run,
          seed,
          answer,
          std::bit_cast<std::uint64_t>(objective),
          s.queue_pushes,
          s.queue_pops,
          s.lower_bound_computations,
          s.distance_computations,
          s.facilities_retrieved,
          s.clients_pruned,
          s.check_list_calls,
          s.check_answer_calls,
          pin_kernels ? static_cast<std::int64_t>(s.kernel_invocations) : -1};
}

/// Every pinned run of one seeded instance: MinMax with defaults, with each
/// ablation switch flipped and with top_k = 3; each page (size 1) of a
/// ranked stream with its cumulative stats; MinDist and MaxSum.
std::vector<WorkPin> PinnedRuns(std::uint64_t seed, std::size_t existing,
                                std::size_t candidates, std::size_t clients) {
  const IflsContext ctx = RandomContext(seed, existing, candidates, clients);
  std::vector<WorkPin> pins;
  const auto minmax = [&](const char* run, const EfficientOptions& options) {
    const IflsResult r = Unwrap(SolveEfficient(ctx, options));
    pins.push_back(MakePin(run, seed, r.answer, r.objective, r.stats, true));
  };
  EfficientOptions options;
  minmax("minmax", options);
  options.group_clients = false;
  minmax("minmax/ungrouped", options);
  options = {};
  options.prune_clients = false;
  minmax("minmax/unpruned", options);
  options = {};
  options.skip_empty_subtrees = false;
  minmax("minmax/no_skip", options);
  options = {};
  options.reuse_group_distances = false;
  minmax("minmax/no_reuse", options);
  options = {};
  options.top_k = 3;
  minmax("minmax/top3", options);

  static const char* const kPages[] = {"stream/1", "stream/2", "stream/3",
                                       "stream/4", "stream/5", "stream/6",
                                       "stream/7", "stream/8"};
  std::unique_ptr<RankedStream> stream = Unwrap(RankedStream::Open(ctx));
  for (const char* page_name : kPages) {
    if (stream->exhausted()) break;
    const RankedStream::Page page = stream->Next(1);
    const bool empty = page.items.empty();
    pins.push_back(MakePin(page_name, seed,
                           empty ? kInvalidPartition : page.items[0].first,
                           empty ? 0.0 : page.items[0].second, stream->stats(),
                           true));
  }

  const IflsResult mindist = Unwrap(SolveMinDist(ctx));
  pins.push_back(MakePin("mindist", seed, mindist.answer, mindist.objective,
                         mindist.stats, false));
  const IflsResult maxsum = Unwrap(SolveMaxSum(ctx));
  pins.push_back(MakePin("maxsum", seed, maxsum.answer, maxsum.objective,
                         maxsum.stats, false));
  return pins;
}

// The traversal's answers, objective bits and work counters per objective.
// A refactor of the retrieval core must leave every value unchanged.
const WorkPin kWorkPins[] = {
    {"minmax", 901, 26, 0x403b5cb613493ee3ull, 376, 270, 340, 177, 132, 48, 268, 121, 2332},
    {"minmax/ungrouped", 901, 26, 0x403b5cb613493ee3ull, 567, 413, 513, 213, 131, 48, 409, 121, 3432},
    {"minmax/unpruned", 901, 26, 0x403b5cb613493ee3ull, 463, 310, 423, 206, 190, 48, 306, 121, 2800},
    {"minmax/no_skip", 901, 26, 0x403b5cb613493ee3ull, 1080, 744, 1044, 176, 131, 48, 740, 121, 5775},
    {"minmax/no_reuse", 901, 26, 0x403b5cb613493ee3ull, 376, 270, 340, 214, 132, 48, 268, 121, 2216},
    {"minmax/top3", 901, 19, 0x403b5cb613493ee3ull, 379, 324, 343, 429, 147, 60, 268, 132, 3413},
    {"stream/1", 901, 19, 0x403b5cb613493ee3ull, 376, 270, 340, 177, 132, 48, 268, 121, 2332},
    {"stream/2", 901, 26, 0x403b5cb613493ee3ull, 376, 270, 340, 177, 132, 48, 268, 121, 2332},
    {"stream/3", 901, 3, 0x4049fac27c642927ull, 379, 324, 343, 429, 147, 60, 268, 132, 3413},
    {"stream/4", 901, 10, 0x4049fac27c642927ull, 379, 324, 343, 429, 147, 60, 268, 132, 3413},
    {"stream/5", 901, 12, 0x4049fac27c642927ull, 379, 324, 343, 429, 147, 60, 268, 132, 3413},
    {"stream/6", 901, 44, 0x4049fac27c642927ull, 379, 324, 343, 429, 147, 60, 268, 132, 3413},
    {"mindist", 901, 19, 0x4086d2473ba62c18ull, 376, 270, 340, 81, 132, 48, 0, 271, -1},
    {"maxsum", 901, 3, 0x402e000000000000ull, 379, 324, 343, 93, 147, 60, 0, 325, -1},
    {"minmax", 902, -1, 0x404b43100eb78987ull, 430, 384, 391, 79, 182, 90, 384, 130, 2114},
    {"minmax/ungrouped", 902, -1, 0x404b43100eb78987ull, 843, 753, 765, 161, 183, 90, 753, 130, 3619},
    {"minmax/unpruned", 902, -1, 0x404b43100eb78987ull, 749, 661, 705, 347, 737, 90, 661, 130, 5825},
    {"minmax/no_skip", 902, -1, 0x404b43100eb78987ull, 990, 892, 951, 79, 182, 90, 892, 130, 4160},
    {"minmax/no_reuse", 902, -1, 0x404b43100eb78987ull, 430, 384, 391, 160, 182, 90, 384, 130, 1990},
    {"minmax/top3", 902, 4, 0x404b43100eb78987ull, 430, 384, 391, 529, 182, 90, 384, 130, 3628},
    {"stream/1", 902, 4, 0x404b43100eb78987ull, 430, 384, 391, 529, 182, 90, 384, 130, 3628},
    {"stream/2", 902, 11, 0x404b43100eb78987ull, 430, 384, 391, 529, 182, 90, 384, 130, 3628},
    {"stream/3", 902, 12, 0x404b43100eb78987ull, 430, 384, 391, 529, 182, 90, 384, 130, 3628},
    {"stream/4", 902, 33, 0x404b43100eb78987ull, 430, 384, 391, 529, 182, 90, 384, 130, 3628},
    {"stream/5", 902, 46, 0x404b43100eb78987ull, 430, 384, 391, 529, 182, 90, 384, 130, 3628},
    {"mindist", 902, 46, 0x4092da06b06bd08dull, 430, 384, 391, 79, 182, 90, 0, 385, -1},
    {"maxsum", 902, 12, 0x4020000000000000ull, 430, 384, 391, 79, 182, 90, 0, 385, -1},
    {"minmax", 903, 37, 0x40490d86adce15bdull, 374, 311, 345, 84, 130, 27, 209, 114, 2498},
    {"minmax/ungrouped", 903, 37, 0x40490d86adce15bdull, 532, 449, 488, 122, 129, 27, 311, 114, 3775},
    {"minmax/unpruned", 903, 37, 0x40490d86adce15bdull, 453, 373, 423, 143, 219, 27, 216, 114, 3140},
    {"minmax/no_skip", 903, 37, 0x40490d86adce15bdull, 1074, 899, 1045, 82, 128, 27, 515, 114, 6166},
    {"minmax/no_reuse", 903, 37, 0x40490d86adce15bdull, 374, 311, 345, 123, 130, 27, 209, 114, 2537},
    {"minmax/top3", 903, 37, 0x40490d86adce15bdull, 405, 349, 376, 178, 142, 30, 209, 134, 3343},
    {"stream/1", 903, 37, 0x40490d86adce15bdull, 374, 311, 345, 139, 130, 28, 209, 119, 2670},
    {"stream/2", 903, 45, 0x4049b2e52784b3eeull, 374, 311, 345, 139, 130, 28, 209, 119, 2670},
    {"stream/3", 903, 40, 0x4050407420b06850ull, 405, 349, 376, 178, 142, 32, 209, 136, 3343},
    {"stream/4", 903, 35, 0x40517fdf97b7a83cull, 414, 360, 385, 212, 144, 32, 209, 138, 3444},
    {"stream/5", 903, 10, 0x4059815d2a62216aull, 418, 393, 389, 265, 164, 42, 209, 159, 3668},
    {"stream/6", 903, 21, 0x405bffdf97b7a83cull, 419, 402, 390, 356, 166, 45, 209, 161, 4042},
    {"stream/7", 903, 26, 0x405bffdf97b7a83cull, 419, 402, 390, 356, 166, 45, 209, 161, 4042},
    {"mindist", 903, 45, 0x40883b5d9c6f8f43ull, 374, 311, 345, 84, 130, 28, 0, 312, -1},
    {"maxsum", 903, 10, 0x403f000000000000ull, 418, 393, 389, 106, 164, 42, 0, 394, -1},
};

TEST(SolverWorkPinTest, AnswersObjectivesAndCountersArePinned) {
  std::vector<WorkPin> got;
  for (const TrialParam& p :
       {TrialParam{901, 4, 6, 60}, TrialParam{902, 8, 5, 90},
        TrialParam{903, 2, 7, 45}}) {
    for (const WorkPin& pin :
         PinnedRuns(p.seed, p.existing, p.candidates, p.clients)) {
      got.push_back(pin);
    }
  }
  ASSERT_EQ(got.size(), std::size(kWorkPins));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kWorkPins[i]) << "row " << i;
  }
}

TEST(SolverStatsTest, OfflineIndexReuseMatchesOwnedIndex) {
  const IflsContext ctx = RandomContext(504, 5, 8, 40);
  FacilityIndex offline(ctx.oracle, ctx.existing);
  MinMaxBaselineOptions options;
  options.offline_existing_index = &offline;
  const IflsResult with_offline = Unwrap(SolveModifiedMinMax(ctx, options));
  const IflsResult owned = Unwrap(SolveModifiedMinMax(ctx));
  EXPECT_EQ(with_offline.found, owned.found);
  if (owned.found) {
    EXPECT_NEAR(EvaluateMinMax(ctx, with_offline.answer),
                EvaluateMinMax(ctx, owned.answer), kTol);
  }
}

}  // namespace
}  // namespace ifls
