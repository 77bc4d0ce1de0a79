// The retrieval core's per-pop bookkeeping (src/core/retrieval.h): the count
// histogram behind any_exact() and uncollected_exact() must give a full
// recount's verdict at every point of a traversal, under every ablation
// switch and under ranked collection, and the solvers built on it must keep
// agreeing with brute force. Clients sit on small integer
// coordinates of a few shared partitions, so distances and counts tie.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/efficient.h"
#include "src/core/maxsum.h"
#include "src/core/mindist.h"
#include "src/core/retrieval.h"
#include "src/datasets/presets.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::Unwrap;

constexpr double kTol = 1e-7;

/// One preset venue and its tree per process.
class PresetEnv {
 public:
  static PresetEnv& Get(VenuePreset preset) {
    static PresetEnv* envs[4] = {};
    const int idx = static_cast<int>(preset);
    if (envs[idx] == nullptr) envs[idx] = new PresetEnv(preset);
    return *envs[idx];
  }
  const Venue& venue() const { return venue_; }
  const VipTree& tree() const { return *tree_; }

 private:
  explicit PresetEnv(VenuePreset preset) {
    venue_ = Unwrap(BuildPresetVenue(preset));
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_)));
  }
  Venue venue_;
  std::unique_ptr<VipTree> tree_;
};

/// A client at one of the first three integer coordinates (per axis) of a
/// non-stairwell partition drawn from `pool`.
Client IntegerClient(const Venue& venue,
                     const std::vector<PartitionId>& pool, Rng* rng,
                     ClientId id) {
  for (;;) {
    const PartitionId pid = pool[rng->NextBounded(pool.size())];
    const Partition& p = venue.partition(pid);
    const double x0 = std::ceil(p.rect.min_x);
    const double y0 = std::ceil(p.rect.min_y);
    const double nx = std::floor(p.rect.max_x) - x0 + 1;
    const double ny = std::floor(p.rect.max_y) - y0 + 1;
    if (nx < 1 || ny < 1) continue;
    Client c;
    c.id = id;
    c.partition = pid;
    c.position = Point(
        x0 + static_cast<double>(rng->NextBounded(
                 static_cast<std::uint64_t>(std::min(3.0, nx)))),
        y0 + static_cast<double>(rng->NextBounded(
                 static_cast<std::uint64_t>(std::min(3.0, ny)))),
        p.level());
    return c;
  }
}

/// A seeded instance: clients crowd a pool of a dozen rooms, so groups hold
/// several clients and many stand on the same point.
IflsContext TieHeavyContext(VenuePreset preset, std::uint64_t seed) {
  PresetEnv& env = PresetEnv::Get(preset);
  const Venue& venue = env.venue();
  Rng rng(seed);
  IflsContext ctx;
  ctx.oracle = &env.tree();
  FacilitySets sets = Unwrap(SelectUniformFacilities(
      venue, 4 + rng.NextBounded(8), 8 + rng.NextBounded(16), &rng));
  ctx.existing = std::move(sets.existing);
  ctx.candidates = std::move(sets.candidates);
  std::vector<PartitionId> pool;
  while (pool.size() < 12) {
    const auto pid =
        static_cast<PartitionId>(rng.NextBounded(venue.num_partitions()));
    if (venue.partition(pid).kind != PartitionKind::kStairwell) {
      pool.push_back(pid);
    }
  }
  const std::size_t num_clients = 30 + rng.NextBounded(50);
  for (std::size_t i = 0; i < num_clients; ++i) {
    ctx.clients.push_back(
        IntegerClient(venue, pool, &rng, static_cast<ClientId>(i)));
  }
  return ctx;
}

/// An objective that, at every hook, compares the core's any_exact() and
/// uncollected_exact() with a recount over counts(), alive_count() and
/// collected(). With a `collect_limit` it collects like ranked MinMax
/// (src/core/efficient.cc): an event's candidate once exact, every exact
/// candidate after a prune, and it decides once `collect_limit` are in.
class RecountObjective {
 public:
  explicit RecountObjective(std::size_t collect_limit = 0)
      : collect_limit_(collect_limit) {}

  void Attach(internal::RetrievalCore<RecountObjective>* core) {
    core_ = core;
  }

  bool done() const {
    return collect_limit_ > 0 && collected_ >= collect_limit_;
  }
  void OnCandidateEvent(std::size_t ord, double /*dist*/) {
    Check();
    if (collect_limit_ > 0 && !done() &&
        core_->counts()[ord] == core_->alive_count() &&
        !core_->collected(ord)) {
      core_->Collect(ord);
      ++collected_;
    }
  }
  // Mid-rollback a collected candidate's count may still be one above
  // alive_count(), so only any_exact() is defined here.
  void OnPrunedCandidate(std::size_t /*ord*/, double /*dist*/,
                         bool /*counted*/, double /*nef*/) {
    Check(/*between_prunes=*/false);
  }
  void OnPrune(std::uint32_t /*ci*/, double /*nef*/) {
    Check();
    if (collect_limit_ == 0 || done()) return;
    for (std::size_t i = 0; i < core_->counts().size(); ++i) {
      if (core_->counts()[i] == core_->alive_count() &&
          !core_->collected(i)) {
        core_->Collect(i);
        ++collected_;
      }
    }
  }

  void Check(bool between_prunes = true) {
    bool exact = false;
    std::int64_t uncollected_exact = 0;
    const auto& counts = core_->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != core_->alive_count()) continue;
      exact = true;
      if (!core_->collected(i)) ++uncollected_exact;
    }
    ++checks_;
    if (exact) ++exact_;
    if (core_->any_exact() != exact) ++mismatches_;
    if (!between_prunes) return;
    if (exact && uncollected_exact == 0) ++all_collected_;
    if (core_->uncollected_exact() != uncollected_exact) ++mismatches_;
  }

  std::int64_t checks() const { return checks_; }
  std::int64_t exact() const { return exact_; }
  /// Checks where some candidate was exact but every exact one collected:
  /// the state in which a ranked answer scan returns early.
  std::int64_t all_collected() const { return all_collected_; }
  std::int64_t mismatches() const { return mismatches_; }
  std::size_t collected() const { return collected_; }

 private:
  internal::RetrievalCore<RecountObjective>* core_ = nullptr;
  const std::size_t collect_limit_;
  std::size_t collected_ = 0;
  std::int64_t checks_ = 0;
  std::int64_t exact_ = 0;
  std::int64_t all_collected_ = 0;
  std::int64_t mismatches_ = 0;
};

/// Runs the traversal (to exhaustion, or until the objective decides) with
/// checks after every Step + ProcessEvents, and returns the objective's
/// tallies.
RecountObjective DriveCore(const IflsContext& ctx,
                           const EfficientOptions& options,
                           std::size_t collect_limit = 0) {
  QueryStats stats;
  RecountObjective objective(collect_limit);
  internal::RetrievalCore<RecountObjective> core(ctx, options, &stats,
                                                 &objective);
  objective.Attach(&core);
  core.Setup();
  core.ProcessEvents(0.0);
  objective.Check();
  core.SeedQueue();
  while (!objective.done() && !core.exhausted()) {
    core.Step();
    core.ProcessEvents(core.gd());
    objective.Check();
  }
  if (!objective.done()) core.Flush();
  objective.Check();
  return objective;
}

std::vector<std::pair<std::string, EfficientOptions>> AblationVariants() {
  std::vector<std::pair<std::string, EfficientOptions>> variants;
  variants.emplace_back("defaults", EfficientOptions{});
  EfficientOptions o;
  o.group_clients = false;
  variants.emplace_back("ungrouped", o);
  o = {};
  o.prune_clients = false;
  variants.emplace_back("unpruned", o);
  o = {};
  o.skip_empty_subtrees = false;
  variants.emplace_back("no_skip", o);
  o = {};
  o.reuse_group_distances = false;
  variants.emplace_back("no_reuse", o);
  return variants;
}

struct BookkeepingParam {
  VenuePreset preset;
  std::uint64_t seed;
};

void PrintTo(const BookkeepingParam& p, std::ostream* os) {
  *os << VenuePresetName(p.preset) << "/seed " << p.seed;
}

std::string ParamName(const ::testing::TestParamInfo<BookkeepingParam>& info) {
  return std::string(VenuePresetName(info.param.preset)) + "_seed" +
         std::to_string(info.param.seed);
}

class RetrievalBookkeepingTest
    : public ::testing::TestWithParam<BookkeepingParam> {};

TEST_P(RetrievalBookkeepingTest, AnyExactMatchesRecountEverywhere) {
  const IflsContext ctx = TieHeavyContext(GetParam().preset, GetParam().seed);
  for (const auto& [name, options] : AblationVariants()) {
    SCOPED_TRACE(name);
    const RecountObjective tally = DriveCore(ctx, options);
    EXPECT_EQ(tally.mismatches(), 0) << "of " << tally.checks() << " checks";
    // Both verdicts occur, so the comparison tests something.
    EXPECT_GT(tally.exact(), 0);
    EXPECT_LT(tally.exact(), tally.checks());
  }
}

TEST_P(RetrievalBookkeepingTest, UncollectedExactMatchesRecountWhenRanked) {
  const IflsContext ctx = TieHeavyContext(GetParam().preset, GetParam().seed);
  // top_k = 3 stops after three; a ranked stream collects every candidate
  // (its pauses between pages leave the core untouched).
  for (const std::size_t limit : {std::size_t{3}, ctx.candidates.size()}) {
    for (const auto& [name, options] : AblationVariants()) {
      SCOPED_TRACE(name + " limit " + std::to_string(limit));
      const RecountObjective tally = DriveCore(ctx, options, limit);
      EXPECT_EQ(tally.mismatches(), 0) << "of " << tally.checks() << " checks";
      EXPECT_GT(tally.collected(), 0u);
      // The early-out state occurs, so the new count is exercised.
      EXPECT_GT(tally.all_collected(), 0);
    }
  }
}

TEST_P(RetrievalBookkeepingTest, SolversAgreeWithBruteForce) {
  const IflsContext ctx = TieHeavyContext(GetParam().preset, GetParam().seed);

  const IflsResult mindist = Unwrap(SolveMinDist(ctx));
  const IflsResult mindist_brute = Unwrap(SolveBruteForceMinDist(ctx));
  ASSERT_EQ(mindist.found, mindist_brute.found);
  if (mindist.found) {
    EXPECT_NEAR(mindist.objective, mindist_brute.objective,
                kTol * std::max(1.0, mindist_brute.objective));
    EXPECT_NEAR(EvaluateMinDist(ctx, mindist.answer), mindist_brute.objective,
                kTol * std::max(1.0, mindist_brute.objective));
  }

  const IflsResult maxsum = Unwrap(SolveMaxSum(ctx));
  const IflsResult maxsum_brute = Unwrap(SolveBruteForceMaxSum(ctx));
  ASSERT_EQ(maxsum.found, maxsum_brute.found);
  if (maxsum.found) {
    EXPECT_EQ(maxsum.objective, maxsum_brute.objective);
    EXPECT_EQ(EvaluateMaxSum(ctx, maxsum.answer), maxsum_brute.objective);
  }

  // Ranked MinMax: objectives position by position (ids may differ on
  // exact ties), each the candidate's true objective.
  const auto expect_ranking = [&ctx](
      const std::vector<std::pair<PartitionId, double>>& got,
      const std::vector<std::pair<PartitionId, double>>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double tol = kTol * std::max(1.0, want[i].second);
      EXPECT_NEAR(got[i].second, want[i].second, tol) << "rank " << i;
      EXPECT_NEAR(EvaluateMinMax(ctx, got[i].first), got[i].second, tol)
          << "rank " << i;
    }
  };
  EfficientOptions top3;
  top3.top_k = 3;
  expect_ranking(Unwrap(SolveEfficient(ctx, top3)).ranked,
                 Unwrap(SolveBruteForceTopKMinMax(ctx, 3)).ranked);

  // A ranked stream paged in sizes 1..3 reproduces the one-shot full
  // ranking bit for bit, and that ranking agrees with brute force.
  const int all = static_cast<int>(ctx.candidates.size());
  EfficientOptions full;
  full.top_k = all;
  const std::vector<std::pair<PartitionId, double>> one_shot =
      Unwrap(SolveEfficient(ctx, full)).ranked;
  expect_ranking(one_shot, Unwrap(SolveBruteForceTopKMinMax(ctx, all)).ranked);
  std::unique_ptr<RankedStream> stream = Unwrap(RankedStream::Open(ctx));
  std::vector<std::pair<PartitionId, double>> paged;
  for (std::size_t m = 1; !stream->exhausted(); m = m % 3 + 1) {
    const RankedStream::Page page = stream->Next(m);
    ASSERT_LE(page.items.size(), m);
    paged.insert(paged.end(), page.items.begin(), page.items.end());
  }
  EXPECT_EQ(paged, one_shot);
}

INSTANTIATE_TEST_SUITE_P(
    TieHeavyInstances, RetrievalBookkeepingTest,
    ::testing::Values(BookkeepingParam{VenuePreset::kMelbourneCentral, 1},
                      BookkeepingParam{VenuePreset::kMelbourneCentral, 2},
                      BookkeepingParam{VenuePreset::kMelbourneCentral, 3},
                      BookkeepingParam{VenuePreset::kCopenhagenAirport, 4},
                      BookkeepingParam{VenuePreset::kCopenhagenAirport, 5},
                      BookkeepingParam{VenuePreset::kCopenhagenAirport, 6}),
    ParamName);

}  // namespace
}  // namespace ifls
