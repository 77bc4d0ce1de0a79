// Experiment A1 — ablation of the efficient approach's design choices
// (DESIGN.md §3.3) on synthetic Melbourne Central at default parameters:
//   full            — all optimizations (the paper's algorithm)
//   -grouping       — one traversal stream per client instead of per
//                     partition
//   -pruning        — Lemma 5.1 off (clients keep receiving distances)
//   -subtree-skip   — facility-free subtrees and partitions are enqueued
//   -group dist reuse — no shared per-door base distances within a group
//                     (every client pays a full distance computation)
//   + door memo     — both algorithms on an index with the door-distance
//                     memo (engineering extension, DESIGN.md §3.3b)
//   top-down NN     — the modified MinMax baseline (per-client top-down NN
//                     search) as the reference point
// A second table measures the efficient approach's memory on Menzies
// Building (MZB) at the paper's default |C| = 10k, grouped and ungrouped,
// where the traversal's visited bits take groups x (nodes + partitions)
// bits (DESIGN.md §3.3).
// All variants return optimal answers; only cost changes.

#include <cstdio>
#include <iostream>

#include "src/benchlib/harness.h"
#include "src/benchlib/table.h"
#include "src/core/efficient.h"
#include "src/core/minmax_baseline.h"

int main() {
  using namespace ifls;
  const BenchScale scale = BenchScale::FromEnv();
  std::printf(
      "# A1: ablation of the efficient approach (MC synthetic, scale=%s, "
      "%d repeats)\n\n",
      scale.name.c_str(), scale.repeats);

  VenueCache cache;
  const Venue& venue = cache.venue(VenuePreset::kMelbourneCentral, false);
  const VipTree& tree = cache.tree(VenuePreset::kMelbourneCentral, false);
  const ParameterGrid grid =
      PresetParameterGrid(VenuePreset::kMelbourneCentral);

  WorkloadSpec spec;
  spec.preset = VenuePreset::kMelbourneCentral;
  spec.num_existing = grid.default_existing;
  spec.num_candidates = grid.default_candidates;
  spec.num_clients = scale.Clients(kDefaultClients);

  struct Variant {
    const char* label;
    EfficientOptions options;
  };
  EfficientOptions full;
  EfficientOptions no_group = full;
  no_group.group_clients = false;
  EfficientOptions no_prune = full;
  no_prune.prune_clients = false;
  EfficientOptions no_skip = full;
  no_skip.skip_empty_subtrees = false;
  EfficientOptions no_reuse = full;
  no_reuse.reuse_group_distances = false;
  const Variant variants[] = {
      {"full", full},           {"-grouping", no_group},
      {"-pruning", no_prune},   {"-subtree-skip", no_skip},
      {"-group dist reuse", no_reuse},
  };

  TextTable table({"variant", "time (s)", "mem (MB)", "dist comps",
                   "queue pushes", "clients pruned"});
  // One row: the efficient approach with `options`, averaged over the
  // repeats of `spec` on (venue, tree). False when a solve fails.
  const auto efficient_row = [&scale](TextTable* out, const char* label,
                                      const Venue& on_venue,
                                      const VipTree& on_tree,
                                      const WorkloadSpec& on_spec,
                                      const EfficientOptions& options) {
    double time = 0, mem = 0;
    long long dist = 0, pushes = 0, pruned = 0;
    for (int r = 0; r < scale.repeats; ++r) {
      Rng rng(1 + static_cast<std::uint64_t>(r));
      IflsContext ctx;
      ctx.oracle = &on_tree;
      Result<FacilitySets> sets = MakeFacilities(on_venue, on_spec, &rng);
      if (!sets.ok()) {
        std::fprintf(stderr, "%s\n", sets.status().ToString().c_str());
        return false;
      }
      ctx.existing = sets->existing;
      ctx.candidates = sets->candidates;
      ctx.clients = MakeClients(on_venue, on_spec, &rng);
      Result<IflsResult> result = SolveEfficient(ctx, options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return false;
      }
      time += result->stats.elapsed_seconds;
      mem += static_cast<double>(result->stats.peak_memory_bytes) / (1 << 20);
      dist += result->stats.distance_computations;
      pushes += result->stats.queue_pushes;
      pruned += result->stats.clients_pruned;
    }
    const double n = scale.repeats;
    out->AddRow({label, TextTable::Num(time / n), TextTable::Num(mem / n),
                 TextTable::Int(dist / scale.repeats),
                 TextTable::Int(pushes / scale.repeats),
                 TextTable::Int(pruned / scale.repeats)});
    return true;
  };
  for (const Variant& v : variants) {
    if (!efficient_row(&table, v.label, venue, tree, spec, v.options)) {
      return 1;
    }
  }

  // Engineering extension beyond the paper: both algorithms on an index
  // with the door-distance memo enabled (DESIGN.md §3.2 discussion). The
  // memo mostly helps the baseline — it removes exactly the per-client
  // redundancy that the efficient approach's grouping eliminates
  // algorithmically.
  VipTreeOptions memo_options;
  memo_options.enable_door_distance_cache = true;
  Result<VipTree> memo_tree_result = VipTree::Build(&venue, memo_options);
  if (!memo_tree_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 memo_tree_result.status().ToString().c_str());
    return 1;
  }
  const VipTree& memo_tree = *memo_tree_result;
  for (const bool use_baseline : {false, true}) {
    double time = 0, mem = 0;
    long long dist = 0, pushes = 0, pruned = 0;
    for (int r = 0; r < scale.repeats; ++r) {
      memo_tree.ClearDistanceCache();  // cold per query, like the others
      Rng rng(1 + static_cast<std::uint64_t>(r));
      IflsContext ctx;
      ctx.oracle = &memo_tree;
      Result<FacilitySets> sets = MakeFacilities(venue, spec, &rng);
      if (!sets.ok()) return 1;
      ctx.existing = sets->existing;
      ctx.candidates = sets->candidates;
      ctx.clients = MakeClients(venue, spec, &rng);
      Result<IflsResult> result = use_baseline ? SolveModifiedMinMax(ctx)
                                               : SolveEfficient(ctx);
      if (!result.ok()) return 1;
      time += result->stats.elapsed_seconds;
      mem += static_cast<double>(result->stats.peak_memory_bytes) / (1 << 20);
      dist += result->stats.distance_computations;
      pushes += result->stats.queue_pushes;
      pruned += result->stats.clients_pruned;
    }
    const double n = scale.repeats;
    table.AddRow({use_baseline ? "baseline + door memo" : "full + door memo",
                  TextTable::Num(time / n), TextTable::Num(mem / n),
                  TextTable::Int(dist / scale.repeats),
                  TextTable::Int(pushes / scale.repeats),
                  use_baseline ? "-" : TextTable::Int(pruned / scale.repeats)});
  }

  // Reference: the per-client top-down NN baseline.
  {
    double time = 0, mem = 0;
    long long dist = 0, pushes = 0;
    for (int r = 0; r < scale.repeats; ++r) {
      Rng rng(1 + static_cast<std::uint64_t>(r));
      IflsContext ctx;
      ctx.oracle = &tree;
      Result<FacilitySets> sets = MakeFacilities(venue, spec, &rng);
      if (!sets.ok()) return 1;
      ctx.existing = sets->existing;
      ctx.candidates = sets->candidates;
      ctx.clients = MakeClients(venue, spec, &rng);
      FacilityIndex offline(&tree, ctx.existing);
      MinMaxBaselineOptions options;
      options.offline_existing_index = &offline;
      Result<IflsResult> result = SolveModifiedMinMax(ctx, options);
      if (!result.ok()) return 1;
      time += result->stats.elapsed_seconds;
      mem += static_cast<double>(result->stats.peak_memory_bytes) / (1 << 20);
      dist += result->stats.distance_computations;
      pushes += result->stats.queue_pushes;
    }
    const double n = scale.repeats;
    table.AddRow({"top-down NN baseline", TextTable::Num(time / n),
                  TextTable::Num(mem / n),
                  TextTable::Int(dist / scale.repeats),
                  TextTable::Int(pushes / scale.repeats), "-"});
  }
  table.Print(&std::cout);

  const Venue& mzb_venue = cache.venue(VenuePreset::kMenziesBuilding, false);
  const VipTree& mzb_tree = cache.tree(VenuePreset::kMenziesBuilding, false);
  const ParameterGrid mzb_grid =
      PresetParameterGrid(VenuePreset::kMenziesBuilding);
  WorkloadSpec mzb_spec;
  mzb_spec.preset = VenuePreset::kMenziesBuilding;
  mzb_spec.num_existing = mzb_grid.default_existing;
  mzb_spec.num_candidates = mzb_grid.default_candidates;
  mzb_spec.num_clients = kDefaultClients;
  std::printf(
      "\n# EA memory on MZB at |C| = %zu (%zu nodes + %zu partitions)\n\n",
      mzb_spec.num_clients, mzb_tree.num_nodes(),
      mzb_venue.num_partitions());
  TextTable mzb_table({"variant", "time (s)", "mem (MB)", "dist comps",
                       "queue pushes", "clients pruned"});
  if (!efficient_row(&mzb_table, "full", mzb_venue, mzb_tree, mzb_spec,
                     full) ||
      !efficient_row(&mzb_table, "-grouping", mzb_venue, mzb_tree, mzb_spec,
                     no_group)) {
    return 1;
  }
  mzb_table.Print(&std::cout);
  return 0;
}
