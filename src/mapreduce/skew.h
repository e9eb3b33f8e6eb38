// Skew-aware shuffle planning: pair-range splitting of hot blocks plus
// greedy largest-first bin packing of reduce work onto partitions.
//
// The stable FNV shuffle assigns each key to partition hash(key) % R. That
// is the right default — stateless, deterministic, byte-stable across
// platforms — but it has the classic production failure mode of parallel
// entity matching: one hot block (a frequent token, a high-fanout record)
// lands on a single reduce task and the whole stage waits on the straggler.
// "Data Partitioning for Parallel Entity Matching" and "Parallel Sorted
// Neighborhood Blocking with MapReduce" both solve this with block-size
// profiling plus pair-range splitting; this module is that plan step.
//
// The planner consumes the exact per-block weights the engine already has
// after the map-side merge (bucket sizes, i.e. candidate-pair counts for the
// blocking jobs) and produces:
//
//   1. Shards — each block becomes one shard, except blocks heavier than the
//      pair budget, which are split into contiguous [begin, end) value
//      ranges of at most `budget` pairs each (only when the job declared its
//      reduce function splittable).
//   2. An assignment of shards onto R bins via greedy largest-first (LPT)
//      bin packing, the same heuristic the virtual-clock makespan model
//      uses, so the plan optimizes exactly the metric the simulator reports.
//
// Determinism: shards are ordered by (block, range) — the canonical order —
// and every tie in the packing is broken by lowest bin index then lowest
// shard index, so the plan is a pure function of (weights, budget, bins).
// The engine concatenates shard outputs in canonical order, which for a
// splittable reduce function reproduces the unsplit output byte for byte.
#ifndef FALCON_MAPREDUCE_SKEW_H_
#define FALCON_MAPREDUCE_SKEW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace falcon {

/// One unit of reduce work: values [begin, end) of block `block`. Unsplit
/// blocks have begin == 0 and end == their full weight.
struct ReduceShard {
  size_t block = 0;
  size_t begin = 0;
  size_t end = 0;

  size_t weight() const { return end - begin; }
  bool whole_block() const { return begin == 0; }

  bool operator==(const ReduceShard& o) const {
    return block == o.block && begin == o.begin && end == o.end;
  }
};

/// The complete skew-aware shuffle plan for one reduce phase.
struct ShardPlan {
  /// Shards in canonical (block, range) order.
  std::vector<ReduceShard> shards;
  /// shard index -> bin (reduce task) index, parallel to `shards`.
  std::vector<size_t> bin_of;
  /// Number of bins that received at least one shard.
  size_t active_bins = 0;
  /// The pair budget the plan was cut against (after auto-derivation).
  size_t budget = 0;
  /// Heaviest single bin, in pairs — the stage's critical path.
  size_t max_bin_weight = 0;
};

/// Splits one block of `weight` values into contiguous ranges of at most
/// `budget` values each, sized as evenly as possible (the last range is
/// never a remainder sliver). weight == 0 produces no ranges; budget == 0 is
/// treated as "unsplittable" and yields the whole block as one range.
std::vector<ReduceShard> SplitBlock(size_t block, size_t weight,
                                    size_t budget);

/// Derives the auto pair budget: the largest of (a) total weight spread over
/// `oversubscribe * bins` tasks and (b) a floor of 1, so splitting stops
/// paying once blocks are already fine-grained.
size_t AutoPairBudget(size_t total_weight, size_t bins, size_t oversubscribe);

/// Plans the reduce phase over per-block weights. Blocks heavier than
/// `budget` are pair-range split when `splittable` is true (otherwise every
/// block is a single shard regardless of weight); shards are then packed
/// onto `bins` partitions greedy largest-first. `budget` == 0 derives the
/// auto budget. Zero-weight blocks produce no shards (they have no values
/// to reduce, matching the engine's skip of empty partitions).
ShardPlan PlanReduceShards(const std::vector<size_t>& weights, size_t bins,
                           size_t budget, bool splittable);

/// max/mean load ratio of the plan's bins (1.0 when perfectly balanced or
/// when the plan is empty). The straggler ratio the bench reports.
double PlanStragglerRatio(const ShardPlan& plan,
                          const std::vector<size_t>& weights);

}  // namespace falcon

#endif  // FALCON_MAPREDUCE_SKEW_H_
