#include "mapreduce/skew.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace falcon {

std::vector<ReduceShard> SplitBlock(size_t block, size_t weight,
                                    size_t budget) {
  std::vector<ReduceShard> shards;
  if (weight == 0) return shards;
  if (budget == 0 || weight <= budget) {
    shards.push_back(ReduceShard{block, 0, weight});
    return shards;
  }
  // Even ranges: ceil(weight / budget) pieces of near-equal size, so the
  // last range is never a remainder sliver that wastes a task.
  const size_t pieces = (weight + budget - 1) / budget;
  const size_t base = weight / pieces;
  const size_t rem = weight % pieces;
  size_t begin = 0;
  for (size_t i = 0; i < pieces; ++i) {
    const size_t len = base + (i < rem ? 1 : 0);
    shards.push_back(ReduceShard{block, begin, begin + len});
    begin += len;
  }
  return shards;
}

size_t AutoPairBudget(size_t total_weight, size_t bins,
                      size_t oversubscribe) {
  bins = std::max<size_t>(bins, 1);
  oversubscribe = std::max<size_t>(oversubscribe, 1);
  const size_t tasks = bins * oversubscribe;
  return std::max<size_t>(1, (total_weight + tasks - 1) / tasks);
}

ShardPlan PlanReduceShards(const std::vector<size_t>& weights, size_t bins,
                           size_t budget, bool splittable) {
  ShardPlan plan;
  bins = std::max<size_t>(bins, 1);
  const size_t total =
      std::accumulate(weights.begin(), weights.end(), size_t{0});
  if (budget == 0) budget = AutoPairBudget(total, bins, /*oversubscribe=*/4);
  plan.budget = budget;

  // Canonical (block, range) order by construction; only splittable jobs
  // cut blocks heavier than the budget.
  for (size_t b = 0; b < weights.size(); ++b) {
    for (const ReduceShard& shard :
         SplitBlock(b, weights[b], splittable ? budget : 0)) {
      plan.shards.push_back(shard);
    }
  }
  plan.bin_of.assign(plan.shards.size(), 0);
  if (plan.shards.empty()) return plan;

  // Greedy largest-first (LPT): visit shards by descending load (ties in
  // canonical order), placing each on the least-loaded bin (ties on the
  // lowest bin index). A pure function of the inputs.
  std::vector<size_t> order(plan.shards.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return plan.shards[a].weight() > plan.shards[b].weight();
  });
  using Bin = std::pair<size_t, size_t>;  // (load, bin index)
  std::priority_queue<Bin, std::vector<Bin>, std::greater<Bin>> heap;
  for (size_t i = 0; i < bins; ++i) heap.push({0, i});
  std::vector<size_t> loads(bins, 0);
  for (size_t s : order) {
    auto [bin_load, bin] = heap.top();
    heap.pop();
    plan.bin_of[s] = bin;
    loads[bin] = bin_load + plan.shards[s].weight();
    heap.push({loads[bin], bin});
  }
  for (size_t bin_load : loads) {
    plan.max_bin_weight = std::max(plan.max_bin_weight, bin_load);
    if (bin_load > 0) ++plan.active_bins;
  }
  return plan;
}

double PlanStragglerRatio(const ShardPlan& plan,
                          const std::vector<size_t>& weights) {
  if (plan.active_bins == 0) return 1.0;
  const size_t total =
      std::accumulate(weights.begin(), weights.end(), size_t{0});
  const double mean =
      static_cast<double>(total) / static_cast<double>(plan.active_bins);
  if (mean <= 0.0) return 1.0;
  return static_cast<double>(plan.max_bin_weight) / mean;
}

}  // namespace falcon
