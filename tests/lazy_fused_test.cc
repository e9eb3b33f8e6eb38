// Property tests pinning the fused matching stage to eager evaluation:
// LazyPairFeatures must reproduce ComputeVector bitwise (including NaN
// missing values, with and without bound token stores), and
// ApplyMatcherFused must predict exactly what RandomForest::Predict does on
// each pair's full ComputeVector.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "core/apply_matcher.h"
#include "core/gen_fvs.h"
#include "learn/random_forest.h"
#include "rules/feature.h"
#include "workload/generator.h"

namespace falcon {
namespace {

ClusterConfig FastCluster(int threads = 1) {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  c.local_threads = threads;
  return c;
}

GeneratedDataset DirtyProducts(uint64_t seed = 11) {
  WorkloadOptions opt;
  opt.size_a = 120;
  opt.size_b = 150;
  opt.seed = seed;
  opt.missing_rate = 0.1;  // exercise the NaN-missing memoization
  return GenerateProducts(opt);
}

std::vector<PairQuestion> RandomPairs(const GeneratedDataset& d, size_t n,
                                      Rng* rng) {
  std::vector<PairQuestion> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(
        static_cast<RowId>(rng->NextBelow(d.a.num_rows())),
        static_cast<RowId>(rng->NextBelow(d.b.num_rows())));
  }
  return pairs;
}

/// Bitwise equality with NaN == NaN (what "memoized missing value" means).
bool SameValue(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b;
}

// Lazy evaluation must reproduce the materialized vector bitwise, for every
// position, under arbitrary access order, with repeated reads stable and
// the computed counter tracking distinct positions only.
void CheckLazyAgainstEager(const GeneratedDataset& d, const FeatureSet& fs) {
  const std::vector<int>& ids = fs.all_ids();
  Rng rng(93);
  auto pairs = RandomPairs(d, 200, &rng);
  LazyPairFeatures lazy;  // one instance across pairs, like the fused job
  size_t nan_seen = 0;
  for (const auto& [ra, rb] : pairs) {
    FeatureVec eager = fs.ComputeVector(ids, d.a, ra, d.b, rb);
    ASSERT_EQ(eager.size(), ids.size());
    lazy.Begin(&fs, &ids, &d.a, ra, &d.b, rb);
    EXPECT_EQ(lazy.computed_count(), 0);

    // Random access order over a random subset, with duplicates.
    std::vector<int> order(ids.size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    size_t subset = 1 + rng.NextBelow(ids.size());
    order.resize(subset);
    for (int rep = 0; rep < 2; ++rep) {
      for (int pos : order) {
        double got = lazy.Get(pos);
        EXPECT_TRUE(SameValue(got, eager[pos]))
            << "pos=" << pos << " lazy=" << got << " eager=" << eager[pos];
        if (std::isnan(got)) ++nan_seen;
      }
      // Second sweep re-reads memoized values: the counter must not grow.
      EXPECT_EQ(lazy.computed_count(), static_cast<int>(subset));
    }
  }
  // The workload's missing_rate guarantees the NaN path actually ran.
  EXPECT_GT(nan_seen, 0u);
}

TEST(LazyPairFeaturesTest, MatchesComputeVectorUnbound) {
  auto d = DirtyProducts();
  auto fs = FeatureSet::Generate(d.a, d.b);
  CheckLazyAgainstEager(d, fs);
}

TEST(LazyPairFeaturesTest, MatchesComputeVectorWithBoundTokenStores) {
  auto d = DirtyProducts();
  auto fs = FeatureSet::Generate(d.a, d.b);
  Cluster cluster(FastCluster());
  IndexCatalog catalog;
  IndexBuilder builder(&d.a, &cluster);
  builder.EnsureTokenStores(d.b, fs, &catalog);
  fs.BindTokenStores(catalog.mutable_store(&d.a), catalog.mutable_store(&d.b));
  CheckLazyAgainstEager(d, fs);
  fs.BindTokenStores(nullptr, nullptr);
}

TEST(LazyPairFeaturesTest, CountsEachPositionOncePerPair) {
  auto d = DirtyProducts(17);
  auto fs = FeatureSet::Generate(d.a, d.b);
  const std::vector<int>& ids = fs.all_ids();
  LazyPairFeatures lazy;
  lazy.Begin(&fs, &ids, &d.a, 0, &d.b, 0);
  for (int rep = 0; rep < 3; ++rep) lazy.Get(0);
  EXPECT_EQ(lazy.computed_count(), 1);
  lazy.Get(1);
  EXPECT_EQ(lazy.computed_count(), 2);
  // A new pair invalidates the cache in O(1); the counter resets.
  lazy.Begin(&fs, &ids, &d.a, 1, &d.b, 1);
  EXPECT_EQ(lazy.computed_count(), 0);
  double v = lazy.Get(0);
  EXPECT_EQ(lazy.computed_count(), 1);
  EXPECT_TRUE(SameValue(v, fs.Compute(ids[0], d.a, 1, d.b, 1)));
}

/// Trains a matcher forest on a labeled sample of the workload's pairs.
RandomForest TrainMatcher(const GeneratedDataset& d, const FeatureSet& fs,
                          Cluster* cluster, Rng* rng) {
  auto train_pairs = RandomPairs(d, 300, rng);
  // Bias the sample toward matches so both classes are represented.
  for (uint64_t key : d.truth.keys()) {
    train_pairs.emplace_back(static_cast<RowId>(key >> 32),
                             static_cast<RowId>(key & 0xFFFFFFFFu));
    if (train_pairs.size() >= 500) break;
  }
  auto fvs = GenFvs(d.a, d.b, train_pairs, fs, fs.all_ids(), cluster);
  std::vector<char> labels;
  labels.reserve(train_pairs.size());
  for (const auto& [a, b] : train_pairs) {
    labels.push_back(d.truth.IsMatch(a, b) ? 1 : 0);
  }
  return RandomForest::Train(fvs.fvs, labels, ForestOptions{}, rng);
}

// The fused apply must agree with full-vote prediction over materialized
// vectors on 100% of pairs, while doing strictly less feature work than full
// materialization.
TEST(ApplyMatcherFusedTest, PredictionsIdenticalToEagerPath) {
  auto d = DirtyProducts(29);
  auto fs = FeatureSet::Generate(d.a, d.b);
  Cluster cluster(FastCluster());
  Rng rng(5);
  RandomForest matcher = TrainMatcher(d, fs, &cluster, &rng);
  // Layout positions any split tests: the most a pair can compute lazily.
  std::vector<char> tested(fs.all_ids().size(), 0);
  for (const auto& tree : matcher.trees()) {
    for (const TreeNode& n : tree.nodes()) {
      if (!n.is_leaf) tested[n.feature] = 1;
    }
  }
  const uint64_t used_features =
      static_cast<uint64_t>(std::count(tested.begin(), tested.end(), 1));
  const uint64_t width = fs.all_ids().size();
  const uint64_t num_trees = matcher.num_trees();
  ASSERT_LE(used_features, width);

  auto pairs = RandomPairs(d, 2000, &rng);
  std::vector<char> eager;
  eager.reserve(pairs.size());
  for (const auto& [ra, rb] : pairs) {
    FeatureVec fv = fs.ComputeVector(fs.all_ids(), d.a, ra, d.b, rb);
    eager.push_back(matcher.Predict(fv) ? 1 : 0);
  }
  auto fused =
      ApplyMatcherFused(d.a, d.b, pairs, fs, fs.all_ids(), matcher, &cluster);

  ASSERT_EQ(fused.predictions.size(), pairs.size());
  EXPECT_EQ(fused.predictions, eager);

  const uint64_t n = pairs.size();
  // Lazy evaluation: never more work than materializing every vector, and
  // bounded by the forest's used-feature set.
  const uint64_t features_computed =
      fused.counters[Counter::kFeaturesComputed];
  EXPECT_LT(features_computed, n * width);
  EXPECT_LE(features_computed, n * used_features);
  EXPECT_GT(features_computed, 0u);
  // Short-circuit voting: strictly fewer tree traversals than T per pair on
  // a decided majority (every unanimous vote exits at ceil(T/2) or earlier
  // than T), never more.
  const uint64_t trees_voted = fused.counters[Counter::kTreesVoted];
  EXPECT_LE(trees_voted, n * num_trees);
  EXPECT_GT(trees_voted, 0u);
  EXPECT_GT(fused.time.seconds, 0.0);
}

// The full vote's predictions and the same counters regardless of the
// cluster's local thread count: the map tasks write disjoint prediction slots
// and each task's counts are charged to the job exactly. Run under
// FALCON_SANITIZE=thread this also makes TSan exercise the fused job's
// sharing discipline.
TEST(ApplyMatcherFusedTest, DeterministicAcrossThreadCounts) {
  auto d = DirtyProducts(31);
  auto fs = FeatureSet::Generate(d.a, d.b);
  Rng rng(7);
  Cluster train_cluster(FastCluster());
  RandomForest matcher = TrainMatcher(d, fs, &train_cluster, &rng);
  auto pairs = RandomPairs(d, 1500, &rng);
  std::vector<char> eager;
  eager.reserve(pairs.size());
  for (const auto& [ra, rb] : pairs) {
    FeatureVec fv = fs.ComputeVector(fs.all_ids(), d.a, ra, d.b, rb);
    eager.push_back(matcher.Predict(fv) ? 1 : 0);
  }

  auto run = [&](int threads) {
    Cluster cluster(FastCluster(threads));
    return ApplyMatcherFused(d.a, d.b, pairs, fs, fs.all_ids(), matcher,
                             &cluster);
  };
  auto serial = run(1);
  auto wide = run(4);
  EXPECT_EQ(serial.predictions, eager);
  EXPECT_EQ(wide.predictions, serial.predictions);
  EXPECT_EQ(wide.counters[Counter::kFeaturesComputed],
            serial.counters[Counter::kFeaturesComputed]);
  EXPECT_EQ(wide.counters[Counter::kTreesVoted],
            serial.counters[Counter::kTreesVoted]);
}

}  // namespace
}  // namespace falcon
