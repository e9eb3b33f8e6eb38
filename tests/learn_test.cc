#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "learn/decision_tree.h"
#include "learn/random_forest.h"

namespace falcon {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Linearly separable 2D data: label = (x0 > 0.5).
void MakeSeparable(size_t n, std::vector<FeatureVec>* x,
                   std::vector<char>* y, Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    double a = rng->NextDouble();
    double b = rng->NextDouble();
    x->push_back({a, b});
    y->push_back(a > 0.5 ? 1 : 0);
  }
}

TEST(DecisionTreeTest, LearnsSeparableData) {
  Rng rng(7);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  MakeSeparable(400, &x, &y, &rng);
  auto tree = DecisionTree::Train(x, y, {}, TreeOptions{}, &rng);
  size_t correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    correct += tree.Predict(x[i]) == (y[i] != 0);
  }
  EXPECT_GT(static_cast<double>(correct) / x.size(), 0.98);
  EXPECT_GT(tree.num_leaves(), 1u);
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  Rng rng(3);
  std::vector<FeatureVec> x = {{1.0}, {2.0}, {3.0}};
  std::vector<char> y = {1, 1, 1};
  auto tree = DecisionTree::Train(x, y, {}, TreeOptions{}, &rng);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_TRUE(tree.Predict({99.0}));
}

TEST(DecisionTreeTest, EmptyTrainingPredictsNegative) {
  Rng rng(3);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  auto tree = DecisionTree::Train(x, y, {}, TreeOptions{}, &rng);
  EXPECT_FALSE(tree.Predict({1.0}));
}

TEST(DecisionTreeTest, MaxDepthRespected) {
  Rng rng(11);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  // XOR-ish data that wants depth.
  for (int i = 0; i < 500; ++i) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    x.push_back({a, b});
    y.push_back(((a > 0.5) ^ (b > 0.5)) ? 1 : 0);
  }
  TreeOptions opts;
  opts.max_depth = 1;
  auto tree = DecisionTree::Train(x, y, {}, opts, &rng);
  EXPECT_LE(tree.num_leaves(), 2u);
}

TEST(DecisionTreeTest, NanRoutedToMajorityBranch) {
  Rng rng(5);
  // Feature 0 separates; most training mass is on the high side.
  std::vector<FeatureVec> x;
  std::vector<char> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({0.1});
    y.push_back(0);
  }
  for (int i = 0; i < 80; ++i) {
    x.push_back({0.9});
    y.push_back(1);
  }
  TreeOptions opts;
  opts.max_thresholds = 8;
  auto tree = DecisionTree::Train(x, y, {}, opts, &rng);
  // NaN goes with the larger (positive) side.
  EXPECT_TRUE(tree.Predict({kNaN}));
}

TEST(DecisionTreeTest, LeafMetadataFilled) {
  Rng rng(5);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  MakeSeparable(200, &x, &y, &rng);
  auto tree = DecisionTree::Train(x, y, {}, TreeOptions{}, &rng);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf) {
      EXPECT_GT(node.support, 0u);
      EXPECT_GE(node.purity, 0.5);
      EXPECT_LE(node.purity, 1.0);
    } else {
      EXPECT_GE(node.feature, 0);
      EXPECT_GE(node.left, 0);
      EXPECT_GE(node.right, 0);
    }
  }
}

TEST(DecisionTreeTest, DeterministicForSameSeed) {
  std::vector<FeatureVec> x;
  std::vector<char> y;
  {
    Rng rng(42);
    MakeSeparable(300, &x, &y, &rng);
  }
  Rng r1(9);
  Rng r2(9);
  TreeOptions opts;
  opts.features_per_split = 1;
  auto t1 = DecisionTree::Train(x, y, {}, opts, &r1);
  auto t2 = DecisionTree::Train(x, y, {}, opts, &r2);
  ASSERT_EQ(t1.nodes().size(), t2.nodes().size());
  for (size_t i = 0; i < t1.nodes().size(); ++i) {
    EXPECT_EQ(t1.nodes()[i].feature, t2.nodes()[i].feature);
    EXPECT_EQ(t1.nodes()[i].threshold, t2.nodes()[i].threshold);
  }
}

TEST(RandomForestTest, LearnsAndVotes) {
  Rng rng(13);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  MakeSeparable(500, &x, &y, &rng);
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  EXPECT_EQ(forest.num_trees(), 10u);
  size_t correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    correct += forest.Predict(x[i]) == (y[i] != 0);
  }
  EXPECT_GT(static_cast<double>(correct) / x.size(), 0.97);
}

TEST(RandomForestTest, PositiveFractionBounds) {
  Rng rng(17);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  MakeSeparable(300, &x, &y, &rng);
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  for (double v : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double p = forest.PositiveFraction({v, 0.5});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Far from the boundary the committee is confident.
  EXPECT_GT(forest.PositiveFraction({0.99, 0.5}), 0.9);
  EXPECT_LT(forest.PositiveFraction({0.01, 0.5}), 0.1);
}

TEST(RandomForestTest, DisagreementPeaksNearBoundary) {
  Rng rng(19);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  MakeSeparable(600, &x, &y, &rng);
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  double at_boundary = forest.Disagreement({0.5, 0.5});
  double far_away = forest.Disagreement({0.95, 0.5});
  EXPECT_GE(at_boundary, far_away);
  EXPECT_GE(at_boundary, 0.0);
  EXPECT_LE(at_boundary, 1.0);
  // A unanimous committee has zero entropy.
  if (forest.PositiveFraction({0.99, 0.5}) == 1.0) {
    EXPECT_DOUBLE_EQ(forest.Disagreement({0.99, 0.5}), 0.0);
  }
}

TEST(RandomForestTest, BaggingProducesDiverseTrees) {
  Rng rng(23);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  // Noisy labels so bootstrap samples differ meaningfully.
  for (int i = 0; i < 400; ++i) {
    double a = rng.NextDouble();
    x.push_back({a, rng.NextDouble()});
    y.push_back((a > 0.5) == !rng.Bernoulli(0.2) ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  // At least one probe point where trees disagree.
  bool any_disagreement = false;
  for (double v = 0.05; v < 1.0; v += 0.05) {
    double p = forest.PositiveFraction({v, 0.5});
    if (p > 0.0 && p < 1.0) any_disagreement = true;
  }
  EXPECT_TRUE(any_disagreement);
}

TEST(RandomForestTest, EmptyForestPredictsNegative) {
  RandomForest forest;
  EXPECT_FALSE(forest.Predict({1.0}));
  EXPECT_DOUBLE_EQ(forest.PositiveFraction({1.0}), 0.0);
}

/// A single-leaf tree with a constant prediction.
DecisionTree ConstantTree(bool prediction) {
  TreeNode leaf;
  leaf.is_leaf = true;
  leaf.prediction = prediction;
  return DecisionTree::FromNodes({leaf});
}

/// A forest of `pos` always-match trees followed by `neg` always-no trees.
RandomForest ConstantForest(int pos, int neg) {
  std::vector<DecisionTree> trees;
  for (int i = 0; i < pos; ++i) trees.push_back(ConstantTree(true));
  for (int i = 0; i < neg; ++i) trees.push_back(ConstantTree(false));
  return RandomForest(std::move(trees));
}

TEST(RandomForestTest, EvenTreeCountTieBreaksToMatch) {
  // Documented tie behavior: Predict is PositiveFraction >= 0.5, so an
  // exact 50/50 split of an even-sized committee predicts "match".
  for (int half : {1, 2, 5}) {
    RandomForest tied = ConstantForest(half, half);
    EXPECT_DOUBLE_EQ(tied.PositiveFraction({}), 0.5);
    EXPECT_TRUE(tied.Predict({})) << "tie with " << 2 * half << " trees";
    // One vote short of the tie is a "no".
    RandomForest minority = ConstantForest(half - 1, half + 1);
    EXPECT_FALSE(minority.Predict({}));
  }
}

// RandomForest::PredictWith, the short-circuit vote apply_matcher uses,
// pinned to the full vote of RandomForest::Predict. The FlatForestTest names
// are kept from the compiled copy of the forest this vote used to run on.

/// PredictWith over a materialized vector.
bool VoteWith(const RandomForest& forest, const FeatureVec& fv,
              int* trees_voted = nullptr) {
  return forest.PredictWith([&fv](int pos) { return fv[pos]; }, trees_voted);
}

/// Feature positions any split of `forest` tests, ascending.
std::vector<int> UsedFeatures(const RandomForest& forest) {
  std::vector<int> used;
  for (const auto& tree : forest.trees()) {
    for (const TreeNode& n : tree.nodes()) {
      if (!n.is_leaf) used.push_back(n.feature);
    }
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

TEST(FlatForestTest, ReproducesTieBreakExactly) {
  for (int pos = 0; pos <= 4; ++pos) {
    for (int neg = 0; neg <= 4; ++neg) {
      RandomForest forest = ConstantForest(pos, neg);
      EXPECT_EQ(VoteWith(forest, {}), forest.Predict({}))
          << pos << " match votes of " << pos + neg;
    }
  }
}

TEST(FlatForestTest, CompileIsEquivalentAndPredictsIdentically) {
  Rng rng(29);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  // Noisy data so trees disagree and NaN routing matters.
  for (int i = 0; i < 400; ++i) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    x.push_back({a, b, rng.NextDouble()});
    y.push_back((a > 0.5) == !rng.Bernoulli(0.15) ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  // The splits test a subset of the training feature positions.
  std::vector<int> used = UsedFeatures(forest);
  EXPECT_FALSE(used.empty());
  for (int f : used) {
    EXPECT_GE(f, 0);
    EXPECT_LT(f, 3);
  }
  for (int i = 0; i < 500; ++i) {
    FeatureVec fv = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    if (rng.Bernoulli(0.2)) fv[rng.NextBelow(3)] = kNaN;
    int voted = -1;
    EXPECT_EQ(VoteWith(forest, fv, &voted), forest.Predict(fv));
    EXPECT_GE(voted, 1);
    EXPECT_LE(voted, static_cast<int>(forest.num_trees()));
  }
}

TEST(FlatForestTest, ShortCircuitStopsAtDecidingVote) {
  // 10 unanimous "match" trees: 2*pos >= 10 first holds at the 5th vote
  // (the tie-break bound). 10 unanimous "no" trees: a match needs 5 of the
  // remaining votes, impossible only after the 6th "no".
  int voted = -1;
  EXPECT_TRUE(VoteWith(ConstantForest(10, 0), {}, &voted));
  EXPECT_EQ(voted, 5);
  EXPECT_FALSE(VoteWith(ConstantForest(0, 10), {}, &voted));
  EXPECT_EQ(voted, 6);
  // Odd count: majority of 11 needs 6 matches; 6 "no" votes decide a "no".
  EXPECT_TRUE(VoteWith(ConstantForest(11, 0), {}, &voted));
  EXPECT_EQ(voted, 6);
  EXPECT_FALSE(VoteWith(ConstantForest(0, 11), {}, &voted));
  EXPECT_EQ(voted, 6);
}

TEST(FlatForestTest, EmptyForestVotesZeroTreesAndPredictsNo) {
  RandomForest empty;
  int voted = -1;
  EXPECT_FALSE(VoteWith(empty, {}, &voted));
  EXPECT_EQ(voted, 0);
  EXPECT_TRUE(UsedFeatures(empty).empty());
}

TEST(FlatForestTest, NeverReadsUnusedFeatures) {
  Rng rng(37);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  // Feature 1 carries the signal; features 0 and 2 are constant, so no
  // split can use them.
  for (int i = 0; i < 300; ++i) {
    double v = rng.NextDouble();
    x.push_back({7.0, v, 7.0});
    y.push_back(v > 0.5 ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  ASSERT_EQ(UsedFeatures(forest), std::vector<int>{1});
  for (int i = 0; i < 100; ++i) {
    double v = rng.NextDouble();
    bool expect = forest.Predict({7.0, v, 7.0});
    // The accessor traps any read outside the used-feature set.
    bool got = forest.PredictWith([&](int pos) -> double {
      EXPECT_EQ(pos, 1);
      return v;
    });
    EXPECT_EQ(got, expect);
  }
}

}  // namespace
}  // namespace falcon
